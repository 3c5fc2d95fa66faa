"""Exact complex scalars with rational real and imaginary parts.

All operator entries and symbol coefficients in this package are
ComplexRational values; floating point enters only through explicit
evaluation and norm-estimation routines.

Each part is stored as a plain ``int`` when it is integer-valued and as a
``Fraction`` otherwise, so Gaussian-integer arithmetic, which covers
almost every coefficient of the Brown-Halmos relations, runs on Python
integers.  ``int`` and ``Fraction`` agree on ``==``, ``hash`` and
``str``, so the two forms of one value are interchangeable everywhere.
"""
from __future__ import annotations

from fractions import Fraction


def _norm(x):
    """One part: an int if integer-valued, else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _coerce(x):
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return ComplexRational(x)
    return NotImplemented


class ComplexRational:
    """a + b*i with a, b exact rationals (int when integer-valued, else Fraction)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _norm(re)
        self.im = _norm(im)

    @classmethod
    def from_strings(cls, re: str, im: str) -> "ComplexRational":
        """Parse rational strings like "3", "-1/2"."""
        return cls(Fraction(re), Fraction(im))

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def abs2(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return ComplexRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return ComplexRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return f"CQ({self.re})"
        return f"CQ({self.re}, {self.im})"

    def rational_strings(self) -> tuple[str, str]:
        """(re, im) as exact decimal-fraction strings for serialization."""
        return str(self.re), str(self.im)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
