"""Exact complex scalars with rational real and imaginary parts.

All operator entries and symbol coefficients in this package are
ComplexRational values; floating point enters only through explicit
evaluation and norm-estimation routines.

A value is stored as one Gaussian integer over one positive common
denominator, (a + b*i)/n with gcd(a, b, n) == 1.  That form is unique, so
equality compares three ints.  Each operation is integer arithmetic plus
at most one ``math.gcd(a, b, n)`` reduction, and none when both operands
are Gaussian integers (n == 1), which covers almost every coefficient of
the Brown-Halmos relations.  ``re`` and ``im`` read the parts as an
``int`` when integer-valued and as a reduced ``Fraction`` otherwise;
``int`` and ``Fraction`` agree on ``==``, ``hash`` and ``str``, so
reports do not depend on the stored form.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import DomainError

_new = object.__new__
# Largest decimal exponent from_strings reads: Fraction("1e999999999")
# would build a billion-digit integer, while int() already holds a plain
# digit string to 4300 digits.
_EXPONENT_LIMIT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _raw(a: int, b: int, n: int) -> "ComplexRational":
    """(a + b*i)/n from a canonical triple: n > 0, gcd(a, b, n) == 1."""
    z = _new(ComplexRational)
    z._a = a
    z._b = b
    z._n = n
    return z


def _reduced(a: int, b: int, n: int) -> "ComplexRational":
    """(a + b*i)/n from any triple with n > 0."""
    g = gcd(a, b, n)
    if g == 1:
        return _raw(a, b, n)
    return _raw(a // g, b // g, n // g)


def _part(p: int, n: int):
    """p/n as an int when integer-valued, else as a reduced Fraction."""
    if n == 1:
        return p
    f = Fraction(p, n)
    return f.numerator if f.denominator == 1 else f


def _coerce(x):
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction, str)):
        return ComplexRational(x)
    return NotImplemented


class ComplexRational:
    """(a + b*i)/n with a, b, n ints, n > 0 and gcd(a, b, n) == 1."""

    __slots__ = ("_a", "_b", "_n")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._n = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        # over n = lcm(q, s) the triple is already reduced: a prime dividing
        # n divides q or s to the full power it has in n, and p/q, r/s are
        # in lowest terms
        n = q // gcd(q, s) * s
        self._a, self._b, self._n = p * (n // q), r * (n // s), n

    @classmethod
    def from_strings(cls, re: str, im: str) -> "ComplexRational":
        """Parse rational strings like "3", "-1/2"; ValueError on a bad one."""
        for text in (re, im):
            exponent = _EXPONENT.search(text)
            if exponent and abs(int(exponent.group(1))) > _EXPONENT_LIMIT:
                raise ValueError(f"exponent of {text!r} is beyond 10^{_EXPONENT_LIMIT}")
        return cls(Fraction(re), Fraction(im))

    @property
    def re(self) -> int | Fraction:
        return _part(self._a, self._n)

    @property
    def im(self) -> int | Fraction:
        return _part(self._b, self._n)

    def conjugate(self) -> "ComplexRational":
        return _raw(self._a, -self._b, self._n)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float() of either part is
        n = self._n
        try:
            return complex(self._a / n, self._b / n)
        except OverflowError:
            raise DomainError("an exact value is beyond double precision") from None

    def abs2(self) -> int | Fraction:
        a, b, n = self._a, self._b, self._n
        return _part(a * a + b * b, n * n)

    def __add__(self, other):
        if type(other) is not ComplexRational:
            if type(other) is int:
                n = self._n
                return _raw(self._a + other * n, self._b, n)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, m = self._n, other._n
        if m == 1:
            # a + k*n, b + l*n, n share every divisor with a, b, n: none
            return _raw(self._a + other._a * n, self._b + other._b * n, n)
        if n == 1:
            return _raw(self._a * m + other._a, self._b * m + other._b, m)
        return _reduced(self._a * m + other._a * n, self._b * m + other._b * n, n * m)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ComplexRational:
            if type(other) is int:
                n = self._n
                return _raw(self._a - other * n, self._b, n)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        n, m = self._n, other._n
        if m == 1:
            return _raw(self._a - other._a * n, self._b - other._b * n, n)
        if n == 1:
            return _raw(self._a * m - other._a, self._b * m - other._b, m)
        return _reduced(self._a * m - other._a * n, self._b * m - other._b * n, n * m)

    def __rsub__(self, other):
        # other - self, computed here: routing through __sub__ or __neg__
        # would count one scalar op twice under the benchmark's tracer
        if type(other) is int:
            n = self._n
            return _raw(other * n - self._a, -self._b, n)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n, m = self._n, other._n
        if n == 1:
            return _raw(other._a - self._a * m, other._b - self._b * m, m)
        if m == 1:
            return _raw(other._a * n - self._a, other._b * n - self._b, n)
        return _reduced(other._a * n - self._a * m, other._b * n - self._b * m, n * m)

    def __mul__(self, other):
        a, b, n = self._a, self._b, self._n
        if type(other) is ComplexRational:
            c, d, m = other._a, other._b, other._n
            if n == 1 and m == 1:
                return _raw(a * c - b * d, a * d + b * c, 1)
            return _reduced(a * c - b * d, a * d + b * c, n * m)
        if type(other) is int:
            if n == 1:
                return _raw(a * other, b * other, 1)
            return _reduced(a * other, b * other, n)
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
            return _reduced(a * other._a, b * other._a, n * other._n)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return _raw(-self._a, -self._b, self._n)

    def __eq__(self, other):
        if type(other) is not ComplexRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._n == other._n

    def __hash__(self):
        if self._n == 1:
            return hash((self._a, self._b))
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a) or bool(self._b)

    def __repr__(self):
        if not self._b:
            return f"CQ({self.re})"
        return f"CQ({self.re}, {self.im})"

    def rational_strings(self) -> tuple[str, str]:
        """(re, im) as exact decimal-fraction strings for serialization."""
        return str(self.re), str(self.im)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
