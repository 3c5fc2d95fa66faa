"""Finite symmetric Laurent polynomial symbols.

A symbol is stored as one exact coefficient per orbit of the coordinate
permutation action: keys are weakly decreasing integer d-tuples (orbit
representatives), and the coefficient at any lattice point equals the
coefficient at its representative.  All algebra is exact; evaluation and
sampled sup-norms are the only floating-point operations.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError, MarginError
from .partitions import orbit_permutations
from .scalars import ComplexRational

TORUS_TOL = 1e-12
# Most torus points one sup_norm_sampled call evaluates: each of its d + 2
# complex arrays then stays within 64 MiB, and the default grid of 128
# still fits up to d = 3 (128**3 = 2**21 points).
MAX_SAMPLE_POINTS = 2 ** 22


def _validate_rep(m, d) -> tuple[int, ...]:
    m = tuple(int(x) for x in m)
    if len(m) != d:
        raise DomainError(f"orbit representative {m} has length != d={d}")
    if any(m[i] < m[i + 1] for i in range(d - 1)):
        raise DomainError(f"orbit representative must be weakly decreasing: {m}")
    return m


class Symbol:
    """Symmetric Laurent polynomial with exact orbit coefficients."""

    __slots__ = ("d", "coeffs", "_lattice")

    def __init__(self, d: int, coeffs: dict):
        if d < 2:
            raise DomainError("symbols need d >= 2")
        self.d = d
        clean = {}
        for m, c in coeffs.items():
            m = _validate_rep(m, d)
            if not isinstance(c, ComplexRational):
                c = ComplexRational(c)
            if c:
                clean[m] = c
        self.coeffs = dict(sorted(clean.items()))
        self._lattice = None

    # -- queries ---------------------------------------------------------

    def coefficient(self, point) -> ComplexRational:
        """Coefficient at an arbitrary lattice point (via its orbit rep)."""
        rep = tuple(sorted(point, reverse=True))
        return self.coeffs.get(rep, ComplexRational(0))

    def lattice_terms(self) -> list[tuple[tuple[int, ...], ComplexRational]]:
        """All (lattice point, coefficient) pairs of the orbit expansion."""
        if self._lattice is None:
            terms = []
            for rep, c in self.coeffs.items():
                for point in orbit_permutations(rep):
                    terms.append((point, c))
            self._lattice = terms
        return self._lattice

    @property
    def is_analytic(self) -> bool:
        """True when every supported orbit rep has last entry >= 0."""
        return all(m[-1] >= 0 for m in self.coeffs)

    def height(self) -> int:
        """Largest |entry| over the support, 0 for the zero symbol."""
        return max((abs(e) for m in self.coeffs for e in m), default=0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Symbol)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Symbol(d={self.d}, {self.coeffs!r})"

    # -- exact algebra ----------------------------------------------------

    def conjugate(self) -> "Symbol":
        """Complex conjugate on the torus: coeff at m -> conj(coeff at -reversed(m))."""
        out = {}
        for m, c in self.coeffs.items():
            out[tuple(-x for x in reversed(m))] = c.conjugate()
        return Symbol(self.d, out)

    def scaled(self, a) -> "Symbol":
        if not isinstance(a, ComplexRational):
            a = ComplexRational(a)
        return Symbol(self.d, {m: a * c for m, c in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        if other.d != self.d:
            raise DomainError("symbol dimension mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, ComplexRational(0)) + c
        return Symbol(self.d, out)

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def __mul__(self, other):
        if isinstance(other, Symbol):
            if other.d != self.d:
                raise DomainError("symbol dimension mismatch")
            return multiply(self, other)
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scaled(other)
        return NotImplemented

    # -- floating-point lane ------------------------------------------------

    def evaluate(self, z) -> complex:
        """Evaluate at a point of the d-torus (each |z_k| = 1 within 1e-12)."""
        z = tuple(complex(x) for x in z)
        if len(z) != self.d:
            raise DomainError("evaluation point has wrong dimension")
        for x in z:
            if abs(abs(x) - 1.0) > TORUS_TOL:
                raise DomainError(f"evaluation point off the torus: |{x}| != 1")
        total = 0j
        for point, c in self.lattice_terms():
            w = 1.0 + 0j
            for x, e in zip(z, point):
                w *= x ** e
            total += c.to_complex() * w
        return total

    def sup_norm_sampled(self, grid_size: int) -> float:
        """Max |phi| over the uniform grid_size^d torus grid.

        A certified lower bound on the sup norm; refining the grid to a
        multiple of grid_size never decreases the value.  A grid of more
        than MAX_SAMPLE_POINTS points raises MarginError before anything
        is allocated.
        """
        if grid_size < 1:
            raise DomainError("grid_size must be >= 1")
        if grid_size ** self.d > MAX_SAMPLE_POINTS:
            raise MarginError(
                f"a grid of {grid_size}^{self.d} = {grid_size ** self.d} torus points "
                f"exceeds the sampling cap of {MAX_SAMPLE_POINTS}; use a smaller grid")
        if not self.coeffs:
            return 0.0
        axis = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        total = np.zeros(grids[0].shape, dtype=complex)
        for point, c in self.lattice_terms():
            term = np.full(grids[0].shape, c.to_complex())
            for g, e in zip(grids, point):
                if e:
                    term = term * g ** e
            total += term
        return float(np.max(np.abs(total)))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for m, c in self.coeffs.items():
            re, im = c.rational_strings()
            terms.append({"m": list(m), "re": re, "im": im})
        return {"d": self.d, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Symbol":
        try:
            d = int(data["d"])
            raw = data["terms"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed symbol JSON: {exc}") from exc
        coeffs: dict = {}
        for term in raw:
            try:
                m = _validate_rep(term["m"], d)
                c = ComplexRational.from_strings(str(term["re"]), str(term["im"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"malformed symbol term {term}: {exc}") from exc
            coeffs[m] = coeffs.get(m, ComplexRational(0)) + c
        return cls(d, coeffs)


def zero_symbol(d: int) -> Symbol:
    return Symbol(d, {})


def unit(d: int) -> Symbol:
    """Constant symbol 1."""
    return Symbol(d, {(0,) * d: ComplexRational(1)})


def elementary(d: int, i: int) -> Symbol:
    """i-th elementary symmetric coordinate s_i; s_d is the top degree p."""
    if not 1 <= i <= d:
        raise DomainError(f"elementary index must satisfy 1 <= i <= d, got {i}")
    rep = (1,) * i + (0,) * (d - i)
    return Symbol(d, {rep: ComplexRational(1)})


def multiply(phi: Symbol, psi: Symbol) -> Symbol:
    """Exact product, orbit expansion convolved then restricted to reps.

    The product is symmetric, so its coefficient at a weakly decreasing
    lattice point is the stored orbit coefficient; sums landing on
    non-sorted points are the same values read off at other orbit members
    and are skipped.
    """
    if phi.d != psi.d:
        raise DomainError("symbol dimension mismatch")
    d = phi.d
    acc: dict = {}
    for a, ca in phi.lattice_terms():
        for b, cb in psi.lattice_terms():
            s = tuple(x + y for x, y in zip(a, b))
            if any(s[i] < s[i + 1] for i in range(d - 1)):
                continue
            prev = acc.get(s)
            acc[s] = ca * cb if prev is None else prev + ca * cb
    return Symbol(d, acc)


def combine(a, phi: Symbol, b, psi: Symbol) -> Symbol:
    """Exact linear combination a*phi + b*psi."""
    if phi.d != psi.d:
        raise DomainError("symbol dimension mismatch")
    return phi.scaled(a) + psi.scaled(b)
