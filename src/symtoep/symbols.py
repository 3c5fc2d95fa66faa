"""Finite symmetric Laurent polynomial symbols.

A symbol is stored as one exact coefficient per orbit of the coordinate
permutation action: keys are weakly decreasing integer d-tuples (orbit
representatives), and the coefficient at any lattice point equals the
coefficient at its representative.  All algebra is exact; evaluation and
sampled sup-norms are the only floating-point operations.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import numpy as np

from .errors import DomainError, require_budget
from .partitions import orbit_permutations, orbit_size
from .scalars import ComplexRational

TORUS_TOL = 1e-12
# Largest torus grid (grid_size**d points) torus_max accepts, so it bounds
# both the sampled sup norm of a symbol (`lift`) and the grid maxima of the
# Gamma_d-isometry battery.  The points are evaluated in chunks, so this
# bounds work, not memory: one point per permutation orbit (about 1/d! of
# the grid), then at most the whole grid again to certify the maximum.
# The default lift grid of 128 fits up to d = 3 (128**3 = 2**21 points)
# and not at d = 4.
MAX_SAMPLE_POINTS = 2 ** 22
# Largest orbit expansion lattice_terms builds, counted as the sum of
# d!/prod(mult!) over the orbit representatives before any point is made:
# about 12 MB of terms at d = 8, where one orbit of distinct entries
# (8! = 40,320 points) fits and one at d = 9 does not.  The largest
# expansion the tests, the CLI goldens and the benchmark workloads build
# has 189 points (a random d = 3 symbol).
MAX_LATTICE_TERMS = 2 ** 16
# Torus points torus_max evaluates at once; each of its complex
# arrays then takes 256 KiB.
_SAMPLE_CHUNK = 2 ** 14


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
            count = sum(orbit_size(rep) for rep in self.coeffs)
            require_budget(count, MAX_LATTICE_TERMS, "lattice",
                           f"the symbol's orbits hold {count} lattice points",
                           "use a symbol with smaller orbits")
            self._lattice = [(point, c) for rep, c in self.coeffs.items()
                             for point in orbit_permutations(rep)]
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
        return Symbol(self.d, {tuple(-x for x in reversed(m)): c.conjugate()
                               for m, c in self.coeffs.items()})

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
        """Max |phi| over the uniform grid_size^d torus grid (see torus_max).

        A certified lower bound on the sup norm; refining the grid to a
        multiple of grid_size never decreases the value.
        """
        terms = [(point, c.to_complex()) for point, c in self.lattice_terms()]
        return torus_max(terms, self.d, grid_size)

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


def torus_max(terms: list, d: int, grid_size: int) -> float:
    """Max |f| over the uniform grid_size^d torus grid, f = sum c * z^point.

    terms are (lattice point, complex coefficient) pairs; f must be
    symmetric, each permutation of a point a term with the same coefficient.
    So one point per permutation orbit (a sorted index multiset) is
    evaluated, in chunks of _SAMPLE_CHUNK points, then every permutation of
    each point within rounding distance of their maximum: the result is bit
    for bit the full-grid maximum, with the terms summed in their order.  A
    grid over MAX_SAMPLE_POINTS raises MarginError before any work starts.
    """
    if grid_size < 1:
        raise DomainError("grid_size must be >= 1")
    n_points = grid_size ** d
    require_budget(n_points, MAX_SAMPLE_POINTS, "sampling",
                   f"a grid of {grid_size}^{d} = {n_points} torus points",
                   "use a smaller grid")
    if not terms:
        return 0.0
    axis = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    powers = {e: axis ** e for point, _ in terms for e in point if e}

    tables = _binomial_tables(grid_size, d)
    n_reps = comb(grid_size + d - 1, d)
    rep_abs = np.empty(n_reps)
    for start in range(0, n_reps, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, n_reps)
        rep_abs[start:stop] = _modulus(
            terms, powers, _sorted_multisets(tables, np.arange(start, stop)))

    # Certification.  Let T(x) be the exact sum over the lattice terms
    # p of c_p * prod_k powers[p_k][x_k].  Its factors are table floats
    # and c_p is constant on orbits, so T is exactly symmetric.  The
    # computed modulus at x is within B = (n + d + 2) * 4 eps * S of |T(x)|,
    # where n is the number of terms and S = sum_p |c_p| prod_k
    # max|powers[p_k]| bounds every term and partial sum: each term
    # takes at most d complex products (relative error below 2 eps
    # each), the n-term sum adds at most n eps * S and the modulus
    # 4 eps * S.  The full-grid maximum is at least the largest
    # representative value M, so it sits at a permutation of a
    # representative whose value is at least M - 2B.  Overflow voids
    # the bound, and then every representative is a candidate.
    magnitude = {e: float(np.abs(table).max()) for e, table in powers.items()}
    scale = sum(abs(c) * prod(magnitude[e] for e in point if e) for point, c in terms)
    bound = (len(terms) + d + 2) * 4 * np.finfo(float).eps * scale
    floor = rep_abs.max() - 2 * bound if np.isfinite(4 * scale) else -np.inf
    candidates = np.flatnonzero(~(rep_abs < floor))  # NaN stays a candidate

    n_perms = factorial(d)
    if len(candidates) * n_perms <= n_points:
        perms = np.array(list(permutations(range(d))))
        step = max(1, _SAMPLE_CHUNK // n_perms)
        chunks = (_orbit_points(tables, candidates[i:i + step], perms)
                  for i in range(0, len(candidates), step))
    else:  # the whole grid is less work than the candidates' permutations
        chunks = (
            np.unravel_index(np.arange(i, min(i + _SAMPLE_CHUNK, n_points)), (grid_size,) * d)
            for i in range(0, n_points, _SAMPLE_CHUNK))
    return float(np.max([_modulus(terms, powers, idx).max() for idx in chunks]))


def _binomial_tables(grid_size: int, d: int) -> list[np.ndarray]:
    """comb(x, k) for x in range(grid_size + d - 1), one table per k in 1..d."""
    return [np.array([comb(x, k) for x in range(grid_size + d - 1)], dtype=np.int64)
            for k in range(1, d + 1)]


def _sorted_multisets(tables: list, ranks: np.ndarray) -> list[np.ndarray]:
    """Coordinate index arrays of the sorted multisets i_1 <= ... <= i_d in
    range(grid_size) with the given ranks (tables from _binomial_tables).

    The multiset is the d-subset c_1 < ... < c_d of range(grid_size + d - 1)
    with c_k = i_k + k - 1, and its rank is sum_k comb(c_k, k) (the
    combinatorial number system), so each c_k is read off greedily from k = d.
    """
    idx = [None] * len(tables)
    rest = ranks
    for k in range(len(tables), 0, -1):
        table = tables[k - 1]
        c = np.searchsorted(table, rest, side="right") - 1
        rest = rest - table[c]
        idx[k - 1] = c - (k - 1)
    return idx


def _orbit_points(tables: list, ranks: np.ndarray, perms: np.ndarray) -> list[np.ndarray]:
    """Coordinate index arrays of the sorted multisets with the given ranks,
    each taken in every coordinate order listed in the rows of perms."""
    points = np.stack(_sorted_multisets(tables, ranks), axis=1)[:, perms]
    return [points[..., k].ravel() for k in range(len(tables))]


def _modulus(terms: list, powers: dict, idx: list) -> np.ndarray:
    """|phi| at the grid points with coordinate index arrays idx.

    The operand order is fixed: terms are summed in lattice order and each
    term is multiplied by its coordinate powers as factor * term, from the
    first coordinate on.  Complex multiplication here is not bitwise
    commutative, so every point is evaluated the same way in every chunk.
    """
    total = np.zeros(len(idx[0]), dtype=complex)
    gathered = {}
    for point, c in terms:
        term = np.full(total.shape, c)
        for k, e in enumerate(point):
            if e:
                factor = gathered.get((k, e))
                if factor is None:
                    factor = gathered[k, e] = powers[e][idx[k]]
                term = np.multiply(factor, term)
        total += term
    return np.abs(total)


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
