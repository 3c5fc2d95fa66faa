"""Finite symmetric Laurent polynomial symbols.

A symbol is stored as one exact coefficient per orbit of the coordinate
permutation action: keys are weakly decreasing integer d-tuples (orbit
representatives), and the coefficient at any lattice point equals the
coefficient at its representative.  All algebra is exact; evaluation and
sampled sup-norms are the only floating-point operations.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice, permutations
from math import comb, factorial, prod

import numpy as np

from .errors import DomainError, require_budget
from .partitions import orbit_permutations, orbit_size
from .scalars import ComplexRational

TORUS_TOL = 1e-12
# Largest torus sampling job torus_max accepts, counted in term evaluations
# (lattice terms x grid points), once for its orbit pass of
# C(grid_size + d - 1, d) points and once for its certification points,
# each before it starts.  It bounds the maxima of both `lift` (sampledSup)
# and the Gamma_d-isometry battery.  The default lift grid of 128 fits the
# orbit pass of a d = 4 symbol of up to 11 lattice terms (C(131, 4) =
# 11,716,640 points), and not the whole 128^4 grid of a one-term symbol of
# constant modulus.  On one core of a 2-core x86 host, 2^27 evaluations
# took 1.8 s in the orbit pass of z1 + z2 and 5.5 s on the whole grid of
# z1 z2 z3 z4, where each term evaluation carries the most per-point work.
MAX_TERM_EVALUATIONS = 2 ** 27
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
# Candidate orbit points torus_max keeps from its orbit pass, 16 MB of
# ranks and values; past it the whole grid is certified instead.  Only a
# symbol whose maximum is nearly attained on a set of full dimension, such
# as one of constant modulus, comes close at d <= 4 and grid 128.
_MAX_CANDIDATES = 2 ** 20


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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed symbol JSON: {exc}") from exc
        coeffs: dict = {}
        for term in raw:
            try:
                m = _validate_rep(term["m"], d)
                c = ComplexRational.from_strings(str(term["re"]), str(term["im"]))
            except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
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
    for bit the full-grid maximum, with the terms summed in their order.
    The orbit pass keeps a running maximum and only the points within
    rounding distance of it, not one value per orbit, and reuses its
    chunk arrays.

    The work is counted in term evaluations against MAX_TERM_EVALUATIONS
    twice, raising MarginError before any point of the counted step is
    evaluated: the orbit points first, then the certification points (the
    candidates' permutations, or the whole grid when that is fewer).  A
    power table or a sampled value that is not finite raises DomainError.
    """
    if grid_size < 1:
        raise DomainError("grid_size must be >= 1")
    if not terms:
        return 0.0
    if min(d, grid_size - 1) > 64:  # C(n, k) >= 2^min(k, n - k): over the cap uncomputed
        require_budget(2 ** 64, MAX_TERM_EVALUATIONS, "sampling",
                       f"a {grid_size}^{d} torus grid has more than 2^64 orbit points",
                       "use a smaller grid")
    n_reps = comb(grid_size + d - 1, d)
    _require_evaluations(len(terms), n_reps, f"the {n_reps} orbit points of a {grid_size}^{d} grid")
    axis = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {e: axis ** e for point, _ in terms for e in point if e}
    for e, table in powers.items():
        if not np.isfinite(table).all():
            raise DomainError(f"z^{e} is not finite in double precision on the torus grid")

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
    slack = 2 * bound if np.isfinite(4 * scale) else np.inf

    n_points = grid_size ** d
    n_perms = factorial(d)
    # past this many candidates the whole grid is evaluated instead, with the
    # same maximum: it is then fewer points, or the candidates outgrow memory
    limit = min(n_points // n_perms, _MAX_CANDIDATES)
    size = min(_SAMPLE_CHUNK, n_points)
    modulus = _modulus_kernel(terms, powers, size)
    tables = _binomial_tables(grid_size, d)
    peak = -np.inf
    ranks, values = np.empty(0, dtype=np.int64), np.empty(0)
    for start, idx in _orbit_chunks(tables, size):
        chunk = modulus(idx)
        top = _finite_max(chunk)
        if top > peak:
            peak = top
            keep = values >= peak - slack
            ranks, values = ranks[keep], values[keep]
        near = np.flatnonzero(chunk >= peak - slack)
        ranks = np.concatenate((ranks, near + start))
        values = np.concatenate((values, chunk[near]))
        if len(ranks) > limit:
            break

    if len(ranks) > limit:
        _require_evaluations(len(terms), n_points, f"the whole {grid_size}^{d} grid")
        chunks = _grid_chunks(grid_size, d, size)
    else:
        _require_evaluations(len(terms), len(ranks) * n_perms,
                             f"the {len(ranks)} x {n_perms} permutations of the candidate points")
        chunks = _candidate_points(tables, ranks)
    return float(max(_finite_max(modulus(idx)) for idx in chunks))


def _require_evaluations(n_terms: int, n_points: int, where: str) -> None:
    """Raise MarginError if n_terms terms at n_points points are over the sampling cap."""
    require_budget(n_terms * n_points, MAX_TERM_EVALUATIONS, "sampling",
                   f"{n_terms} terms at {where} are {n_terms * n_points} term evaluations",
                   "use a smaller grid or a symbol with fewer terms")


def _finite_max(values: np.ndarray) -> float:
    """Largest of the sampled moduli; DomainError if any is not finite."""
    top = values.max()
    if not np.isfinite(top):
        raise DomainError("the sampled modulus is not finite in double precision")
    return top


def _binomial_tables(grid_size: int, d: int) -> list[np.ndarray]:
    """comb(k - 1 + i, k) for i in range(grid_size + 1), one table per k in 1..d.

    Each table is the running sum of the one before (Pascal's rule); the
    last entry of table k counts the sorted k-multisets of range(grid_size).
    """
    tables = [np.arange(grid_size + 1, dtype=np.int64)]
    for _ in range(d - 1):
        tables.append(np.cumsum(tables[-1]))
    return tables


def _sorted_multisets(tables: list, ranks: np.ndarray) -> list[np.ndarray]:
    """Coordinate index arrays of the sorted multisets i_1 <= ... <= i_d in
    range(grid_size) with the given ranks (tables from _binomial_tables).

    The multiset is the d-subset c_1 < ... < c_d of range(grid_size + d - 1)
    with c_k = i_k + k - 1, and its rank is sum_k comb(c_k, k) (the
    combinatorial number system), so each i_k is read off greedily from
    k = d; the first table is range(grid_size + 1), so i_1 is what is left.
    """
    idx = [None] * len(tables)
    rest = ranks
    for k in range(len(tables), 1, -1):
        table = tables[k - 1]
        i = np.searchsorted(table, rest, side="right")
        i -= 1
        rest = rest - table[i]
        idx[k - 1] = i
    idx[0] = rest
    return idx


def _orbit_chunks(tables: list, size: int):
    """Yield (start, idx) over all sorted multisets in rank order, size at a
    time: idx as from _sorted_multisets for the ranks start, start + 1, ...,
    as views into arrays that the next chunk overwrites.

    The ranks of a chunk are consecutive, so i_d steps up by one at each
    entry of the last table inside the chunk.  Below it, each i_k is looked
    up by what is left of the rank in a list of i_k over the ranks of the
    k-multisets.  So no chunk allocates an array of its size.
    """
    d = len(tables)
    grid_size = len(tables[0]) - 1
    small = np.min_scalar_type(grid_size)
    lookup = {k: np.repeat(np.arange(grid_size, dtype=small), np.diff(tables[k - 1]))
              for k in range(2, d)}
    base = np.arange(size)
    rest, below = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    idx = [None] + [np.empty(size, dtype=small) for _ in range(1, d)]
    last = tables[-1]
    n_reps = int(last[-1])
    for start in range(0, n_reps, size):
        n = min(size, n_reps - start)
        r, scratch = rest[:n], below[:n]
        np.add(base[:n], start, out=r)
        if d > 1:
            i = idx[-1][:n]
            lo, hi = np.searchsorted(last, (start, start + n - 1), side="right") - 1
            i.fill(0)
            i[last[lo + 1:hi + 1] - start] = 1
            np.cumsum(i, out=i)
            i += int(lo)
            r -= np.take(last, i, out=scratch, mode="clip")
        for k in range(d - 1, 1, -1):
            i = np.take(lookup[k], r, out=idx[k - 1][:n], mode="clip")
            r -= np.take(tables[k - 1], i, out=scratch, mode="clip")
        yield start, [r] + [a[:n] for a in idx[1:]]


def _candidate_points(tables: list, ranks: np.ndarray):
    """Coordinate index arrays of the sorted multisets with the given ranks,
    each taken in every coordinate order, in chunks of at most _SAMPLE_CHUNK
    points (the orders themselves in blocks of at most _SAMPLE_CHUNK)."""
    d = len(tables)
    orders = permutations(range(d))
    while block := list(islice(orders, _SAMPLE_CHUNK)):
        perms = np.array(block)
        step = max(1, _SAMPLE_CHUNK // len(perms))
        for i in range(0, len(ranks), step):
            points = np.stack(_sorted_multisets(tables, ranks[i:i + step]), axis=1)[:, perms]
            yield [points[..., k].ravel() for k in range(d)]


def _grid_chunks(grid_size: int, d: int, size: int):
    """Yield the coordinate index arrays of all grid points in row-major
    order, size at a time, as views into arrays that the next chunk overwrites."""
    n_points = grid_size ** d
    base = np.arange(size)
    flat = np.empty(size, dtype=np.int64)
    idx = [np.empty(size, dtype=np.int64) for _ in range(d)]
    for start in range(0, n_points, size):
        n = min(size, n_points - start)
        f = np.add(base[:n], start, out=flat[:n])
        for k in range(d - 1, -1, -1):
            np.divmod(f, grid_size, out=(f, idx[k][:n]))
        yield [a[:n] for a in idx]


def _modulus_kernel(terms: list, powers: dict, size: int):
    """Return modulus(idx), |f| at the at most size grid points with
    coordinate index arrays idx, as a view into an array reused by the next
    call.  Its arrays are allocated once, here.

    The operand order is fixed: terms are summed in lattice order and each
    term is multiplied by its coordinate powers as factor * term, from the
    first coordinate on.  Complex multiplication here is not bitwise
    commutative, so every point is evaluated the same way in every chunk.
    No product is written over its own term: numpy swaps the operands of a
    one-point product written in place.
    """
    factors = {(k, e): np.empty(size, dtype=complex)
               for point, _ in terms for k, e in enumerate(point) if e}
    total = np.empty(size, dtype=complex)
    terms_in, terms_out = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    out = np.empty(size)

    def modulus(idx: list) -> np.ndarray:
        n = len(idx[0])
        for (k, e), factor in factors.items():
            np.take(powers[e], idx[k], out=factor[:n], mode="clip")
        acc = total[:n]
        acc.fill(0)
        # an overflow leaves a non-finite modulus, which _finite_max rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for point, c in terms:
                part, spare = terms_in[:n], terms_out[:n]
                part.fill(c)
                for k, e in enumerate(point):
                    if e:
                        part, spare = np.multiply(factors[k, e][:n], part, out=spare), part
                np.add(acc, part, out=acc)
            return np.abs(acc, out=out[:n])

    return modulus


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
