"""Membership and structure checks for the symmetrized-polydisk domain.

Everything here is double-precision numerics with explicit tolerances:
membership goes through companion-matrix root finding, tuple checks
through matrix norms, joint diagonalization by orthonormalized
eigenvectors and SVD nullspaces, all on numpy's LAPACK wrappers.
Exact arithmetic lives in the operator modules.
"""
from __future__ import annotations

import contextlib
import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from . import symbols
from .errors import DegeneracyError, DomainError, require_budget
from .operators import Commutator, Laurent, Report, Toeplitz, assemble, pass_fail
from .partitions import Window, regrade, shift
from .scalars import ONE
from .symbols import Symbol, elementary, torus_max


# Largest total degree of the monomials in the Gamma_d-isometry battery.
BATTERY_DEGREE = 3
# Largest SVD s_toeplitz_solve takes, counted as the (d*n^2)^2 entries of
# its U factor before any block is built: 64 MB of complex entries, so
# 32x32 matrices fit at d = 2.  The largest system the tests, the CLI
# goldens and the benchmark workloads solve has 729 entries (d = 3, n = 3).
MAX_SOLVE_ENTRIES = 2 ** 22


def _opnorm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


@contextlib.contextmanager
def _double_precision_range():
    """Turn float overflow on finite tuple entries into a DomainError."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(f"tuple entries overflow double precision: {exc}") from exc


# -- pointwise membership ----------------------------------------------------


def _roots(point) -> np.ndarray:
    """Roots of z^d - s_1 z^{d-1} + s_2 z^{d-2} - ... + (-1)^d s_d."""
    point = tuple(complex(x) for x in point)
    if not point:
        raise DomainError("membership needs a nonempty point")
    coeffs = [1.0 + 0j]
    for k, s in enumerate(point, start=1):
        coeffs.append((-1) ** k * s)
    return np.roots(coeffs)


def _membership(margin: float, roots, tol: float) -> Report:
    """A membership verdict: the point is in the set when margin <= tol."""
    inside = margin <= tol
    roots = [complex(z) for z in roots]
    return Report(inside, {"inSet": inside, "margin": margin,
                           "roots": [[z.real, z.imag] for z in roots], "tol": tol})


def point_in_gamma(point, tol: float = 1e-9) -> Report:
    """Is (s_1, ..., s_d) the symmetrization of a closed-polydisk point?

    Roots of the associated monic polynomial are computed as companion
    matrix eigenvalues; membership means every root has modulus <= 1
    within tol, and margin = max |root| - 1.
    """
    roots = _roots(point)
    return _membership(float(np.max(np.abs(roots)) - 1.0), roots, tol)


def point_in_bgamma(point, tol: float = 1e-9) -> Report:
    """Distinguished-boundary membership: every root on the unit circle."""
    roots = _roots(point)
    return _membership(float(np.max(np.abs(np.abs(roots) - 1.0))), roots, tol)


def symmetrize_point(zs) -> tuple:
    """Elementary symmetric values (s_1, ..., s_d) of coordinates zs."""
    zs = [complex(z) for z in zs]
    coeffs = np.poly(zs)
    return tuple((-1) ** k * complex(coeffs[k]) for k in range(1, len(zs) + 1))


# -- structured tuples ---------------------------------------------------------


@dataclass
class GammaTuple:
    """Candidate (R_1, ..., R_{d-1}, last) tuple of square matrices."""

    d: int
    mats: tuple

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("gamma tuples need d >= 2")
        mats = tuple(np.asarray(m, dtype=complex) for m in self.mats)
        if not all(np.isfinite(m).all() for m in mats):
            raise DomainError("gamma tuple entries must be finite")
        if len(mats) != self.d:
            raise DomainError(f"expected {self.d} matrices, got {len(mats)}")
        shape = mats[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError("gamma tuple matrices must be square")
        if any(m.shape != shape for m in mats):
            raise DomainError("gamma tuple matrices must share one shape")
        self.mats = mats

    @property
    def size(self) -> int:
        return self.mats[0].shape[0]

    def commutation_defect(self) -> float:
        worst = 0.0
        for a, b in itertools.combinations(range(self.d), 2):
            worst = max(worst, _opnorm(self.mats[a] @ self.mats[b]
                                       - self.mats[b] @ self.mats[a]))
        return worst

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "mats": [
                [[[z.real, z.imag] for z in row] for row in m]
                for m in self.mats
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GammaTuple":
        try:
            d = int(data["d"])
            mats = tuple(np.array([[complex(z[0], z[1]) for z in row] for row in m],
                                  dtype=complex) for m in data["mats"])
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise DomainError(f"malformed gamma tuple JSON: {exc}") from exc
        return cls(d, mats)


def synth_gamma_unitary(unitaries, comm_tol: float = 1e-8) -> GammaTuple:
    """Build (R_1, ..., R_{d-1}, U) from a commuting family of unitaries.

    R_i sums the products over all i-element subsets of the family and U
    is the full product.  Inputs are validated: each matrix unitary and
    all pairs commuting within comm_tol.
    """
    us = [np.asarray(u, dtype=complex) for u in unitaries]
    d = len(us)
    if d < 2:
        raise DomainError("need at least two unitaries")
    n = us[0].shape[0]
    eye = np.eye(n)
    for k, u in enumerate(us):
        if u.shape != (n, n):
            raise DomainError("unitaries must share one square shape")
        if _opnorm(u.conj().T @ u - eye) > comm_tol:
            raise DomainError(f"input {k} is not unitary within {comm_tol}")
    for a, b in itertools.combinations(range(d), 2):
        if _opnorm(us[a] @ us[b] - us[b] @ us[a]) > comm_tol:
            raise DomainError(f"inputs {a}, {b} do not commute within {comm_tol}")
    mats = []
    for i in range(1, d):
        acc = np.zeros((n, n), dtype=complex)
        for subset in itertools.combinations(range(d), i):
            prod = eye
            for k in subset:
                prod = prod @ us[k]
            acc = acc + prod
        mats.append(acc)
    full = eye
    for u in us:
        full = full @ u
    mats.append(full)
    return GammaTuple(d, tuple(mats))


def _item(name: str, margin: float, ok: bool) -> dict:
    return {"name": name, "margin": margin, "ok": ok}


def _items_report(check: str, checked: list, **details) -> Report:
    """The Report of a check made of the checked items: it passes when every
    item is ok, and the failing items are its witnesses."""
    failing = [it for it in checked if not it["ok"]]
    return Report(not failing, {"check": check, "verdict": pass_fail(not failing), **details},
                  failing)


def _joint_diagonalize(mats, tol: float, seed: int):
    """Joint eigenvalue tuples of a commuting normal family.

    Takes a seeded random linear combination and orthonormalizes its
    eigenvectors by a QR step.  The combination is normal, so with distinct
    eigenvalues these are its Schur vectors up to phase, in the order the
    Hessenberg-QR deflation finds them.  Its eigenspaces are orthogonal, so
    the QR step keeps each vector inside its eigenspace; a repeated joint
    point repeats an eigenvalue, and every matrix is scalar on that
    eigenspace, so any orthonormal basis of it serves.  Every matrix is read
    in the common basis; raises DegeneracyError if one is not diagonal there
    (a family without a common eigenbasis, or a combination that merged two
    distinct joint points).
    """
    n = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    combo = sum(ck * m for ck, m in zip(c, mats))
    q, _ = np.linalg.qr(np.linalg.eig(combo)[1])
    diags = []
    for m in mats:
        dm = q.conj().T @ m @ q
        off = dm - np.diag(np.diag(dm))
        if _opnorm(off) > max(np.sqrt(tol), 1e-7) * max(1.0, _opnorm(m)):
            raise DegeneracyError(
                "family failed to diagonalize in the common Schur basis; "
                "re-run with a different seed or check commutation"
            )
        diags.append(np.diag(dm))
    return [tuple(complex(dk[k]) for dk in diags) for k in range(n)]


@_double_precision_range()
def check_gamma_unitary(t: GammaTuple, tol: float = 1e-8, seed: int = 42) -> Report:
    """Verify the algebraic and spectral characterization of a gamma-unitary tuple.

    Checks: pairwise commutation, normality of every matrix, unitarity of
    the last, the relations R_{d-i} = R_i^* U, and membership of every
    joint eigenvalue tuple in the distinguished boundary.
    """
    d = t.d
    mats = t.mats
    u = mats[-1]
    eye = np.eye(t.size)
    comm = t.commutation_defect()
    items = [_item("pairwise-commutation", comm, comm <= tol)]
    worst_normal = 0.0
    for k, m in enumerate(mats):
        label = f"R_{k + 1}" if k < d - 1 else "U"
        defect = _opnorm(m @ m.conj().T - m.conj().T @ m)
        worst_normal = max(worst_normal, defect)
        items.append(_item(f"normal-{label}", defect, defect <= tol))
    u_defect = max(_opnorm(u.conj().T @ u - eye), _opnorm(u @ u.conj().T - eye))
    items.append(_item("unitary-U", u_defect, u_defect <= tol))
    for i in range(1, d):
        lhs = mats[d - i - 1]
        rhs = mats[i - 1].conj().T @ u
        defect = _opnorm(lhs - rhs)
        items.append(_item(f"relation-R{d - i}=R{i}*U", defect, defect <= tol))
    # a joint spectrum only exists for a commuting normal family; otherwise
    # the spectral item fails with the algebraic defect as its margin
    joint = []
    if comm <= tol and worst_normal <= tol:
        joint = _joint_diagonalize(list(mats), tol, seed)
        worst = 0.0
        for pt in joint:
            worst = max(worst, point_in_bgamma(pt, tol).details["margin"])
        items.append(_item("joint-spectrum-in-bGamma", worst, worst <= tol))
    else:
        items.append(_item("joint-spectrum-in-bGamma", max(comm, worst_normal), False))
    return _items_report("gamma-unitary", items, items=items,
                         jointPoints=[[[z.real, z.imag] for z in pt] for pt in joint], tol=tol)


def _elementary_monomial(expo) -> list:
    """(lattice point, count) terms of prod_k e_k^{a_k} in len(expo) variables:
    each factor e_k adds one 0/1 step vector with k ones, and equal sums are
    merged after every factor, so the work follows the distinct points."""
    counts = Counter({(0,) * len(expo): 1})
    for k, a in enumerate(expo, start=1):
        for _ in range(a):
            grown = Counter()
            for s in itertools.combinations(range(len(expo)), k):
                grown.update({tuple(x + (i in s) for i, x in enumerate(point)): n
                              for point, n in counts.items()})
            counts = grown
    return [(point, complex(n)) for point, n in counts.items()]


@_double_precision_range()
def check_gamma_isometry(t: GammaTuple, tol: float = 1e-8,
                         grid_size: int = 16) -> Report:
    """Necessary checks for a gamma-isometry tuple (S_1, ..., S_{d-1}, V).

    Algebraic part: V is an isometry, the family commutes, and
    S_{d-i} = S_i^* V.  Spectral part: for every monomial f of total
    degree <= BATTERY_DEGREE in d-1 variables, the scaled tuple
    (gamma_i S_i) with gamma_i = (d-i)/d satisfies ||f(gamma_1 S_1, ...)||
    <= tol + max |f(e_1, ..., e_{d-1})| over the grid_size^(d-1) torus grid
    (torus_max).  The battery is necessary, not sufficient, and the report
    says so.  Its largest monomial, e_k^3 with k = (d-1)//2, expands to at
    most C(d-1, k)^3 lattice terms; over MAX_LATTICE_TERMS of them (d > 8)
    raises MarginError before any check runs.
    """
    d = t.d
    terms = comb(d - 1, (d - 1) // 2) ** BATTERY_DEGREE
    require_budget(terms, symbols.MAX_LATTICE_TERMS, "lattice",
                   f"the battery's largest monomial in {d - 1} variables expands to "
                   f"{terms} lattice terms", "use a tuple of smaller d")
    mats = t.mats
    v = mats[-1]
    eye = np.eye(t.size)
    items = []
    iso_defect = _opnorm(v.conj().T @ v - eye)
    items.append(_item("isometry-V", iso_defect, iso_defect <= tol))
    comm = t.commutation_defect()
    items.append(_item("pairwise-commutation", comm, comm <= tol))
    for i in range(1, d):
        lhs = mats[d - i - 1]
        rhs = mats[i - 1].conj().T @ v
        defect = _opnorm(lhs - rhs)
        items.append(_item(f"relation-S{d - i}=S{i}*V", defect, defect <= tol))

    gammas = [(d - i) / d for i in range(1, d)]
    scaled = [g * m for g, m in zip(gammas, mats[:-1])]
    battery = []
    for expo in itertools.product(range(BATTERY_DEGREE + 1), repeat=d - 1):
        if not 1 <= sum(expo) <= BATTERY_DEGREE:
            continue
        op = eye
        for m, a in zip(scaled, expo):
            for _ in range(a):
                op = op @ m
        lhs_norm = _opnorm(op)
        grid_max = torus_max(_elementary_monomial(expo), d - 1, grid_size)
        name = "f=" + "*".join(f"x{k + 1}^{a}" for k, a in enumerate(expo) if a)
        battery.append(_item(name, lhs_norm - grid_max, lhs_norm <= grid_max + tol))
    return _items_report("gamma-isometry", items + battery, items=items,
                         vonNeumannBattery={"necessaryOnly": True, "items": battery}, tol=tol)


# -- S-Toeplitz solver ----------------------------------------------------------


@_double_precision_range()
def s_toeplitz_solve(t: GammaTuple, tol: float = 1e-9) -> list:
    """Orthonormal basis of {X : S_i^* X V = X S_{d-i} for all i, V^* X V = X}.

    The intertwining constraints are vectorized row-major
    (vec(A X B) = (A kron B^T) vec X) and the joint nullspace is read off
    an SVD with relative cutoff tol.  A system whose full SVD would hold
    more than MAX_SOLVE_ENTRIES entries raises MarginError before any
    block is built.
    """
    d = t.d
    mats = t.mats
    v = mats[-1]
    n = t.size
    entries = (d * n * n) ** 2
    require_budget(entries, MAX_SOLVE_ENTRIES, "solver",
                   f"solving {d} blocks of size {n * n}x{n * n} needs an SVD of {entries} entries",
                   "use smaller matrices")
    blocks = []
    eye = np.eye(n)
    for i in range(1, d):
        si = mats[i - 1]
        sdi = mats[d - i - 1]
        blocks.append(np.kron(si.conj().T, v.T) - np.kron(eye, sdi.T))
    blocks.append(np.kron(v.conj().T, v.T) - np.eye(n * n))
    a = np.vstack(blocks)
    _, s, vh = np.linalg.svd(a)
    cutoff = tol * max(1.0, float(s[0]) if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return [vh[k].conj().reshape(n, n) for k in range(rank, n * n)]


# -- minimal unitary extension, concrete window model ----------------------------


def _witnessed(name: str, witness) -> dict:
    """The item of an exact check that holds when it found no witness."""
    return {"name": name, "ok": witness is None,
            "witness": None if witness is None else str(witness)}


def minimal_extension_verify(phi: Symbol, window: Window) -> Report:
    """Exact checks that the Laurent model extends the Toeplitz model minimally.

    (1) the coordinate Laurent multipliers commute pairwise (exact column
    maps, no truncation), (2) the analytic compression of Laurent(phi)
    has exactly the Toeplitz entries, (3) every window index is reached
    from an analytic index by diagonal shifts (regrade round trip).
    """
    d = phi.d
    if window.d != d:
        raise DomainError("window dimension mismatch")
    if not len(window):
        raise DomainError("empty window")
    items = []

    ls = [Laurent(elementary(d, i)) for i in range(1, d + 1)]
    commutators = [(a, b, Commutator(ls[a], ls[b]))
                   for a, b in itertools.combinations(range(d), 2)]
    witness = next(((f"s_{a + 1}", f"s_{b + 1}", tuple(p)) for a, b, c in commutators
                    for p in window if c.column(p)), None)
    items.append(_witnessed("laurent-coordinates-commute", witness))

    wa = window.analytic_part()
    got = assemble(Laurent(phi), wa, wa).entries
    want = assemble(Toeplitz(phi), wa, wa).entries
    # mismatched positions as (column, row): the witness is the first column-major
    bad = [(j, i) for i, j in got.keys() | want.keys() if got.get((i, j)) != want.get((i, j))]
    witness = None
    if bad:
        j, i = min(bad)
        witness = (tuple(wa.members[i]), tuple(wa.members[j]))
    items.append(_witnessed("analytic-compression-is-toeplitz", witness))

    ld = Laurent(elementary(d, d))
    witness = None
    for p in window:
        r, base = regrade(p)
        # |r| diagonal shifts lead from the lower index to the upper one
        low, high = (p, base) if r < 0 else (base, p)
        vec = {low: ONE}
        for _ in range(abs(r)):
            vec = ld.apply(vec)
        if not base.is_analytic or shift(base, r) != p or vec != {high: ONE}:
            witness = tuple(p)
            break
    items.append(_witnessed("diagonal-shift-reachability", witness))
    return _items_report("minimal-extension", items, items=items)
