"""Membership and structure checks for the symmetrized-polydisk domain.

Everything here is double-precision numerics with explicit tolerances:
membership goes through companion-matrix root finding, tuple checks
through matrix norms, Schur-based joint diagonalization and SVD
nullspaces.  Exact arithmetic lives in the operator modules.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, DomainError
from .operators import Commutator, Laurent, Toeplitz
from .partitions import Window, regrade, shift
from .scalars import ONE
from .symbols import Symbol, elementary


def _opnorm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


# -- pointwise membership ----------------------------------------------------


@dataclass
class MembershipVerdict:
    in_set: bool
    margin: float
    roots: list
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "inSet": self.in_set,
            "margin": self.margin,
            "roots": [[z.real, z.imag] for z in self.roots],
            "tol": self.tol,
        }


def _char_coeffs(point) -> list:
    # z^d - s_1 z^{d-1} + s_2 z^{d-2} - ... + (-1)^d s_d
    coeffs = [1.0 + 0j]
    for k, s in enumerate(point, start=1):
        coeffs.append((-1) ** k * complex(s))
    return coeffs


def point_in_gamma(point, tol: float = 1e-9) -> MembershipVerdict:
    """Is (s_1, ..., s_d) the symmetrization of a closed-polydisk point?

    Roots of the associated monic polynomial are computed as companion
    matrix eigenvalues; membership means every root has modulus <= 1
    within tol, and margin = max |root| - 1.
    """
    point = tuple(complex(x) for x in point)
    if not point:
        raise DomainError("membership needs a nonempty point")
    roots = np.roots(_char_coeffs(point))
    margin = float(np.max(np.abs(roots)) - 1.0)
    return MembershipVerdict(margin <= tol, margin, [complex(z) for z in roots], tol)


def point_in_bgamma(point, tol: float = 1e-9) -> MembershipVerdict:
    """Distinguished-boundary membership: every root on the unit circle."""
    point = tuple(complex(x) for x in point)
    if not point:
        raise DomainError("membership needs a nonempty point")
    roots = np.roots(_char_coeffs(point))
    margin = float(np.max(np.abs(np.abs(roots) - 1.0)))
    return MembershipVerdict(margin <= tol, margin, [complex(z) for z in roots], tol)


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
    comm_tol: float = 1e-8

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
            mats = []
            for m in data["mats"]:
                mats.append(np.array(
                    [[complex(z[0], z[1]) for z in row] for row in m],
                    dtype=complex,
                ))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed gamma tuple JSON: {exc}") from exc
        return cls(d, tuple(mats))

    @classmethod
    def from_json(cls, text: str) -> "GammaTuple":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


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
    return GammaTuple(d, tuple(mats), comm_tol)


@dataclass
class CheckItem:
    name: str
    margin: float
    ok: bool

    def to_json_dict(self) -> dict:
        return {"name": self.name, "margin": self.margin, "ok": self.ok}


@dataclass
class GammaUnitaryReport:
    items: list
    joint_points: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(it.ok for it in self.items)

    @property
    def worst_failure(self) -> float:
        return max((it.margin for it in self.items if not it.ok), default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "check": "gamma-unitary",
            "verdict": "pass" if self.passed else "fail",
            "items": [it.to_json_dict() for it in self.items],
            "jointPoints": [[[z.real, z.imag] for z in pt] for pt in self.joint_points],
            "tol": self.tol,
        }


def _joint_diagonalize(mats, tol: float, seed: int):
    """Joint eigenvalue tuples of a commuting normal family.

    Takes a seeded random linear combination, Schur-diagonalizes it, and
    reads every matrix in the resulting basis.  Raises DegeneracyError if
    the combination has clustered eigenvalues or a matrix refuses to
    diagonalize in the common basis.
    """
    n = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    combo = sum(ck * m for ck, m in zip(c, mats))
    _, q = scipy.linalg.schur(combo, output="complex")
    eigs = np.diag(q.conj().T @ combo @ q)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    if n > 1:
        gap = min(abs(eigs[a] - eigs[b])
                  for a in range(n) for b in range(a + 1, n))
        if gap < 1e-7 * scale:
            raise DegeneracyError(
                "random combination has clustered eigenvalues; "
                "re-run with a different seed"
            )
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


def check_gamma_unitary(t: GammaTuple, tol: float = 1e-8, seed: int = 42) -> GammaUnitaryReport:
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
    items = [CheckItem("pairwise-commutation", comm, comm <= tol)]
    worst_normal = 0.0
    for k, m in enumerate(mats):
        label = f"R_{k + 1}" if k < d - 1 else "U"
        defect = _opnorm(m @ m.conj().T - m.conj().T @ m)
        worst_normal = max(worst_normal, defect)
        items.append(CheckItem(f"normal-{label}", defect, defect <= tol))
    u_defect = max(_opnorm(u.conj().T @ u - eye), _opnorm(u @ u.conj().T - eye))
    items.append(CheckItem("unitary-U", u_defect, u_defect <= tol))
    for i in range(1, d):
        lhs = mats[d - i - 1]
        rhs = mats[i - 1].conj().T @ u
        defect = _opnorm(lhs - rhs)
        items.append(CheckItem(f"relation-R{d - i}=R{i}*U", defect, defect <= tol))
    # a joint spectrum only exists for a commuting normal family; otherwise
    # the spectral item fails with the algebraic defect as its margin
    joint = []
    if comm <= tol and worst_normal <= tol:
        joint = _joint_diagonalize(list(mats), tol, seed)
        worst = 0.0
        for pt in joint:
            worst = max(worst, point_in_bgamma(pt, tol).margin)
        items.append(CheckItem("joint-spectrum-in-bGamma", worst, worst <= tol))
    else:
        items.append(CheckItem("joint-spectrum-in-bGamma",
                               max(comm, worst_normal), False))
    return GammaUnitaryReport(items, joint, tol)


@dataclass
class GammaIsometryReport:
    items: list
    battery_items: list
    tol: float
    necessary_only: bool = True

    @property
    def passed(self) -> bool:
        return all(it.ok for it in self.items) and all(it.ok for it in self.battery_items)

    def to_json_dict(self) -> dict:
        return {
            "check": "gamma-isometry",
            "verdict": "pass" if self.passed else "fail",
            "items": [it.to_json_dict() for it in self.items],
            "vonNeumannBattery": {
                "necessaryOnly": self.necessary_only,
                "items": [it.to_json_dict() for it in self.battery_items],
            },
            "tol": self.tol,
        }


def _symmetrized_grid(dim: int, grid_size: int) -> list:
    """Elementary symmetric images of the uniform torus grid in dim variables."""
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    axis = np.exp(1j * angles)
    pts = []
    for combo in itertools.product(axis, repeat=dim):
        pts.append(symmetrize_point(combo))
    return pts


def check_gamma_isometry(t: GammaTuple, tol: float = 1e-8, poly_degree: int = 3,
                         grid_size: int = 16) -> GammaIsometryReport:
    """Necessary checks for a gamma-isometry tuple (S_1, ..., S_{d-1}, V).

    Algebraic part: V is an isometry, the family commutes, and
    S_{d-i} = S_i^* V.  Spectral part: for every monomial f of total
    degree <= poly_degree in d-1 variables, the scaled tuple
    (gamma_i S_i) with gamma_i = (d-i)/d satisfies
    ||f(gamma_1 S_1, ...)|| <= max over a sampled symmetrized torus grid
    of |f| plus tol.  The battery is necessary, not sufficient, and the
    report says so.
    """
    d = t.d
    mats = t.mats
    v = mats[-1]
    eye = np.eye(t.size)
    items = []
    iso_defect = _opnorm(v.conj().T @ v - eye)
    items.append(CheckItem("isometry-V", iso_defect, iso_defect <= tol))
    comm = t.commutation_defect()
    items.append(CheckItem("pairwise-commutation", comm, comm <= tol))
    for i in range(1, d):
        lhs = mats[d - i - 1]
        rhs = mats[i - 1].conj().T @ v
        defect = _opnorm(lhs - rhs)
        items.append(CheckItem(f"relation-S{d - i}=S{i}*V", defect, defect <= tol))

    gammas = [(d - i) / d for i in range(1, d)]
    scaled = [g * m for g, m in zip(gammas, mats[:-1])]
    grid = _symmetrized_grid(d - 1, grid_size)
    battery = []
    for expo in itertools.product(range(poly_degree + 1), repeat=d - 1):
        total = sum(expo)
        if not 1 <= total <= poly_degree:
            continue
        op = eye
        for m, a in zip(scaled, expo):
            for _ in range(a):
                op = op @ m
        lhs_norm = _opnorm(op)
        grid_max = max(
            float(np.prod([abs(x) ** a for x, a in zip(pt, expo)]))
            for pt in grid
        )
        name = "f=" + "*".join(f"x{k + 1}^{a}" for k, a in enumerate(expo) if a)
        battery.append(CheckItem(name, lhs_norm - grid_max,
                                 lhs_norm <= grid_max + tol))
    return GammaIsometryReport(items, battery, tol)


# -- S-Toeplitz solver ----------------------------------------------------------


def s_toeplitz_solve(t: GammaTuple, tol: float = 1e-9) -> list:
    """Orthonormal basis of {X : S_i^* X V = X S_{d-i} for all i, V^* X V = X}.

    The intertwining constraints are vectorized row-major
    (vec(A X B) = (A kron B^T) vec X) and the joint nullspace is read off
    an SVD with relative cutoff tol.
    """
    d = t.d
    mats = t.mats
    v = mats[-1]
    n = t.size
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


@dataclass
class ExtensionReport:
    checks: list = field(default_factory=list)  # (name, ok, witness)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "check": "minimal-extension",
            "verdict": "pass" if self.passed else "fail",
            "items": [
                {"name": name, "ok": ok,
                 "witness": None if wit is None else str(wit)}
                for name, ok, wit in self.checks
            ],
        }


def minimal_extension_verify(phi: Symbol, window: Window) -> ExtensionReport:
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
    checks = []

    ls = [Laurent(elementary(d, i)) for i in range(1, d + 1)]
    commutators = [(a, b, Commutator(ls[a], ls[b]))
                   for a, b in itertools.combinations(range(d), 2)]
    witness = next(((f"s_{a + 1}", f"s_{b + 1}", tuple(p)) for a, b, c in commutators
                    for p in window if c.column(p)), None)
    checks.append(("laurent-coordinates-commute", witness is None, witness))

    lphi = Laurent(phi)
    tphi = Toeplitz(phi)
    witness = None
    analytic = [p for p in window if p.is_analytic]
    for p in analytic:
        for q in analytic:
            if lphi.entry(q, p) != tphi.entry(q, p):
                witness = (tuple(q), tuple(p))
                break
        if witness:
            break
    checks.append(("analytic-compression-is-toeplitz", witness is None, witness))

    ld = Laurent(elementary(d, d))
    witness = None
    for p in window:
        r, base = regrade(p)
        if not base.is_analytic or shift(base, r) != p:
            witness = tuple(p)
            break
        if r < 0:
            vec = {p: ONE}
            for _ in range(-r):
                vec = ld.apply(vec)
            if vec != {base: ONE}:
                witness = tuple(p)
                break
        else:
            vec = {base: ONE}
            for _ in range(r):
                vec = ld.apply(vec)
            if vec != {p: ONE}:
                witness = tuple(p)
                break
    checks.append(("diagonal-shift-reachability", witness is None, witness))
    return ExtensionReport(checks)
