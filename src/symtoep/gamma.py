"""Membership and structure checks for the symmetrized-polydisk domain.

Everything here is double-precision numerics with explicit tolerances:
membership goes through companion-matrix root finding, tuple checks
through matrix norms, joint diagonalization by orthonormalized
eigenvectors and SVD nullspaces, all on numpy's LAPACK wrappers.
Exact arithmetic, the Laurent model that extends the Toeplitz one
included, lives in the operator modules, which lend this one only their
Report shape.
"""
from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, require_budget
from .operators import Report, pass_fail


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
    """A membership verdict: the point is in the set when margin <= tol.
    A margin or a root that is not finite raises DomainError."""
    roots = [complex(z) for z in roots]
    if not np.isfinite([margin, *roots]).all():
        raise DomainError("the membership margin overflows double precision")
    inside = margin <= tol
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
    """Distinguished-boundary membership: every root on the unit circle.

    Decided by Cohn's theorem rather than by the roots, which np.roots
    resolves only to sqrt(eps) at a double root: the roots all lie on the
    circle iff |s_d| = 1, s_i = conj(s_{d-i}) s_d for every i, and the roots
    of the polynomial's derivative lie in the closed disk, that is
    ((d-i)/d s_i)_{i<d} is in Gamma_{d-1}.  margin is the largest of
    ||s_d| - 1|, the relation defects and the Gamma_{d-1} margin.  A
    coordinate repeated m >= 3 times is an (m-1)-fold root of the
    derivative, so it is still resolved only to about eps^(1/(m-1)).
    """
    roots = _roots(point)
    s = [complex(x) for x in point]
    d = len(s)
    margin = max([abs(abs(s[-1]) - 1.0)]
                 + [abs(s[k] - s[d - 2 - k].conjugate() * s[-1]) for k in range(d - 1)])
    if d > 1:
        critical = _roots([(d - i) / d * s[i - 1] for i in range(1, d)])
        margin = max(margin, float(np.max(np.abs(critical))) - 1.0)
    return _membership(margin, roots, tol)


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


@_double_precision_range()
def check_gamma_isometry(t: GammaTuple, tol: float = 1e-8) -> Report:
    """Decide whether (S_1, ..., S_{d-1}, V) is a gamma-isometry.

    On C^n an isometry V is unitary.  A gamma-isometry is the restriction of
    a gamma-unitary (R, U) to a joint invariant subspace M; U maps M onto
    itself, and R_i^* = R_{d-i} U^* then leaves M invariant too, so M
    reduces the family and the tuple is a gamma-unitary itself (Biswas and
    Shyam Roy, J. Funct. Anal. 266, 2014).  So the check is isometry-V
    followed by check_gamma_unitary's items, with its jointPoints.
    """
    v = t.mats[-1]
    iso_defect = _opnorm(v.conj().T @ v - np.eye(t.size))
    unitary = check_gamma_unitary(t, tol)
    items = [_item("isometry-V", iso_defect, iso_defect <= tol)] + unitary.details["items"]
    return _items_report("gamma-isometry", items, items=items,
                         jointPoints=unitary.details["jointPoints"], tol=tol)


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
