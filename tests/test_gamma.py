"""Symmetrized-polydisk membership, tuple checkers, and the relation solver."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import unitary_group

from symtoep import (
    ComplexRational,
    DegeneracyError,
    DomainError,
    GammaTuple,
    Laurent,
    MarginError,
    Toeplitz,
    analytic_window,
    check_gamma_isometry,
    check_gamma_unitary,
    elementary,
    enumerate_window,
    minimal_extension_verify,
    point_in_bgamma,
    point_in_gamma,
    s_toeplitz_solve,
    symmetrize_point,
    synth_gamma_unitary,
)
from symtoep import gamma


def random_commuting_unitaries(d: int, n: int, seed: int, conjugate: bool = True):
    rng = np.random.default_rng(seed)
    if conjugate:
        q = unitary_group.rvs(n, random_state=seed)
    else:
        q = np.eye(n)
    out = []
    for _ in range(d):
        phases = np.exp(2j * np.pi * rng.random(n))
        out.append(q @ np.diag(phases) @ q.conj().T)
    return out


def kron_nullspace_dimension(mats, tol: float = 1e-9) -> int:
    """Dimension of the joint solution space, assembled entry by entry.

    Unknown X is n x n; equations S_i^* X V = X S_{d-i} for i = 1..d-1
    and V^* X V = X, written out on the standard matrix units.
    """
    d = len(mats)
    n = mats[0].shape[0]
    v = mats[-1]
    rows = []
    for i in range(1, d):
        s_i = mats[i - 1]
        s_di = mats[d - i - 1]
        block = np.zeros((n * n, n * n), dtype=complex)
        for k in range(n):
            for l in range(n):
                unit_kl = np.zeros((n, n), dtype=complex)
                unit_kl[k, l] = 1.0
                image = s_i.conj().T @ unit_kl @ v - unit_kl @ s_di
                block[:, k * n + l] = image.reshape(-1)
        rows.append(block)
    block = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        for l in range(n):
            unit_kl = np.zeros((n, n), dtype=complex)
            unit_kl[k, l] = 1.0
            image = v.conj().T @ unit_kl @ v - unit_kl
            block[:, k * n + l] = image.reshape(-1)
    rows.append(block)
    system = np.vstack(rows)
    s = np.linalg.svd(system, compute_uv=False)
    cutoff = tol * max(1.0, s[0] if len(s) else 1.0)
    rank = int(np.sum(s > cutoff))
    return n * n - rank


def test_membership_hand_points():
    report = point_in_bgamma((0, -1))
    assert report.in_set
    assert sorted(np.round(np.real(report.roots), 9)) == [-1.0, 1.0]
    assert point_in_gamma((0, 0)).in_set
    assert point_in_gamma((0, 0)).margin == pytest.approx(-1.0, abs=1e-9)
    assert not point_in_bgamma((0, 0)).in_set
    bad = point_in_gamma((0.0, 1.21))
    assert not bad.in_set
    assert bad.margin == pytest.approx(0.1, abs=1e-6)


def test_symmetrization_lands_in_gamma():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(50):
            radii = np.sqrt(rng.random(d))
            angles = 2 * np.pi * rng.random(d)
            zs = radii * np.exp(1j * angles)
            point = symmetrize_point(zs)
            assert point_in_gamma(point).in_set
    # torus points symmetrize onto the distinguished boundary
    for _ in range(50):
        zs = np.exp(2j * np.pi * rng.random(3))
        assert point_in_bgamma(symmetrize_point(zs)).in_set


def test_symmetrize_recovers_roots():
    rng = np.random.default_rng(9)
    zs = np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    report = point_in_gamma(symmetrize_point(zs))
    got = sorted(np.round(report.roots, 6).tolist(), key=lambda z: (z.real, z.imag))
    want = sorted(np.round(zs, 6).tolist(), key=lambda z: (z.real, z.imag))
    assert np.allclose(got, want, atol=1e-5)


def test_synth_builds_relations():
    us = random_commuting_unitaries(3, 4, seed=21)
    t = synth_gamma_unitary(us)
    assert t.d == 3
    r1, r2, u = t.mats
    assert np.allclose(r2, r1.conj().T @ u, atol=1e-10)
    assert np.allclose(r1, r2.conj().T @ u, atol=1e-10)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


def test_synth_rejects_non_commuting_input():
    rng = np.random.default_rng(5)
    a = unitary_group.rvs(3, random_state=1)
    b = unitary_group.rvs(3, random_state=2)
    assert np.linalg.norm(a @ b - b @ a, 2) > 1e-3  # generic pair
    with pytest.raises(DomainError):
        synth_gamma_unitary([a, b])


def test_synth_rejects_non_unitary_input():
    with pytest.raises(DomainError):
        synth_gamma_unitary([np.diag([2.0, 1.0]), np.eye(2)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_gamma_unitary_round_trip(seed):
    us = random_commuting_unitaries(2, 3, seed=seed)
    t = synth_gamma_unitary(us)
    report = check_gamma_unitary(t)
    assert report.passed
    assert all(item.ok for item in report.items)
    assert len(report.joint_points) == 3
    for point in report.joint_points:
        assert point_in_bgamma(point, tol=1e-6).in_set


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_gamma_unitary_rejects_perturbation(seed):
    us = random_commuting_unitaries(2, 3, seed=seed)
    t = synth_gamma_unitary(us)
    mats = [m.copy() for m in t.mats]
    mats[0][0, 0] += 0.1
    report = check_gamma_unitary(GammaTuple(2, tuple(mats)))
    assert not report.passed
    assert report.worst_failure >= 0.05


def test_check_gamma_unitary_flags_degenerate_spectrum():
    # S_1 = 2I, V = I: a genuine gamma-unitary pair, but every joint
    # eigenvalue coincides, so no stable separation exists.
    t = GammaTuple(2, (2.0 * np.eye(3, dtype=complex), np.eye(3, dtype=complex)))
    with pytest.raises(DegeneracyError):
        check_gamma_unitary(t)


def test_isometry_battery_rejects_inflated_tuple():
    t = GammaTuple(2, (2.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    report = check_gamma_isometry(t)
    assert not report.passed
    assert report.necessary_only
    failing = [item for item in report.battery_items if not item.ok]
    assert failing and max(item.margin for item in failing) >= 0.2


def test_isometry_battery_accepts_gamma_unitary():
    us = random_commuting_unitaries(2, 3, seed=14)
    t = synth_gamma_unitary(us)
    report = check_gamma_isometry(t)
    assert report.passed


def _old_grid_max(expo, grid_size: int) -> float:
    """prod_k |x_k|^{a_k} maximized over symmetrize_point of every grid point."""
    axis = np.exp(1j * (2.0 * np.pi * np.arange(grid_size) / grid_size))
    return max(float(np.prod([abs(x) ** a for x, a in zip(symmetrize_point(zs), expo)]))
               for zs in itertools.product(axis, repeat=len(expo)))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("grid_size", range(3, 9))
def test_isometry_battery_grid_maxima_match_the_pointwise_grid(d, grid_size):
    # S_i = 0 makes every battery margin 0 - (grid maximum) exactly
    t = GammaTuple(d, (np.zeros((1, 1)),) * (d - 1) + (np.eye(1),))
    items = check_gamma_isometry(t, grid_size=grid_size).battery_items
    expos = [e for e in itertools.product(range(gamma.BATTERY_DEGREE + 1), repeat=d - 1)
             if 1 <= sum(e) <= gamma.BATTERY_DEGREE]
    assert len(items) == len(expos)
    for item, expo in zip(items, expos):
        assert item.name == "f=" + "*".join(f"x{k + 1}^{a}" for k, a in enumerate(expo) if a)
        want = _old_grid_max(expo, grid_size)
        assert abs(-item.margin - want) <= 8 * math.ulp(want), (item.name, item.margin, want)


def test_s_toeplitz_solver_hand_pair():
    t = GammaTuple(2, (np.diag([2.0, 0.0]).astype(complex),
                       np.diag([1.0, -1.0]).astype(complex)))
    basis = s_toeplitz_solve(t)
    assert len(basis) == 2
    assert kron_nullspace_dimension(list(t.mats)) == 2


def test_s_toeplitz_solver_cap_boundary(monkeypatch):
    t = GammaTuple(2, (np.diag([2.0, 0.0]).astype(complex),
                       np.diag([1.0, -1.0]).astype(complex)))
    # two blocks of 4 x 4: a full SVD of (2 * 4)^2 = 64 entries
    monkeypatch.setattr(gamma, "MAX_SOLVE_ENTRIES", 64)
    assert len(s_toeplitz_solve(t)) == 2
    monkeypatch.setattr(gamma, "MAX_SOLVE_ENTRIES", 63)
    with pytest.raises(MarginError, match="64 entries.*solver cap"):
        s_toeplitz_solve(t)


@pytest.mark.parametrize("n", [2, 3])
def test_s_toeplitz_solver_matches_kron_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        mats = tuple(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for _ in range(2)
        )
        t = GammaTuple(2, mats)
        assert len(s_toeplitz_solve(t)) == kron_nullspace_dimension(list(mats))


def test_s_toeplitz_solutions_satisfy_relations():
    us = random_commuting_unitaries(2, 2, seed=33)
    t = synth_gamma_unitary(us)
    s1, v = t.mats
    for x in s_toeplitz_solve(t):
        assert np.linalg.norm(s1.conj().T @ x @ v - x @ s1, 2) < 1e-7
        assert np.linalg.norm(v.conj().T @ x @ v - x, 2) < 1e-7


def test_gamma_tuple_json_round_trip():
    us = random_commuting_unitaries(2, 2, seed=8)
    t = synth_gamma_unitary(us)
    again = GammaTuple.from_json_dict(t.to_json_dict())
    assert again.d == t.d
    for a, b in zip(again.mats, t.mats):
        assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_minimal_extension_verify(d):
    phi = elementary(d, 1)
    report = minimal_extension_verify(phi, analytic_window(d, 4))
    assert report.passed


def test_minimal_extension_compression_witness(monkeypatch):
    """A wrong Toeplitz model fails check (2) at its first column-major mismatch."""
    phi = elementary(2, 1).scaled(ComplexRational(1, 2)) + \
        elementary(2, 2).conjugate().scaled(ComplexRational(0, 1))
    window = enumerate_window(2, 4, -4)
    monkeypatch.setattr(gamma, "Toeplitz", lambda symbol: Toeplitz(symbol.conjugate()))
    report = minimal_extension_verify(phi, window)
    assert [(name, ok) for name, ok, _ in report.checks] == [
        ("laurent-coordinates-commute", True),
        ("analytic-compression-is-toeplitz", False),
        ("diagonal-shift-reachability", True)]
    # the entry route, column by column over the window's analytic members
    laurent, broken = Laurent(phi), Toeplitz(phi.conjugate())
    analytic = [p for p in window if p.is_analytic]
    mismatches = [(tuple(q), tuple(p)) for p in analytic for q in analytic
                  if laurent.entry(q, p) != broken.entry(q, p)]
    assert len(mismatches) > 1
    assert report.checks[1][2] == mismatches[0]


@pytest.mark.parametrize("check", [check_gamma_unitary, check_gamma_isometry,
                                   s_toeplitz_solve])
def test_float_overflow_is_a_domain_error(check):
    big = np.full((2, 2), 1e308, dtype=complex)
    before = np.geterr()
    with warnings.catch_warnings():
        # an overflow must raise, not print a RuntimeWarning and go on
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            check(GammaTuple(2, (big, big)))
    assert np.geterr() == before
