"""Symmetrized-polydisk membership, tuple checkers, and the relation solver."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from symtoep import (
    DegeneracyError,
    DomainError,
    GammaTuple,
    MarginError,
    check_gamma_isometry,
    check_gamma_unitary,
    point_in_bgamma,
    point_in_gamma,
    s_toeplitz_solve,
    synth_gamma_unitary,
)
from symtoep import gamma
from conftest import symmetrize_point, worst_failure


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


def _roots(report) -> list:
    return [complex(re, im) for re, im in report.details["roots"]]


def _joint_points(report) -> list:
    return [tuple(complex(re, im) for re, im in pt) for pt in report.details["jointPoints"]]


def test_membership_hand_points():
    report = point_in_bgamma((0, -1))
    assert report.passed
    assert sorted(np.round(np.real(_roots(report)), 9)) == [-1.0, 1.0]
    assert point_in_gamma((0, 0)).passed
    assert point_in_gamma((0, 0)).details["margin"] == pytest.approx(-1.0, abs=1e-9)
    assert not point_in_bgamma((0, 0)).passed
    bad = point_in_gamma((0.0, 1.21))
    assert not bad.passed
    assert bad.details["margin"] == pytest.approx(0.1, abs=1e-6)


def test_symmetrization_lands_in_gamma():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(50):
            radii = np.sqrt(rng.random(d))
            angles = 2 * np.pi * rng.random(d)
            zs = radii * np.exp(1j * angles)
            point = symmetrize_point(zs)
            assert point_in_gamma(point).passed
    # torus points symmetrize onto the distinguished boundary
    for _ in range(50):
        zs = np.exp(2j * np.pi * rng.random(3))
        assert point_in_bgamma(symmetrize_point(zs)).passed


def test_symmetrize_recovers_roots():
    rng = np.random.default_rng(9)
    zs = np.sqrt(rng.random(3)) * np.exp(2j * np.pi * rng.random(3))
    report = point_in_gamma(symmetrize_point(zs))
    got = sorted(np.round(_roots(report), 6).tolist(), key=lambda z: (z.real, z.imag))
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
    assert all(item["ok"] for item in report.details["items"])
    assert len(_joint_points(report)) == 3
    for point in _joint_points(report):
        assert point_in_bgamma(point, tol=1e-6).passed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_gamma_unitary_rejects_perturbation(seed):
    us = random_commuting_unitaries(2, 3, seed=seed)
    t = synth_gamma_unitary(us)
    mats = [m.copy() for m in t.mats]
    mats[0][0, 0] += 0.1
    report = check_gamma_unitary(GammaTuple(2, tuple(mats)))
    assert not report.passed
    assert worst_failure(report) >= 0.05


def _grouped_dimension(points, tol: float = 1e-9) -> int:
    """Sum of m_k^2 over the multiplicities m_k of the distinct points, two
    points being one when every coordinate agrees within tol."""
    groups = []
    for pt in points:
        for group in groups:
            if max(abs(a - b) for a, b in zip(group[0], pt)) <= tol:
                group.append(pt)
                break
        else:
            groups.append([pt])
    return sum(len(group) ** 2 for group in groups)


def test_check_gamma_unitary_passes_a_degenerate_spectrum():
    # S_1 = 2I, V = I: every joint point is (2, 1), so the random
    # combination has one eigenvalue, and every X solves the relations
    eye = np.eye(3, dtype=complex)
    t = GammaTuple(2, (2.0 * eye, eye))
    report = check_gamma_unitary(t)
    assert report.passed
    assert np.allclose(_joint_points(report), [(2, 1)] * 3, atol=1e-12)
    assert len(s_toeplitz_solve(t)) == 9
    # two joint points, one of them twice: 2^2 + 1^2 solutions
    t = synth_gamma_unitary([np.diag([1, 1, -1]), np.diag([1j, 1j, 1])])
    report = check_gamma_unitary(t)
    assert report.passed
    assert len(s_toeplitz_solve(t)) == _grouped_dimension(_joint_points(report)) == 5


def _at_most_double(values, d: int):
    """d draws of values in which none appears three times: point_in_bgamma
    resolves a triple coordinate only to about sqrt(eps)."""
    return st.lists(values, min_size=d, max_size=d).filter(
        lambda drawn: max(map(drawn.count, drawn)) <= 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 3), n=st.integers(2, 4), data=st.data())
def test_gamma_unitary_with_repeated_joint_points_passes(d, n, data):
    # n diagonal slots share fewer than n joint points, so one repeats; the
    # phases are eighth roots of unity, so distinct points stay far apart,
    # and a point may hold a double coordinate
    labels = data.draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    phases = data.draw(st.lists(_at_most_double(st.integers(0, 7), d),
                                min_size=n - 1, max_size=n - 1))
    q = unitary_group.rvs(n, random_state=data.draw(st.integers(0, 2 ** 16)))
    us = [q @ np.diag([np.exp(2j * np.pi * phases[k][j] / 8) for k in labels]) @ q.conj().T
          for j in range(d)]
    t = synth_gamma_unitary(us)
    report = check_gamma_unitary(t)
    assert report.passed, report.details
    assert len(s_toeplitz_solve(t)) == _grouped_dimension(_joint_points(report))


def test_joint_points_with_a_double_coordinate_pass_both_checks():
    # the joint points (2, 1) and (2i, -1) each symmetrize a double
    # coordinate, a double root that np.roots resolves only to about sqrt(eps)
    q = unitary_group.rvs(2, random_state=0)
    u = q @ np.diag([1, 1j]) @ q.conj().T
    t = synth_gamma_unitary([u, u])
    assert np.allclose(sorted(pt[1].real for pt in _joint_points(check_gamma_unitary(t))),
                       [-1, 1], atol=1e-12)
    for check in (check_gamma_unitary, check_gamma_isometry):
        report = check(t)
        assert report.passed, report.details
        assert report.details["items"][-1]["margin"] <= 1e-14


def _normal_family(d: int, n: int, seed: int, repeat=None):
    """d commuting normal n x n matrices in one random unitary basis, with
    random complex spectra; `repeat` = (a, b) makes joint points a and b equal."""
    rng = np.random.default_rng(seed)
    q = unitary_group.rvs(n, random_state=seed) if n > 1 else np.eye(1)
    out = []
    for _ in range(d):
        spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if repeat is not None:
            spectrum[repeat[1]] = spectrum[repeat[0]]
        out.append(q @ np.diag(spectrum) @ q.conj().T)
    return out


def _schur_joint_points(mats, seed: int) -> list:
    """Reference route: the same seeded combination, Schur-diagonalized by scipy."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
    combo = sum(ck * m for ck, m in zip(c, mats))
    _, q = scipy.linalg.schur(combo, output="complex")
    diags = [np.diag(q.conj().T @ m @ q) for m in mats]
    return [tuple(complex(dk[k]) for dk in diags) for k in range(len(diags[0]))]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_joint_diagonalize_matches_the_schur_route(d, n):
    for seed in range(4):
        mats = _normal_family(d, n, seed=100 * d + 10 * n + seed)
        got = gamma._joint_diagonalize(mats, 1e-8, seed)
        want = _schur_joint_points(mats, seed)
        # same points in the same order, coordinate by coordinate
        assert len(got) == len(want) == n
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10


def test_joint_diagonalize_reads_coincident_joint_points():
    mats = _normal_family(3, 4, seed=5, repeat=(1, 3))
    q = unitary_group.rvs(4, random_state=5)  # the family's basis
    want = sorted(zip(*(np.diag(q.conj().T @ m @ q) for m in mats)), key=lambda pt: pt[0].real)
    got = sorted(gamma._joint_diagonalize(mats, 1e-8, 42), key=lambda pt: pt[0].real)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10
    assert _grouped_dimension(got) == 2 ** 2 + 1 + 1
    # repeat one joint point of a genuine gamma-unitary tuple
    q = unitary_group.rvs(4, random_state=6)
    phases = [np.exp(2j * np.pi * np.array([0.1, 0.3, 0.1, 0.7])),
              np.exp(2j * np.pi * np.array([0.2, 0.5, 0.2, 0.9]))]
    t = synth_gamma_unitary([q @ np.diag(ph) @ q.conj().T for ph in phases])
    report = check_gamma_unitary(t)
    assert report.passed
    assert len(s_toeplitz_solve(t)) == _grouped_dimension(_joint_points(report)) == 6


def test_joint_diagonalize_rejects_a_family_without_a_common_basis():
    a = np.diag([1.0, 2.0, 3.0]).astype(complex)
    b = unitary_group.rvs(3, random_state=8)
    with pytest.raises(DegeneracyError, match="common Schur basis"):
        gamma._joint_diagonalize([a, b], 1e-8, 42)


def test_non_commuting_tuple_fails_the_spectrum_item_by_its_algebraic_defect():
    us_a = random_commuting_unitaries(2, 3, seed=11)
    us_b = random_commuting_unitaries(2, 3, seed=12)
    # both normal, but from different unitary bases, so they do not commute
    t = GammaTuple(2, (us_a[0], us_b[1]))
    report = check_gamma_unitary(t)
    items = {item["name"]: item for item in report.details["items"]}
    spectral = items["joint-spectrum-in-bGamma"]
    algebraic = max(items["pairwise-commutation"]["margin"],
                    items["normal-R_1"]["margin"], items["normal-U"]["margin"])
    assert not items["pairwise-commutation"]["ok"]
    assert not spectral["ok"]
    assert spectral["margin"] == algebraic == t.commutation_defect()
    assert _joint_points(report) == []


def test_isometry_battery_rejects_inflated_tuple():
    # the joint point (2.5, 1) keeps |p| = 1 and the relation, and
    # (1/2 * 2.5) = 1.25 lies outside Gamma_1
    t = GammaTuple(2, (2.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    report = check_gamma_isometry(t)
    assert not report.passed
    assert [item["name"] for item in report.witnesses] == ["joint-spectrum-in-bGamma"]
    assert report.witnesses[0]["margin"] >= 0.2


def test_isometry_battery_accepts_gamma_unitary():
    us = random_commuting_unitaries(2, 3, seed=14)
    t = synth_gamma_unitary(us)
    report = check_gamma_isometry(t)
    assert report.passed


@settings(max_examples=120, deadline=None, derandomize=True)
@given(d=st.integers(2, 4), n=st.integers(1, 3), data=st.data())
def test_check_isometry_passes_iff_every_joint_point_is_in_bgamma(d, n, data):
    # each joint point symmetrizes d coordinates on the circle, whole degrees
    # apart or equal, or d - 2 of them and a pair (r e^{it}, e^{it} / r) off
    # it, which keeps |p| = 1 and s_i = conj(s_{d-i}) p: so V is unitary, the
    # relations hold, and only the joint spectrum can tell the two apart
    angle = st.integers(0, 359).map(math.radians)
    points, off_circle = [], False
    for _ in range(n):
        zs = [cmath.exp(1j * a) for a in data.draw(_at_most_double(angle, d))]
        if data.draw(st.booleans()):
            r, theta = data.draw(st.floats(1.1, 3)), data.draw(angle)
            zs[:2] = [r * cmath.exp(1j * theta), cmath.exp(1j * theta) / r]
            off_circle = True
        points.append(symmetrize_point(zs))
    q = unitary_group.rvs(n, random_state=data.draw(st.integers(0, 2 ** 16)))
    t = GammaTuple(d, tuple(q @ np.diag(values) @ q.conj().T for values in zip(*points)))
    report = check_gamma_isometry(t)
    assert report.passed is not off_circle, report.details
    if off_circle:
        assert [item["name"] for item in report.witnesses] == ["joint-spectrum-in-bGamma"]


def test_check_isometry_agrees_with_the_roots_on_random_scalar_tuples():
    # 1x1 d = 3 tuples with |p| = 1 and s_2 = conj(s_1) p pass every
    # algebraic item, and about a fifth of them lie in bGamma_3: their roots
    # are simple, so np.roots resolves them to rounding and tells which
    rng = np.random.default_rng(7)
    on_circle = []
    for _ in range(1000):
        s1 = 3 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        p = np.exp(2j * np.pi * rng.random())
        t = GammaTuple(3, tuple(np.array([[z]]) for z in (s1, np.conj(s1) * p, p)))
        roots = np.roots([1, -s1, np.conj(s1) * p, -p])
        on_circle.append(np.max(np.abs(np.abs(roots) - 1)) <= 1e-6)
        assert check_gamma_isometry(t).passed == on_circle[-1], (s1, p)
    assert 0 < sum(on_circle) < 1000


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
