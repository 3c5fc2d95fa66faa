"""Symmetrized-polydisk membership, tuple checkers, and the relation solver."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from conftest import worst_failure


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 3), n=st.integers(2, 4), data=st.data())
def test_gamma_unitary_with_repeated_joint_points_passes(d, n, data):
    # n diagonal slots share fewer than n joint points, so one repeats; the
    # phases are eighth roots of unity, so distinct points stay far apart.
    # Within one point they differ: a repeated coordinate is a multiple root,
    # which point_in_bgamma resolves only to about sqrt(eps)
    labels = data.draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    phases = data.draw(st.lists(st.lists(st.integers(0, 7), min_size=d, max_size=d,
                                         unique=True),
                                min_size=n - 1, max_size=n - 1))
    q = unitary_group.rvs(n, random_state=data.draw(st.integers(0, 2 ** 16)))
    us = [q @ np.diag([np.exp(2j * np.pi * phases[k][j] / 8) for k in labels]) @ q.conj().T
          for j in range(d)]
    t = synth_gamma_unitary(us)
    report = check_gamma_unitary(t)
    assert report.passed, report.details
    assert len(s_toeplitz_solve(t)) == _grouped_dimension(_joint_points(report))


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
    t = GammaTuple(2, (2.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    report = check_gamma_isometry(t)
    assert not report.passed
    assert report.details["vonNeumannBattery"]["necessaryOnly"] is True
    failing = [item for item in report.details["vonNeumannBattery"]["items"] if not item["ok"]]
    assert failing and max(item["margin"] for item in failing) >= 0.2


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
    items = check_gamma_isometry(t, grid_size=grid_size).details["vonNeumannBattery"]["items"]
    expos = [e for e in itertools.product(range(gamma.BATTERY_DEGREE + 1), repeat=d - 1)
             if 1 <= sum(e) <= gamma.BATTERY_DEGREE]
    assert len(items) == len(expos)
    for item, expo in zip(items, expos):
        assert item["name"] == "f=" + "*".join(f"x{k + 1}^{a}" for k, a in enumerate(expo) if a)
        want = _old_grid_max(expo, grid_size)
        assert abs(-item["margin"] - want) <= 8 * math.ulp(want), (item["name"], item["margin"], want)


def test_isometry_battery_lattice_cap_boundary(monkeypatch):
    import symtoep.symbols as symbols

    # d = 4: the largest monomial, e_1^3 in 3 variables, has 3^3 = 27 terms
    t = GammaTuple(4, (np.zeros((1, 1)),) * 3 + (np.eye(1),))
    monkeypatch.setattr(symbols, "MAX_LATTICE_TERMS", 27)
    assert check_gamma_isometry(t, grid_size=2).passed
    monkeypatch.setattr(symbols, "MAX_LATTICE_TERMS", 26)
    with pytest.raises(MarginError, match="27 lattice terms, over the lattice cap"):
        check_gamma_isometry(t, grid_size=2)


def test_isometry_battery_over_the_lattice_cap_builds_nothing(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("the battery expanded a monomial before counting its terms")

    monkeypatch.setattr(gamma, "_elementary_monomial", no_expansion)
    # d = 10 at grid 1 is one torus point, but C(9, 4)^3 = 2000376 lattice terms
    t = GammaTuple(10, (np.zeros((1, 1)),) * 9 + (np.eye(1),))
    with pytest.raises(MarginError, match="2000376 lattice terms"):
        check_gamma_isometry(t, grid_size=1)


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
    assert [(item["name"], item["ok"]) for item in report.details["items"]] == [
        ("laurent-coordinates-commute", True),
        ("analytic-compression-is-toeplitz", False),
        ("diagonal-shift-reachability", True)]
    # the entry route, column by column over the window's analytic members
    laurent, broken = Laurent(phi), Toeplitz(phi.conjugate())
    analytic = [p for p in window if p.is_analytic]
    mismatches = [(tuple(q), tuple(p)) for p in analytic for q in analytic
                  if laurent.entry(q, p) != broken.entry(q, p)]
    assert len(mismatches) > 1
    assert report.details["items"][1]["witness"] == str(mismatches[0])


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
