"""Windowed norm estimation and the Laurent lift consistency report."""

import math

import numpy as np
import pytest

from symtoep import (
    ComplexRational,
    DomainError,
    MarginError,
    Toeplitz,
    analytic_window,
    assemble,
    elementary,
    enumerate_window,
    lift_verify,
    norm_estimate,
    unit,
)


def toeplitz_matrix(d, phi, top):
    win = analytic_window(d, top)
    return assemble(Toeplitz(phi), win, win)


def test_identity_norm_is_one():
    m = toeplitz_matrix(2, unit(2), 4)
    assert norm_estimate(m) == pytest.approx(1.0, abs=1e-12)


def test_scaled_identity():
    phi = unit(2).scaled(ComplexRational(-3, 4))  # modulus 5
    m = toeplitz_matrix(2, phi, 3)
    assert norm_estimate(m) == pytest.approx(5.0, abs=1e-9)


def test_estimate_monotone_in_iterations():
    m = toeplitz_matrix(2, elementary(2, 1), 8)
    values = [norm_estimate(m, iterations=k) for k in (2, 5, 10, 40, 120)]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-12


def test_estimate_matches_dense_spectral_norm():
    import numpy as np

    phi = elementary(2, 1) + elementary(2, 2).conjugate().scaled(2)
    m = toeplitz_matrix(2, phi, 6)
    dense = np.linalg.norm(m.to_dense(), 2)
    estimate = norm_estimate(m, iterations=500)
    assert estimate <= dense + 1e-9          # always a lower bound
    assert estimate == pytest.approx(dense, rel=1e-3)


def test_windowed_norms_monotone_in_window():
    phi = elementary(2, 1)
    values = [
        norm_estimate(toeplitz_matrix(2, phi, top), iterations=200)
        for top in (3, 6, 9, 12)
    ]
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-9
    # bounded above by the true sup norm
    assert values[-1] <= 2.0 + 1e-9


def test_zero_window_norm_builds_no_dense_matrix(monkeypatch):
    import numpy as np

    from symtoep import MatrixWindow

    win = analytic_window(3, 6)
    # a cancelled entry stored as an exact zero is still a zero window
    zeros = [MatrixWindow(win, win), MatrixWindow(win, win, {(0, 1): ComplexRational(0)})]
    # the dense route reads the same bits
    assert [norm_estimate(m.to_dense()) for m in zeros] == [0.0, 0.0]

    def no_dense(self):
        raise AssertionError("norm_estimate built a dense zero matrix")

    monkeypatch.setattr(MatrixWindow, "to_dense", no_dense)
    assert [norm_estimate(m) for m in zeros] == [0.0, 0.0]
    assert np.copysign(1.0, norm_estimate(zeros[0])) == 1.0


def test_seed_determinism():
    m = toeplitz_matrix(2, elementary(2, 1), 5)
    assert norm_estimate(m, seed=7) == norm_estimate(m, seed=7)


def _power_iteration(a, iterations, seed):
    """norm_estimate's loop written with a fresh array per step, as the reference."""
    b = a.conj().T @ a
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(b.shape[0]) + 1j * rng.standard_normal(b.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(iterations):
        y = b @ x
        ny = np.linalg.norm(y)
        if ny < 1e-300:
            return 0.0
        x = y / ny
    return math.sqrt(max(float(np.real(np.vdot(x, b @ x))), 0.0))


@pytest.mark.parametrize("n", [1, 28, 135, 286])
def test_norm_estimate_equals_the_reference_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for iterations, seed in ((100, 42), (200, 7)):
        assert norm_estimate(a, iterations, seed) == _power_iteration(a, iterations, seed)


@pytest.mark.parametrize("entry", [1e200, 1e100], ids=["gram", "iterate"])
def test_norm_estimate_that_overflows_is_domain_error(entry):
    # at 1e200 A^*A overflows; at 1e100 it does not, but the iterate's
    # squared length does, which used to end the iteration at 0.0
    with pytest.raises(DomainError, match="overflows double precision"):
        norm_estimate(np.full((2, 2), entry))
    assert norm_estimate(np.full((2, 2), 1e60)) == 2e60


@pytest.mark.parametrize("d", [2, 3])
def test_lift_verify_passes_for_symbols(d):
    phi = elementary(d, 1) + elementary(d, d).conjugate()
    windows = [enumerate_window(d, t, -t) for t in (d, d + 2, d + 4)]
    report = lift_verify(phi, windows)
    assert report.passed
    details = report.details
    assert details["chainOk"] and details["monotoneOk"]
    for row in details["windows"]:
        assert row["blockOk"]
        assert row["toeplitzNorm"] <= row["laurentNorm"] + 1e-9
    assert details["sampledSup"] >= details["windows"][-1]["toeplitzNorm"] - 1e-6


def test_lift_block_check_fails_on_a_wrong_toeplitz_model(monkeypatch):
    """blockOk compares the analytic block of L_phi with T_phi exactly, so a
    Toeplitz model of conj phi fails it while every norm comparison holds."""
    import symtoep.operators as operators

    phi = elementary(2, 1).scaled(ComplexRational(1, 2)) + \
        elementary(2, 2).conjugate().scaled(ComplexRational(0, 1))
    monkeypatch.setattr(operators, "Toeplitz", lambda symbol: Toeplitz(symbol.conjugate()))
    report = lift_verify(phi, [enumerate_window(2, 4, -4)])
    details = report.details
    assert [row["blockOk"] for row in details["windows"]] == [False]
    assert details["chainOk"] and details["monotoneOk"] and details["normBoundOk"]
    assert not report.passed


def test_lift_dense_cap_counts_the_largest_window_first(monkeypatch):
    import symtoep.operators as operators

    phi = elementary(2, 1)
    windows = [enumerate_window(2, t, -t) for t in (2, 3)]
    entries = len(windows[-1]) ** 2
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries)
    assert lift_verify(phi, windows, grid_size=8).passed

    def no_work(*args):
        raise AssertionError("lift_verify sampled or assembled before counting its windows")

    monkeypatch.setattr(operators, "assemble", no_work)
    monkeypatch.setattr(type(phi), "sup_norm_sampled", no_work)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries - 1)
    with pytest.raises(MarginError, match=f"{entries} entries.*dense cap"):
        lift_verify(phi, windows)


def test_lift_norm_bound_slack_is_relative():
    # |scale z1 z2| = scale, and its norms round around that by more than tol
    # but not by more than tol * scale: at 10^12 the Toeplitz norms fall
    # from just above scale to just below it, at 10^15 a Toeplitz norm
    # rounds above its Laurent norm.  These are the windows of `verify --suite lift`.
    windows = [enumerate_window(2, t, -t) for t in (2, 3)]
    for scale in (10 ** 12, 10 ** 15):
        report = lift_verify(elementary(2, 2).scaled(scale), windows, grid_size=8)
        details = report.details
        norms = [row[key] for row in details["windows"]
                 for key in ("toeplitzNorm", "laurentNorm")]
        assert details["supUpper"] == scale and max(norms) > scale + 1e-9, scale
        assert details["chainOk"] and details["monotoneOk"] and details["normBoundOk"], scale
        assert report.passed


def test_lift_report_serializes():
    phi = elementary(2, 1)
    report = lift_verify(phi, [enumerate_window(2, 3, -3)])
    data = report.details
    assert data["check"] == "laurent-lift"
    assert data["verdict"] in ("pass", "fail")
