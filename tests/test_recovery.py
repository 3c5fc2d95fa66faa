"""Symbol recovery from windowed Toeplitz entries."""

import time

import pytest

from symtoep import (
    ComplexRational,
    FiniteRank,
    MarginError,
    NotToeplitzError,
    OpSum,
    ShiftY,
    Toeplitz,
    analytic_window,
    bh_residual_entry,
    elementary,
    recover_symbol,
    zero_symbol,
)
from conftest import symbol_battery


@pytest.mark.parametrize("d", [2, 3])
def test_round_trip_on_battery(d):
    for phi in symbol_battery(d):
        op = Toeplitz(phi)
        bound = max(phi.height(), 1)
        recovered = recover_symbol(op.entry, d, bound)
        assert recovered.coeffs == phi.coeffs, phi


def test_zero_oracle_recovers_empty_symbol():
    def zero_oracle(q, p):
        return ComplexRational(0)

    recovered = recover_symbol(zero_oracle, 2, 2)
    assert recovered.coeffs == zero_symbol(2).coeffs


def test_loose_degree_bound_still_exact():
    phi = elementary(2, 1) * elementary(2, 2).conjugate()
    recovered = recover_symbol(Toeplitz(phi).entry, 2, phi.height() + 3)
    assert recovered.coeffs == phi.coeffs


def test_shift_oracle_is_rejected():
    y = ShiftY(2, 1)
    with pytest.raises(NotToeplitzError):
        recover_symbol(y.entry, 2, 2)


def test_support_beyond_bound_is_rejected():
    tall = elementary(2, 1) * elementary(2, 1)  # height 2
    with pytest.raises(NotToeplitzError):
        recover_symbol(Toeplitz(tall).entry, 2, 1)


def test_window_limited_oracle_raises_margin_error():
    phi = elementary(2, 1)
    op = Toeplitz(phi)

    def cramped(q, p):
        if max(q[0], p[0]) > 3:
            raise KeyError("outside stored window")
        return op.entry(q, p)

    with pytest.raises(MarginError):
        recover_symbol(cramped, 2, 2)


def test_recovered_coefficients_are_exact_scalars():
    phi = elementary(2, 1).scaled(ComplexRational(1, 2)) + elementary(2, 2).scaled(-3)
    recovered = recover_symbol(Toeplitz(phi).entry, 2, 2)
    assert recovered.coefficient((1, 0)) == ComplexRational(1, 2)
    assert recovered.coefficient((1, 1)) == ComplexRational(-3)
    assert recovered.coefficient((2, 0)) == ComplexRational(0)


def test_toeplitz_plus_rank_one_far_from_the_probes_is_rejected():
    """T_{s_1} plus a rank-one term at ((1, 0), (4, 3)) agrees with T_{s_1} on
    every probe, so its probes recover s_1; the window comparison rejects it."""
    rank_one = FiniteRank(2, [((1, 0), (4, 3), 1)])
    oracle = OpSum([Toeplitz(elementary(2, 1)), rank_one]).entry
    with pytest.raises(NotToeplitzError):
        recover_symbol(oracle, 2, 1)


def test_window_cap_comes_before_the_probes():
    def zero_oracle(q, p):
        return ComplexRational(0)

    start = time.perf_counter()
    with pytest.raises(MarginError):
        recover_symbol(zero_oracle, 2, 10 ** 6)
    assert time.perf_counter() - start < 1.0


class _Recording(Toeplitz):
    """A Toeplitz operator that records each (q, p) its entry is asked for."""

    def __init__(self, symbol):
        super().__init__(symbol)
        self.read = set()

    def entry(self, q, p):
        self.read.add((tuple(q), tuple(p)))
        return super().entry(q, p)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_verification_window_holds_every_brown_halmos_read(d, bound):
    """The Brown-Halmos relations on analytic_window(d, bound + d) read only
    entries inside analytic_window(d, bound + d + 1), where recover_symbol
    compares the oracle with the recovered operator.  The recovered
    operator's residuals vanish, so an oracle with a nonzero residual on the
    smaller window disagrees with it somewhere on the larger one."""
    op = _Recording(zero_symbol(d))
    guard = analytic_window(d, bound + d)
    for i in range(1, d + 1):
        for p in guard:
            for q in guard:
                bh_residual_entry(op, i, q, p)
    verified = {tuple(p) for p in analytic_window(d, bound + d + 1)}
    assert op.read
    assert {pair for pair in op.read if not set(pair) <= verified} == set()
