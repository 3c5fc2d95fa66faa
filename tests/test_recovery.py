"""Symbol recovery from windowed Toeplitz entries."""

import pytest

from symtoep import (
    ComplexRational,
    MarginError,
    NotToeplitzError,
    ShiftY,
    Toeplitz,
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
