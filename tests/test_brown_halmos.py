"""Brown-Halmos relations, analytic classification, and product defects."""

import random

import pytest

from symtoep import (
    ComplexRational,
    DomainError,
    DualToeplitz,
    FiniteRank,
    MarginError,
    OpSum,
    Partition,
    ShiftY,
    Toeplitz,
    analytic_window,
    bh_residual_column,
    bh_residual_entry,
    bh_residuals,
    classify_analytic,
    dual_window,
    elementary,
    enumerate_window,
    product_defect,
    unit,
)
from symtoep.operators import _CoordinateStep
from conftest import compose_columns, symbol_battery


@pytest.mark.parametrize("d,top", [(2, 5), (3, 4)])
def test_battery_residuals_vanish(d, top):
    window = analytic_window(d, top)
    for phi in symbol_battery(d):
        residuals = bh_residuals(Toeplitz(phi), window)
        assert len(residuals) == d
        for res in residuals:
            assert res.to_json_dict()["exact"] is True
            assert res.is_zero(), (phi, res.nonzero_witnesses(1))


@pytest.mark.parametrize("d", [2, 3])
def test_column_route_equals_entry_route(d):
    rng = random.Random(13)
    window = list(analytic_window(d, 4))
    for phi in symbol_battery(d)[:8]:
        op = Toeplitz(phi)
        for _ in range(10):
            i = rng.randint(1, d)
            p = rng.choice(window)
            q = rng.choice(window)
            col = bh_residual_column(op, i, p)
            assert col.get(q, ComplexRational(0)) == bh_residual_entry(op, i, q, p)


def test_shift_fails_coordinate_relation_with_witness():
    y = ShiftY(2, 1)
    window = analytic_window(2, 4)
    residuals = bh_residuals(y, window)
    assert not residuals[0].is_zero()
    q, p, v = residuals[0].nonzero_witnesses(1)[0]
    assert (tuple(q), tuple(p)) == ((2, 1), (1, 0))
    assert v == ComplexRational(1)
    # the final relation T_p* Y T_p = Y holds exactly
    assert residuals[-1].is_zero()


@pytest.mark.parametrize("analytic", [True, False])
def test_residuals_build_no_coordinate_step_column(analytic, monkeypatch):
    """The residuals read their steps from the step table, not from Z's columns."""
    def refuse(self, p):
        raise AssertionError(f"coordinate-step column built at {tuple(p)}")

    monkeypatch.setattr(_CoordinateStep, "_image", refuse)
    window = analytic_window(3, 5) if analytic else dual_window(3, 2, -3)
    kind = Toeplitz if analytic else DualToeplitz
    phi = elementary(3, 1) + elementary(3, 3).conjugate()
    assert all(m.is_zero() for m in bh_residuals(kind(phi), window))
    p = window.members[0]
    bump = FiniteRank(3, [(p, p, ComplexRational(1))])
    assert not all(m.is_zero() for m in bh_residuals(OpSum([kind(phi), bump]), window))


@pytest.mark.parametrize("d,j", [(2, 1), (3, 1), (3, 2)])
def test_shift_passes_final_relation_only(d, j):
    window = analytic_window(d, 3)
    residuals = bh_residuals(ShiftY(d, j), window)
    assert residuals[-1].is_zero()
    assert any(not r.is_zero() for r in residuals[:-1])


def test_shift_commutator_hand_value():
    """[Y_1, T_{s_1}] on e_(1,0) lands on the antisymmetrized collision."""
    y = ShiftY(2, 1)
    t = Toeplitz(elementary(2, 1))
    p = Partition((1, 0))
    yt = compose_columns(y, t, p)
    ty = compose_columns(t, y, p)
    diff = dict(yt)
    for k, v in ty.items():
        diff[k] = diff.get(k, ComplexRational(0)) - v
    diff = {k: v for k, v in diff.items() if v}
    assert diff == {Partition((2, 1)): ComplexRational(-1)}


@pytest.mark.parametrize("d", [2, 3])
def test_classification_matches_analyticity(d):
    window = analytic_window(d, d + 4)
    for phi in symbol_battery(d):
        report = classify_analytic(phi, window)
        assert report.consistent, phi
        assert report.commutes_with_all == phi.is_analytic
        for check in report.details["commutators"]:
            assert check["exactZero"] == (check["witness"] is None)


def test_classification_hand_witness():
    """For phi = s_1 + conj(s_1): [T_phi, T_p] e_(1,0) = e_(2,0)."""
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    t_phi = Toeplitz(phi)
    t_p = Toeplitz(elementary(2, 2))
    p = Partition((1, 0))
    ab = compose_columns(t_phi, t_p, p)
    ba = compose_columns(t_p, t_phi, p)
    diff = dict(ab)
    for k, v in ba.items():
        diff[k] = diff.get(k, ComplexRational(0)) - v
    diff = {k: v for k, v in diff.items() if v}
    assert diff == {Partition((2, 0)): ComplexRational(1)}
    report = classify_analytic(phi, analytic_window(2, 5))
    assert report.consistent and not report.commutes_with_all
    partners = {c["partner"]: c for c in report.details["commutators"]}
    assert partners["p"]["witness"] is not None


def test_classification_margin_guard():
    phi = elementary(2, 1) * elementary(2, 1)
    with pytest.raises(MarginError):
        classify_analytic(phi, analytic_window(2, 2))


@pytest.mark.parametrize("d", [2, 3])
def test_product_defect_on_battery_pairs(d):
    battery = symbol_battery(d)[:7] + [symbol_battery(d)[-1]]
    for phi in battery:
        for psi in battery:
            top = phi.height() + psi.height() + 2
            window = analytic_window(d, top)
            defect = product_defect(phi, psi, window)
            assert defect.to_json_dict()["exact"] is True
            assert defect.is_zero(), (phi, psi, defect.nonzero_witnesses(1))


def test_product_defect_margin_guard():
    phi = elementary(2, 1) * elementary(2, 2)
    with pytest.raises(MarginError):
        product_defect(phi, phi, analytic_window(2, 3))


def test_residuals_require_analytic_window():
    with pytest.raises(DomainError):
        bh_residuals(Toeplitz(unit(2)), enumerate_window(2, 1, -1))
