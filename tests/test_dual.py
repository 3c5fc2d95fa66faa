"""Dual Toeplitz relations and the two-by-two block decomposition."""

import pytest

from symtoep import (
    ComplexRational,
    DomainError,
    DualToeplitz,
    FiniteRank,
    Hankel,
    Laurent,
    MarginError,
    OpSum,
    Partition,
    Toeplitz,
    analytic_window,
    bh_residual_column,
    block_decomposition_check,
    dual_bh_residuals,
    dual_window,
    elementary,
    enumerate_window,
)
from symtoep import dual
from conftest import symbol_battery


@pytest.mark.parametrize("d,top", [(2, 4), (3, 3)])
def test_dual_battery_residuals_vanish(d, top):
    window = dual_window(d, top, -top)
    assert len(window) > 0
    for phi in symbol_battery(d)[:10] + [symbol_battery(d)[-1]]:
        residuals = dual_bh_residuals(DualToeplitz(phi), window)
        assert len(residuals) == d
        for res in residuals:
            assert res.exact
            assert res.is_zero(), (phi, res.nonzero_witnesses(1))


def test_thin_dual_window_keeps_the_witness():
    """A residual row outside a one-member window still fails the check."""
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    bump = FiniteRank(2, [((1, -1), (0, -1), ComplexRational(1))])
    window = dual_window(2, 0, -1)
    assert [tuple(p) for p in window] == [(0, -1)]
    residuals = dual_bh_residuals(OpSum([DualToeplitz(phi), bump]), window)
    assert residuals[0].is_zero()
    assert residuals[-1].nonzero_witnesses() == [
        ((1, -1), (0, -1), ComplexRational(-1))]


def test_conjugate_product_shift_moves_down_the_diagonal():
    """DT_{conj p} e_q = e_{q - (1,..,1)} on the non-analytic side."""
    down = DualToeplitz(elementary(2, 2).conjugate())
    q = Partition((2, -1))
    assert down.column(q) == {Partition((1, -2)): ComplexRational(1)}
    # and its adjoint partner DT_p moves up until the boundary cuts it off
    up = DualToeplitz(elementary(2, 2))
    assert up.column(Partition((1, -2))) == {Partition((2, -1)): ComplexRational(1)}
    assert up.column(Partition((0, -1))) == {}


@pytest.mark.parametrize("d", [2, 3])
def test_block_decomposition_on_battery(d):
    for phi in symbol_battery(d)[:8] + [symbol_battery(d)[-1]]:
        h = max(phi.height(), 1)
        window = enumerate_window(d, h + 2, -(h + 2))
        report = block_decomposition_check(phi, window)
        assert report.passed, (phi, report.witnesses[:1])
        assert set(report.block_ok) == {
            "toeplitz", "hankel", "hankel-adjoint", "dual"}


def test_block_decomposition_with_complex_coefficients():
    phi = elementary(2, 1).scaled(ComplexRational(1, 2)) + \
        elementary(2, 2).conjugate().scaled(ComplexRational(0, 1))
    report = block_decomposition_check(phi, enumerate_window(2, 4, -4))
    assert report.passed


@pytest.mark.parametrize("kind,block", [(Toeplitz, "toeplitz"), (DualToeplitz, "dual")])
def test_block_decomposition_names_only_the_broken_block(kind, block, monkeypatch):
    phi = elementary(2, 1).scaled(ComplexRational(1, 2)) + \
        elementary(2, 2).conjugate().scaled(ComplexRational(0, 1))
    window = enumerate_window(2, 4, -4)
    monkeypatch.setattr(dual, kind.__name__, lambda symbol: kind(symbol.conjugate()))
    report = block_decomposition_check(phi, window)
    assert report.block_ok == {name: name != block for name in
                               ("toeplitz", "hankel", "hankel-adjoint", "dual")}
    # the entry route, row-major over the window, within the broken block
    laurent, broken = Laurent(phi), kind(phi.conjugate())
    side = block == "toeplitz"
    want = [(block, q, p) for q in window for p in window
            if q.is_analytic == p.is_analytic == side
            and laurent.entry(q, p) != broken.entry(q, p)]
    assert len(want) > 10
    assert report.witnesses == want[:10]


def test_block_decomposition_margin_guard():
    phi = elementary(2, 1) * elementary(2, 1)  # height 2
    with pytest.raises(MarginError):
        block_decomposition_check(phi, enumerate_window(2, 1, -1))
    with pytest.raises(MarginError):
        block_decomposition_check(phi, enumerate_window(2, 4, 0))


def test_hankel_adjoint_block_is_conjugate_transpose():
    phi = elementary(2, 1) + elementary(2, 2).conjugate().scaled(ComplexRational(0, 1))
    hank_conj = Hankel(phi.conjugate())
    window = enumerate_window(2, 3, -3)
    analytic = [p for p in window if p.is_analytic]
    rest = [p for p in window if not p.is_analytic]
    for q in analytic:
        for p in rest:
            # adjoint block entry (q, p) = conj of Hankel(conj phi) at (p, q)
            got = hank_conj.entry(p, q).conjugate()
            # the adjoint block equals the analytic-row, dual-column piece
            # of full multiplication, i.e. the Laurent entry
            assert Laurent(phi).entry(q, p) == got


def test_dual_residuals_require_nonanalytic_window():
    with pytest.raises(DomainError):
        dual_bh_residuals(DualToeplitz(elementary(2, 1)), analytic_window(2, 3))


@pytest.mark.parametrize("d", [2, 3])
def test_dual_residual_column_is_the_shared_residual_column(d):
    window = dual_window(d, 2, -2)
    bump = FiniteRank(d, [(window.members[0], window.members[0], ComplexRational(1))])
    op = OpSum([DualToeplitz(elementary(d, 1) + elementary(d, d).conjugate()), bump])
    for i in range(1, d + 1):
        columns = [dual.dual_bh_residual_column(op, i, tuple(p)) for p in window]
        assert columns == [bh_residual_column(op, i, p) for p in window]
        assert any(columns)
    with pytest.raises(DomainError, match="non-analytic column"):
        dual.dual_bh_residual_column(op, 1, analytic_window(d, 2).members[0])


def test_toeplitz_block_equals_toeplitz_matrix():
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    window = enumerate_window(2, 3, -3)
    report = block_decomposition_check(phi, window)
    assert report.block_ok["toeplitz"]
    top = Toeplitz(phi)
    analytic = [p for p in window if p.is_analytic]
    for q in analytic:
        for p in analytic:
            # compression pairing against an analytic row equals the full one
            assert top.entry(q, p) == Laurent(phi).entry(q, p)
