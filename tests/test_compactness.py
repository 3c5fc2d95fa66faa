"""Compactness diagnostics: eta blocks, truncations, commutator decay."""

import pytest

from symtoep import (
    ComplexRational,
    FiniteRank,
    MarginError,
    OpSum,
    Partition,
    ShiftY,
    Toeplitz,
    analytic_window,
    asymptotic_classify,
    commutator_decay,
    el_projection,
    elementary,
    eta,
    f_l_projection,
    finite_rank_truncation,
    truncation_support,
    unit,
)
from symtoep.compactness import eta_blocks
from conftest import symbol_battery


def rank_one_at(p):
    p = Partition(p)
    return FiniteRank(p.d, [(p, p, ComplexRational(1))])


def test_el_projection_hand_examples():
    assert [tuple(p) for p in el_projection(2, 3)] == [(1, 0), (2, 0), (3, 0)]
    assert [tuple(p) for p in el_projection(3, 1)] == [(2, 1, 0)]
    assert [tuple(p) for p in el_projection(3, 2)] == [(3, 1, 0), (4, 2, 0)]


def test_el_projection_members_have_zero_tail():
    for d in (2, 3):
        for l in (1, 2, 3):
            for p in el_projection(d, l):
                assert p[-1] == 0
                assert p.d == d


def test_truncation_support_is_shifted_seeds():
    support = truncation_support(2, 2)
    want = set()
    for r in range(2):
        for p in el_projection(2, 2):
            want.add(Partition((p[0] + r, p[1] + r)))
    assert support == want


def test_f_l_is_a_projection():
    proj = f_l_projection(2, 2)
    for p in analytic_window(2, 4):
        once = proj.column(p)
        twice = proj.apply(once)
        assert {k: v for k, v in twice.items() if v} == once
        assert set(once) <= {p}


@pytest.mark.parametrize("j", [2, 3, 4])
def test_eta_of_rank_one_vanishes_for_large_shift(j):
    window = analytic_window(2, 6)
    report = eta(rank_one_at((1, 0)), j, window)
    assert report.passed
    assert report.details["blockNorm"] == pytest.approx(0.0, abs=1e-12)


def test_eta_of_identity_is_nonzero():
    window = analytic_window(2, 5)
    report = eta(Toeplitz(unit(2)), 1, window)
    assert not report.passed
    assert report.details["blockNorm"] >= 1.0 - 1e-9


def test_eta_dense_cap_counts_the_stack_before_assembling(monkeypatch):
    import symtoep.compactness as compactness
    import symtoep.operators as operators

    window = analytic_window(2, 5)
    op = Toeplitz(elementary(2, 1))
    entries = (2 * len(window)) ** 2
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries)
    assert eta(op, 1, window).details["blockNorm"] > 0.0

    def no_assembly(*args):
        raise AssertionError("eta assembled a block before counting the stack")

    monkeypatch.setattr(compactness, "assemble", no_assembly)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", entries - 1)
    with pytest.raises(MarginError, match="dense cap"):
        eta(op, 1, window)


def test_decay_dense_cap_counts_the_window_before_assembling(monkeypatch):
    import symtoep.compactness as compactness
    import symtoep.operators as operators

    window = analytic_window(2, 5)
    op = ShiftY(2, 1)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", len(window) ** 2)
    assert commutator_decay(op, 1, 1, window).norms[0] > 0.5

    def no_assembly(*args):
        raise AssertionError("commutator_decay assembled a window before counting it")

    monkeypatch.setattr(compactness, "assemble", no_assembly)
    monkeypatch.setattr(operators, "MAX_DENSE_ENTRIES", len(window) ** 2 - 1)
    with pytest.raises(MarginError, match=f"{len(window) ** 2} entries.*dense cap"):
        commutator_decay(op, 1, 1, window)


def test_eta_blocks_are_entries_at_shifted_indices():
    phi = elementary(2, 1)
    op = Toeplitz(phi)
    window = analytic_window(2, 4)
    for (a, b), block in eta_blocks(op, 2, window).items():
        fa = (1,) * a + (0,) * (2 - a)
        fb = (1,) * b + (0,) * (2 - b)
        for q in window:
            for p in window:
                shifted_q = Partition(tuple(x + 2 * s for x, s in zip(q, fa)))
                shifted_p = Partition(tuple(x + 2 * s for x, s in zip(p, fb)))
                assert block.entry_at(q, p) == op.entry(shifted_q, shifted_p)


def test_finite_rank_truncation_of_identity():
    window = analytic_window(2, 4)
    residual = finite_rank_truncation(Toeplitz(unit(2)), 2, window)
    # (I - F_l) I (I - F_l) is again a projection; norm 1 on the window
    assert not residual.is_zero()
    assert residual.max_abs() == 1.0


def test_finite_rank_truncation_annihilates_covered_rank_one():
    window = analytic_window(2, 5)
    residual = finite_rank_truncation(rank_one_at((1, 0)), 2, window)
    assert residual.is_zero()


def test_finite_rank_truncation_margin_guard():
    with pytest.raises(MarginError):
        finite_rank_truncation(Toeplitz(unit(2)), 4, analytic_window(2, 2))


def test_commutator_decay_toeplitz_reaches_exact_zero():
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    report = commutator_decay(Toeplitz(phi), 1, 4, analytic_window(2, 8))
    assert report.norms[0] > 0.5
    assert report.passed
    assert all(n == pytest.approx(0.0, abs=1e-12) for n in report.norms[1:])


@pytest.mark.parametrize("d", [2, 3])
def test_commutator_decay_is_zero_from_the_first_step(d):
    """[T_phi, T_{s_i}] has range on last entry 0, so one conjugation kills it."""
    for phi in symbol_battery(d):
        window = analytic_window(d, phi.height() + d + 1)
        for i in range(1, d):
            report = commutator_decay(Toeplitz(phi), i, 1, window)
            assert report.passed, (phi, i)


def test_commutator_decay_shift_stays_constant():
    report = commutator_decay(ShiftY(2, 1), 1, 4, analytic_window(2, 8))
    assert not report.passed
    for n in report.norms:
        assert n == pytest.approx(1.0, abs=1e-9)


def test_asymptotic_classify_accepts_toeplitz_plus_finite_rank():
    phi = elementary(2, 1)
    k = rank_one_at((2, 1))
    report = asymptotic_classify(phi, k, 3, analytic_window(2, 8))
    assert report.passed
    details = report.details
    assert details["commutatorDecayOk"] and details["toeplitzPartOk"] and details["residualEtaOk"]


def test_asymptotic_classify_rejects_shift_residual():
    phi = elementary(2, 1)
    report = asymptotic_classify(phi, ShiftY(2, 1), 3, analytic_window(2, 8))
    assert not report.passed


def test_opsum_in_diagnostics():
    combined = OpSum([Toeplitz(elementary(2, 1)), rank_one_at((1, 0))])
    window = analytic_window(2, 6)
    blocks = eta_blocks(combined, 3, window)
    clean = eta_blocks(Toeplitz(elementary(2, 1)), 3, window)
    # the rank-one term is invisible after a shift by 3
    for key, block in blocks.items():
        assert block.entries == clean[key].entries
