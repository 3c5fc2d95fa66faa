"""Property-based checks of the column-assembled matrices on random symbols.

Symbols are random Gaussian-integer combinations of orbit representatives
of height <= 2 in d = 2 and 3.  The residual routine serves the analytic
side (Toeplitz relations) and the non-analytic side (dual relations), so
each residual property is checked on both.  The eta blocks and the
finite-rank truncation are compared with the independent entry route.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from symtoep import (
    ComplexRational,
    DualToeplitz,
    FiniteRank,
    OpSum,
    Symbol,
    Toeplitz,
    analytic_window,
    bh_residual_entry,
    bh_residuals,
    dual_window,
    eta,
    finite_rank_truncation,
    product_defect,
    shift,
    truncation_support,
)

HEIGHT = 2
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

gaussian = st.builds(ComplexRational, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def symbols(draw, d=None):
    d = draw(st.sampled_from([2, 3])) if d is None else d
    rep = st.lists(st.integers(-HEIGHT, HEIGHT), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))
    return Symbol(d, draw(st.dictionaries(rep, gaussian, min_size=1, max_size=4)))


def _perturbed(phi, kind, window, data):
    """kind(phi) plus a random rank-one term indexed inside the window."""
    index = st.sampled_from(window.members)
    bump = FiniteRank(phi.d, [(data.draw(index), data.draw(index), data.draw(gaussian))])
    return OpSum([kind(phi), bump])


def _side(d: int, analytic: bool):
    """(operator kind, window) for one side of the model."""
    if analytic:
        return Toeplitz, analytic_window(d, 4)
    return DualToeplitz, dual_window(d, 2, -2)


@PROPERTY
@given(phi=symbols(), analytic=st.booleans())
def test_residuals_vanish_for_toeplitz_and_dual(phi, analytic):
    kind, window = _side(phi.d, analytic)
    residuals = bh_residuals(kind(phi), window)
    assert len(residuals) == phi.d
    for res in residuals:
        assert res.is_zero(), (phi, res.nonzero_witnesses(1))


@PROPERTY
@given(phi=symbols(), analytic=st.booleans(), data=st.data())
def test_column_route_equals_entry_route(phi, analytic, data):
    kind, window = _side(phi.d, analytic)
    # a rank-one perturbation on the same side makes the residuals nonzero
    op = _perturbed(phi, kind, window, data)
    for i, res in enumerate(bh_residuals(op, window), start=1):
        for q in window:
            for p in window:
                assert res.entry_at(q, p) == bh_residual_entry(op, i, q, p), (i, q, p)


@PROPERTY
@given(phi=symbols(), perturb=st.booleans(), data=st.data())
def test_eta_blocks_are_entries_at_shifted_indices(phi, perturb, data):
    window = analytic_window(phi.d, 3)
    # the rank-one term sits where the shifts j = 0..2 can reach it
    op = _perturbed(phi, Toeplitz, analytic_window(phi.d, 5), data) if perturb \
        else Toeplitz(phi)
    for j in range(3):
        report = eta(op, j, window)
        for (a, b), block in report.blocks.items():
            for q in window:
                for p in window:
                    want = op.entry(shift(q, j, a), shift(p, j, b))
                    assert block.entry_at(q, p) == want, (j, a, b, q, p)


@PROPERTY
@given(phi=symbols(), perturb=st.booleans(), level=st.integers(1, 2), data=st.data())
def test_finite_rank_truncation_is_the_entry_route_mask(phi, perturb, level, data):
    window = analytic_window(phi.d, 5)
    op = _perturbed(phi, Toeplitz, window, data) if perturb else Toeplitz(phi)
    support = truncation_support(phi.d, level)
    m = finite_rank_truncation(op, level, window)
    for q in window:
        for p in window:
            masked = q in support or p in support
            want = ComplexRational(0) if masked else op.entry(q, p)
            assert m.entry_at(q, p) == want, (q, p)


@PROPERTY
@given(phi=symbols(), data=st.data())
def test_product_defect_vanishes(phi, data):
    psi = data.draw(symbols(phi.d))
    window = analytic_window(phi.d, phi.height() + psi.height())
    defect = product_defect(phi, psi, window)
    assert defect.is_zero(), (phi, psi, defect.nonzero_witnesses(1))
