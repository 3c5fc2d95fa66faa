"""Property-based checks of the Brown-Halmos residuals on random symbols.

Symbols are random Gaussian-integer combinations of orbit representatives
of height <= 2 in d = 2 and 3.  The residual routine serves the analytic
side (Toeplitz relations) and the non-analytic side (dual relations), so
each property is checked on both.
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
)

HEIGHT = 2
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)

gaussian = st.builds(ComplexRational, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def symbols(draw):
    d = draw(st.sampled_from([2, 3]))
    rep = st.lists(st.integers(-HEIGHT, HEIGHT), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))
    return Symbol(d, draw(st.dictionaries(rep, gaussian, min_size=1, max_size=4)))


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
    index = st.sampled_from(window.members)
    bump = FiniteRank(phi.d, [(data.draw(index), data.draw(index), data.draw(gaussian))])
    op = OpSum([kind(phi), bump])
    for i, res in enumerate(bh_residuals(op, window), start=1):
        for q in window:
            for p in window:
                assert res.entry_at(q, p) == bh_residual_entry(op, i, q, p), (i, q, p)
