"""Property-based checks of the column-assembled matrices on random symbols.

Symbols are random Gaussian-integer combinations of orbit representatives
of height <= 2 in d = 2 and 3, and in d = 4 for the residual properties.
The residual routine serves the analytic side (Toeplitz relations) and
the non-analytic side (dual relations), so each residual property is
checked on both.  The eta blocks and the finite-rank truncation are
compared with the independent entry route, and so is the column kernel
that every operator kind shares, and the symbol kernel's columns of the
coordinates s_i with their closed form.  Every column that sums
terms (a symbol column, apply, sums, commutators, residuals, product
defects) holds no entry its terms cancel.  Symbol recovery inverts the Toeplitz entry
map, and antisymmetrization signs are permutation parities.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtoep import (
    ComplexRational,
    DualToeplitz,
    FiniteRank,
    Hankel,
    Laurent,
    OpSum,
    Partition,
    ShiftY,
    Symbol,
    Toeplitz,
    analytic_window,
    antisymmetrize,
    assemble,
    bh_residual_column,
    bh_residual_entry,
    bh_residuals,
    dual_window,
    elementary,
    enumerate_window,
    finite_rank_truncation,
    orbit_permutations,
    product_defect,
    recover_symbol,
    shift,
    truncation_support,
)
from symtoep.compactness import eta_blocks
from symtoep.operators import Commutator, _distinguished
from symtoep.scalars import ONE
from conftest import entry_at

HEIGHT = 2
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
# d = 4 windows hold 15 indices and every entry sums 24 permutation terms
PROPERTY_D4 = settings(max_examples=8, deadline=None, derandomize=True)

gaussian = st.builds(ComplexRational, st.integers(-3, 3), st.integers(-3, 3))
rational = st.fractions(-3, 3, max_denominator=4)
coefficients = st.builds(ComplexRational, rational, rational).filter(
    lambda v: v and v != ComplexRational(1))


@st.composite
def symbols(draw, d=None):
    d = draw(st.sampled_from([2, 3])) if d is None else d
    rep = st.lists(st.integers(-HEIGHT, HEIGHT), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))
    return Symbol(d, draw(st.dictionaries(rep, gaussian, min_size=1, max_size=4)))


def _perturbed(phi, kind, window, draw):
    """kind(phi) plus a random rank-one term indexed inside the window."""
    index = st.sampled_from(window.members)
    bump = FiniteRank(phi.d, [(draw(index), draw(index), draw(gaussian))])
    return OpSum([kind(phi), bump])


def _side(d: int, analytic: bool):
    """(operator kind, window) for one side of the model."""
    # in d = 4 the d = 2, 3 margins leave only 5 indices; one more level gives 15
    wide = 1 if d == 4 else 0
    if analytic:
        return Toeplitz, analytic_window(d, 4 + wide)
    return DualToeplitz, dual_window(d, 2, -2 - wide)


def _assert_residuals_vanish(phi, analytic):
    kind, window = _side(phi.d, analytic)
    residuals = bh_residuals(kind(phi), window)
    assert len(residuals) == phi.d
    for res in residuals:
        assert res.is_zero(), (phi, res.nonzero_witnesses(1))


def _assert_column_route_equals_entry_route(phi, analytic, data):
    import symtoep.operators as operators

    kind, window = _side(phi.d, analytic)
    # a rank-one perturbation on the same side makes the residuals nonzero
    op = _perturbed(phi, kind, window, data.draw)
    built = {}

    def spy(T, i, p, _made=None):
        built[i, p] = column = residual_column(T, i, p, _made)
        return column

    residual_column = operators.bh_residual_column
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "bh_residual_column", spy)
        residuals = bh_residuals(op, window)
    for i, res in enumerate(residuals, start=1):
        for q in window:
            for p in window:
                assert entry_at(res, q, p) == bh_residual_entry(op, i, q, p), (i, q, p)
        for p in window:
            # a bare call makes its own d residuals at p; bh_residuals shared one dict
            col = bh_residual_column(op, i, p)
            assert col == built[i, p] and list(col) == list(built[i, p]), (i, p)
            # and every row of the column's support, inside the window or not
            for q, v in col.items():
                assert v == bh_residual_entry(op, i, q, p), (i, q, p)


@PROPERTY
@given(phi=symbols(), analytic=st.booleans())
def test_residuals_vanish_for_toeplitz_and_dual(phi, analytic):
    _assert_residuals_vanish(phi, analytic)


@PROPERTY_D4
@given(phi=symbols(4), analytic=st.booleans())
def test_residuals_vanish_for_toeplitz_and_dual_d4(phi, analytic):
    _assert_residuals_vanish(phi, analytic)


@PROPERTY
@given(phi=symbols(), analytic=st.booleans(), data=st.data())
def test_column_route_equals_entry_route(phi, analytic, data):
    _assert_column_route_equals_entry_route(phi, analytic, data)


@PROPERTY_D4
@given(phi=symbols(4), analytic=st.booleans(), data=st.data())
def test_column_route_equals_entry_route_d4(phi, analytic, data):
    _assert_column_route_equals_entry_route(phi, analytic, data)


@st.composite
def composed_cases(draw):
    """(phi, analytic, kind(phi) perturbed, column index, vector to apply,
    partner index) on one side of the model; a vector coefficient may be 0."""
    phi, analytic = draw(symbols()), draw(st.booleans())
    kind, window = _side(phi.d, analytic)
    members = st.sampled_from(window.members)
    op = _perturbed(phi, kind, window, draw)
    p = draw(members)
    keys = draw(st.lists(members, min_size=1, max_size=3, unique=True))
    vec = {q: draw(coefficients | st.just(ComplexRational(0))) for q in keys}
    return phi, analytic, op, p, vec, draw(st.integers(0, phi.d - 1))


# (1, 1, 0) and (0, 2, 0) meet at (3, 2, 0) with opposite signs from the column (2, 1, 0)
_ACROSS_ORBITS = Symbol(3, {(1, 1, 0): 1, (2, 0, 0): 1})


@PROPERTY
@given(case=composed_cases())
@example(case=(elementary(2, 1), True, Toeplitz(elementary(2, 1)), Partition((1, 0)),
               {Partition((1, 0)): ComplexRational(0), Partition((2, 0)): ComplexRational(2)},
               0))
@example(case=(_ACROSS_ORBITS, True, Toeplitz(_ACROSS_ORBITS), Partition((2, 1, 0)),
               {Partition((2, 1, 0)): ONE}, 0))
def test_composed_columns_hold_no_zero_entries(case):
    """Every column that sums terms deletes an entry the moment it cancels.

    That holds for a bare symbol column, whose terms from different orbits
    may meet with opposite signs, and for apply, sums, commutators and
    residuals; a zero coefficient of the applied vector adds nothing.  The
    explicit examples pin both cases.  bh_residuals widens a residual's rows
    only when some column is nonempty, so a cancelled entry kept as a zero
    would widen a vanishing residual.  The matrices assembled from the
    columns of every kernel kind store each value as it is, so they hold no
    zero either.
    """
    phi, analytic, op, p, vec, partner = case
    d = phi.d
    kind, window = _side(d, analytic)
    cancelled = OpSum([kind(phi), kind(phi.scaled(-1))])
    partner = _distinguished(d, analytic)[0][partner]
    columns = [kind(phi).column(p), op.apply(vec), op.column(p),
               Commutator(op, partner).column(p), Commutator(kind(phi), partner).column(p)]
    columns += [bh_residual_column(op, i, p) for i in range(1, d + 1)]
    for col in columns:
        assert all(col.values()), col
    # columns whose terms cancel completely are empty
    assert cancelled.column(p) == {} and cancelled.apply(vec) == {}
    for i in range(1, d + 1):
        assert bh_residual_column(kind(phi), i, p) == {}, i
    full = enumerate_window(d, 3, -3)
    upper, lower = full.analytic_part(), full.nonanalytic_part()
    mats = [assemble(Laurent(phi), full, full), assemble(Toeplitz(phi), upper, upper),
            assemble(Hankel(phi), lower, upper), assemble(DualToeplitz(phi), lower, lower),
            assemble(ShiftY(d, 1), upper, upper)]
    mats += [assemble(x, window, window) for x in (op, cancelled, partner, Commutator(op, partner))]
    mats += bh_residuals(op, window)
    for m in mats:
        assert all(m.entries.values()), m.entries


@PROPERTY
@given(phi=symbols(), data=st.data())
def test_product_defect_columns_hold_no_zero_entries(phi, data):
    import symtoep.operators as operators

    psi = data.draw(symbols(phi.d))
    seen = []

    def spy(columns, rows, cols):
        seen.append(columns)
        return assemble_columns(columns, rows, cols)

    assemble_columns = operators.matrix_from_columns
    window = analytic_window(phi.d, 2 * HEIGHT)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "matrix_from_columns", spy)
        product_defect(phi, psi, window)
    (columns,) = seen
    assert set(columns) == set(window)
    for col in columns.values():
        assert all(col.values()), col
        # the defect vanishes on the window's rows, where the Hankel pairing
        # is summed, so only rows outside it are left
        assert not any(q in window for q in col), col


@PROPERTY
@given(phi=symbols())
def test_recover_symbol_inverts_toeplitz_entries(phi):
    assert recover_symbol(Toeplitz(phi).entry, phi.d, phi.height()) == phi


def _parity(perm) -> int:
    """Sign of a permutation of range(n) from its cycle lengths."""
    sign, seen = 1, set()
    for start in range(len(perm)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


@PROPERTY
@given(t=st.lists(st.integers(-4, 6), min_size=2, max_size=5).map(tuple))
def test_antisymmetrize_sign_is_the_sorting_permutation_parity(t):
    sign, part = antisymmetrize(t)
    if len(set(t)) < len(t):
        assert (sign, part) == (0, None)
        return
    # brute force: the one reordering of t that is strictly decreasing
    perm = next(perm for perm in itertools.permutations(range(len(t)))
                if all(t[perm[k]] > t[perm[k + 1]] for k in range(len(t) - 1)))
    assert part == Partition(tuple(t[k] for k in perm))
    assert sign == _parity(perm)


@PROPERTY
@given(phi=symbols(), perturb=st.booleans(), data=st.data())
def test_eta_blocks_are_entries_at_shifted_indices(phi, perturb, data):
    window = analytic_window(phi.d, 3)
    # the rank-one term sits where the shifts j = 0..2 can reach it
    op = _perturbed(phi, Toeplitz, analytic_window(phi.d, 5), data.draw) if perturb \
        else Toeplitz(phi)
    for j in range(3):
        for (a, b), block in eta_blocks(op, j, window).items():
            for q in window:
                for p in window:
                    want = op.entry(shift(q, j, a), shift(p, j, b))
                    assert entry_at(block, q, p) == want, (j, a, b, q, p)


@PROPERTY
@given(phi=symbols(), perturb=st.booleans(), level=st.integers(1, 2), data=st.data())
def test_finite_rank_truncation_is_the_entry_route_mask(phi, perturb, level, data):
    window = analytic_window(phi.d, 5)
    op = _perturbed(phi, Toeplitz, window, data.draw) if perturb else Toeplitz(phi)
    support = truncation_support(phi.d, level)
    m = finite_rank_truncation(op, level, window)
    for q in window:
        for p in window:
            masked = q in support or p in support
            want = ComplexRational(0) if masked else op.entry(q, p)
            assert entry_at(m, q, p) == want, (q, p)


@PROPERTY
@given(phi=symbols(), data=st.data())
def test_product_defect_vanishes(phi, data):
    psi = data.draw(symbols(phi.d))
    window = analytic_window(phi.d, phi.height() + psi.height())
    defect = product_defect(phi, psi, window)
    assert defect.is_zero(), (phi, psi, defect.nonzero_witnesses(1))


# column indices of the kernel properties have entries in [-2, 2]
KERNEL_WINDOW = (2, -2)


def _entry_column(op, p, rows):
    """Column p of op read off the entry route over the given rows."""
    col = {q: op.entry(q, p) for q in rows if op.accepts_row(q)}
    return {q: v for q, v in col.items() if v}


def _combine(terms):
    """Exact sum of v * column over (v, column) pairs, zeros dropped."""
    out = {}
    for v, col in terms:
        for q, c in col.items():
            out[q] = out.get(q, ComplexRational(0)) + c * v
    return {q: v for q, v in out.items() if v}


def _kernel_operator(kind, phi, data):
    d = phi.d
    if kind in (Toeplitz, Laurent, Hankel, DualToeplitz):
        return kind(phi)
    if kind is ShiftY:
        return ShiftY(d, data.draw(st.integers(1, d - 1)))
    index = st.sampled_from(enumerate_window(d, *KERNEL_WINDOW).members)
    terms = data.draw(st.lists(st.tuples(index, index, gaussian), min_size=1, max_size=3))
    bump = FiniteRank(d, terms)
    if kind is FiniteRank:
        return bump
    return OpSum([Toeplitz(phi), ShiftY(d, 1), bump])


@PROPERTY
@given(phi=symbols(), data=st.data(),
       kind=st.sampled_from([Toeplitz, Laurent, Hankel, DualToeplitz, ShiftY, FiniteRank,
                             OpSum]))
def test_apply_combines_entry_columns(phi, kind, data):
    op = _kernel_operator(kind, phi, data)
    cols = [p for p in enumerate_window(phi.d, *KERNEL_WINDOW) if op.accepts_col(p)]
    keys = data.draw(st.lists(st.sampled_from(cols), min_size=1, max_size=4, unique=True))
    vec = {p: data.draw(coefficients) for p in keys}
    # every column's support: one symbol step (height <= 2) past the column window
    top, bottom = KERNEL_WINDOW
    rows = enumerate_window(phi.d, top + HEIGHT, bottom - HEIGHT)
    want = _combine((v, _entry_column(op, p, rows)) for p, v in vec.items())
    assert op.apply(vec) == want, (op, vec)


@PROPERTY
@given(phi=symbols(), pair=st.integers(0, 2), data=st.data())
def test_commutator_columns_compose_entry_columns(phi, pair, data):
    d = phi.d
    s = elementary(d, data.draw(st.integers(1, d)))
    a, b = [(Toeplitz(phi), Toeplitz(s)),
            (ShiftY(d, data.draw(st.integers(1, d - 1))), Toeplitz(phi)),
            (Laurent(phi), Laurent(s))][pair]
    commutator = Commutator(a, b)
    cols = [p for p in enumerate_window(d, *KERNEL_WINDOW) if commutator.accepts_col(p)]
    p = data.draw(st.sampled_from(cols))
    # two steps of height <= 2 past the column window
    top, bottom = KERNEL_WINDOW
    rows = enumerate_window(d, top + 2 * HEIGHT, bottom - 2 * HEIGHT)

    def compose_columns(x, y):
        return _combine((v, _entry_column(x, r, rows))
                        for r, v in _entry_column(y, p, rows).items())

    want = _combine([(1, compose_columns(a, b)), (-1, compose_columns(b, a))])
    assert commutator.column(p) == want, (a, b, p)


@PROPERTY
@given(phi=symbols())
def test_toeplitz_adjoint_is_the_conjugate_symbol(phi):
    t, t_adj = Toeplitz(phi), Toeplitz(phi.conjugate())
    zero = ComplexRational(0)
    window = analytic_window(phi.d, 4)
    for p in window:
        for q in window:
            assert t.column(p).get(q, zero) == t_adj.column(q).get(p, zero).conjugate(), (q, p)


@st.composite
def _edge_indices(draw, d, analytic):
    """A strict index on one side, mostly at its edges: gaps of 1, and the
    last entry at 0 (analytic) or at -1 (non-analytic)."""
    last = draw(st.sampled_from([0, 0, 1, 3] if analytic else [-1, -1, -2, -4]))
    gaps = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=d - 1, max_size=d - 1))
    return Partition(itertools.accumulate(gaps, lambda x, g: x - g,
                                          initial=last + sum(gaps)))


@pytest.mark.parametrize("analytic", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@PROPERTY
@given(data=st.data())
def test_closed_form_coordinates_equal_the_symbol_kernel(d, analytic, data):
    # for strict p and a 0/1 vector e of i ones, p + e and p - e are strict
    # or hold a tie, so the column of s_i (of conj s_i) at p is 1 at each
    # strict step p + e (p - e) on p's side, in orbit_permutations order:
    # the rows the residuals step along
    p = data.draw(_edge_indices(d, analytic))
    kind = Toeplitz if analytic else DualToeplitz
    for i in range(1, d + 1):
        s = elementary(d, i)
        for sign, symbol in ((1, s), (-1, s.conjugate())):
            steps = (tuple(x + y for x, y in zip(p, e))
                     for e in orbit_permutations((sign,) * i + (0,) * (d - i)))
            strict = [r for r in steps
                      if all(a > b for a, b in zip(r, r[1:])) and (r[-1] >= 0) == analytic]
            col = kind(symbol).column(p)
            assert list(col) == strict
            assert all(c is ONE if sign > 0 else c == ONE for c in col.values())

