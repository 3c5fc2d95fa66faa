"""Operator entries validated against brute-force monomial expansions.

The first two tests are the foundation for everything else: they expand
the antisymmetrized basis vectors as raw Laurent monomial sums and check
the normalization <a_p, a_q> = d! * delta_pq and the closed-form matrix
entries against the literal torus inner product.  Only with those in
place do the faster structural tests below mean anything.
"""

import itertools
from fractions import Fraction
from math import factorial

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
    ShiftY,
    Toeplitz,
    analytic_window,
    assemble,
    elementary,
    enumerate_window,
    unit,
)
from symtoep.operators import _distinguished
from symtoep.scalars import ONE
from conftest import compose_columns, symbol_battery


def perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def expand_antisymmetric(m) -> dict:
    """Monomial dict of sum_sigma sgn(sigma) z^(m permuted by sigma)."""
    out = {}
    for perm in itertools.permutations(range(len(m))):
        expo = tuple(m[k] for k in perm)
        out[expo] = out.get(expo, 0) + perm_sign(perm)
    return {k: v for k, v in out.items() if v}


def expand_symbol(phi) -> dict:
    """Monomial dict of the symmetric symbol from its orbit-rep coefficients."""
    out = {}
    for rep, c in phi.coeffs.items():
        for expo in set(itertools.permutations(rep)):
            acc = out.get(expo)
            out[expo] = c if acc is None else acc + c
    return out


def convolve(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(e)
            term = ca * cb
            out[e] = term if acc is None else acc + term
    return out


def torus_inner(f: dict, g: dict):
    """<f, g> on the torus with monomials orthonormal (exact)."""
    total = ComplexRational(0)
    for e, c in f.items():
        other = g.get(e)
        if other is not None:
            if not isinstance(c, ComplexRational):
                c = ComplexRational(c)
            if not isinstance(other, ComplexRational):
                other = ComplexRational(other)
            total = total + c * other.conjugate()
    return total


@pytest.mark.parametrize("d,top,bottom", [(2, 5, -2), (3, 4, -1)])
def test_normalization_oracle(d, top, bottom):
    """Brute force: <a_p, a_q> = d! * delta_pq over a full window."""
    window = list(enumerate_window(d, top, bottom))
    expansions = {p: expand_antisymmetric(tuple(p)) for p in window}
    for p in window:
        for q in window:
            ip = torus_inner(expansions[p], expansions[q])
            want = ComplexRational(factorial(d)) if p == q else ComplexRational(0)
            assert ip == want, (tuple(p), tuple(q))


def test_collision_expansion_vanishes():
    assert expand_antisymmetric((1, 1)) == {}
    assert expand_antisymmetric((2, 0, 2)) == {}


@pytest.mark.parametrize("d,top,bottom,take", [(2, 3, -3, None), (3, 2, -2, 8)])
def test_entry_formula_against_inner_product(d, top, bottom, take):
    """Each kind's closed-form entry equals (1/d!) <phi a_p, a_q>."""
    battery = symbol_battery(d)
    if take is not None:
        battery = battery[:take] + [battery[-1]]
    full = enumerate_window(d, top, bottom)
    analytic = [p for p in full if p.is_analytic]
    rest = [p for p in full if not p.is_analytic]
    scale = Fraction(1, factorial(d))
    a_of = {p: expand_antisymmetric(tuple(p)) for p in full}
    for phi in battery:
        phi_m = expand_symbol(phi)
        products = {p: convolve(phi_m, a_of[p]) for p in full}
        cases = [
            (Laurent(phi), full, full),
            (Toeplitz(phi), analytic, analytic),
            (Hankel(phi), rest, analytic),
            (DualToeplitz(phi), rest, rest),
        ]
        for op, rows, cols in cases:
            for p in cols:
                for q in rows:
                    want = torus_inner(products[p], a_of[q]) * scale
                    assert op.entry(q, p) == want, (type(op).__name__, tuple(q), tuple(p))


@pytest.mark.parametrize("d", [2, 3])
def test_apply_matches_entries(d):
    full = enumerate_window(d, 2, -2)
    for phi in symbol_battery(d)[: 6]:
        op = Laurent(phi)
        for p in full:
            col = op.column(p)
            for q in full:
                assert col.get(q, ComplexRational(0)) == op.entry(q, p)
            # the column support is exactly the nonzero entries
            assert all(v for v in col.values())


def test_apply_with_a_unit_factor_is_the_same_dict():
    """apply skips products by the shared ONE; the result is that of c * 1."""
    c = ComplexRational(Fraction(3, 7), Fraction(-1, 2))
    phi = symbol_battery(3)[4].scaled(c)
    vec = {Partition((3, 1, 0)): c, Partition((4, 2, 1)): ComplexRational(2, -1)}
    window = analytic_window(3, 5)
    # a unit vector factor: the shared ONE against a fresh 1
    for p in window:
        shared = Toeplitz(phi).apply({p: ONE})
        fresh = Toeplitz(phi).apply({p: ComplexRational(1)})
        assert shared == fresh and list(shared) == list(fresh)
        assert [hash(v) for v in shared.values()] == [hash(v) for v in fresh.values()]
    # unit column factors: the closed-form T_{s_i} against the symbol kernel's
    for i in range(1, 4):
        shared = _distinguished(3, True)[0][i - 1].apply(vec)
        fresh = Toeplitz(elementary(3, i)).apply(vec)
        assert shared == fresh and list(shared) == list(fresh)
        assert [hash(v) for v in shared.values()] == [hash(v) for v in fresh.values()]


def test_hand_entries_dimension_two():
    t1 = Toeplitz(elementary(2, 1))
    t2 = Toeplitz(elementary(2, 2))
    assert t1.entry((2, 0), (1, 0)) == ComplexRational(1)
    assert t1.entry((2, 1), (1, 0)) == ComplexRational(0)
    assert t2.entry((2, 1), (1, 0)) == ComplexRational(1)
    phi = elementary(2, 1) + elementary(2, 1).conjugate()
    assert Toeplitz(phi).column((1, 0)) == {Partition((2, 0)): ComplexRational(1)}


def test_entry_route_permutation_cap_boundary(monkeypatch):
    import symtoep.partitions as partitions

    # the table is cached per d: start cold, so d = 5 is built under the cap
    partitions.signed_index_permutations.cache_clear()
    monkeypatch.setattr(partitions, "MAX_INDEX_PERMUTATIONS", factorial(5))
    assert Toeplitz(elementary(5, 1)).entry((5, 3, 2, 1, 0), (4, 3, 2, 1, 0)) == ONE

    def no_permutations(*args):
        raise AssertionError("the entry route enumerated permutations over the cap")

    monkeypatch.setattr(itertools, "permutations", no_permutations)
    with pytest.raises(MarginError, match="720 signed permutations.*permutation cap"):
        Toeplitz(elementary(6, 1)).entry((6, 4, 3, 2, 1, 0), (5, 4, 3, 2, 1, 0))


def test_constant_symbol_acts_as_scalar():
    c = ComplexRational(Fraction(3, 7), Fraction(-1, 2))
    op = Toeplitz(unit(2).scaled(c))
    for p in analytic_window(2, 4):
        assert op.column(p) == {p: c}


@pytest.mark.parametrize("d", [2, 3])
def test_conjugate_elementary_times_product_symbol(d):
    """On the torus conj(s_j) * s_d = s_{d-j}, exactly as symbols."""
    s_d = elementary(d, d)
    for j in range(1, d):
        lhs = elementary(d, j).conjugate() * s_d
        assert lhs.coeffs == elementary(d, d - j).coeffs
    assert (elementary(d, d).conjugate() * s_d).coeffs == unit(d).coeffs


@pytest.mark.parametrize("d", [2, 3])
def test_adjoint_relation_on_columns(d):
    """T_{conj s_j} T_p = T_{s_{d-j}} exactly, column by column."""
    tp = Toeplitz(elementary(d, d))
    for j in range(1, d + 1):
        left = Toeplitz(elementary(d, j).conjugate())
        target = Toeplitz(elementary(d, d - j)) if j < d else Toeplitz(unit(d))
        for p in analytic_window(d, 4):
            got = compose_columns(left, tp, p)
            want = {q: v for q, v in target.column(p).items() if v}
            assert got == want


def test_shift_operator_action():
    y = ShiftY(2, 1)
    assert y.step == (1, 0)
    assert y.shifted(Partition((1, 0))) == Partition((2, 0))
    assert y.column((1, 0)) == {Partition((2, 0)): ComplexRational(1)}
    assert y.entry((2, 0), (1, 0)) == ComplexRational(1)
    assert y.entry((2, 1), (1, 0)) == ComplexRational(0)
    y2 = ShiftY(3, 2)
    assert y2.shifted(Partition((2, 1, 0))) == Partition((3, 2, 0))


def test_shift_operator_domain():
    with pytest.raises(DomainError):
        ShiftY(2, 2)
    with pytest.raises(DomainError):
        ShiftY(2, 0)
    with pytest.raises(DomainError):
        ShiftY(2, 1).entry((1, 0), (0, -1))


def test_finite_rank_and_sum():
    e10 = Partition((1, 0))
    e20 = Partition((2, 0))
    f = FiniteRank(2, [(e20, e10, ComplexRational(2))])
    assert f.entry(e20, e10) == ComplexRational(2)
    assert f.entry(e20, e20) == ComplexRational(0)
    assert f.column(e10) == {e20: ComplexRational(2)}
    both = OpSum([f, ShiftY(2, 1)])
    assert both.entry(e20, e10) == ComplexRational(3)
    assert both.column(e10) == {e20: ComplexRational(3)}


def test_finite_rank_sums_repeated_terms():
    e10, e20, e21 = Partition((1, 0)), Partition((2, 0)), Partition((2, 1))
    c = ComplexRational(Fraction(1, 2), 3)
    f = FiniteRank(2, [(e20, e10, c), (e21, e10, 1), (e20, e10, c), (e21, e10, -1)])
    # repeated (q, p) terms sum; terms that cancel leave no entry, which reads 0
    assert f.column(e10) == {e20: c + c}
    assert f.entry(e21, e10) == ComplexRational(0)
    # a term at a new key is stored as given, with no sum against a zero
    assert FiniteRank(2, [(e20, e10, c)]).column(e10)[e20] is c


def test_assemble_and_matrix_window():
    phi = elementary(2, 1)
    win = analytic_window(2, 3)
    m = assemble(Toeplitz(phi), win, win)
    assert m.to_json_dict()["exact"] is True
    assert not m.is_zero()
    dense = m.to_dense()
    assert dense.shape == (len(win), len(win))
    for i, q in enumerate(win):
        for j, p in enumerate(win):
            assert dense[i, j] == Toeplitz(phi).entry(q, p).to_complex()
    assert m.entry_at(Partition((2, 0)), Partition((1, 0))) == ComplexRational(1)
    assert m.max_abs() == 1.0
    header, *lines = m.to_csv_text().strip().split("\n")
    assert header == "row;col;re;im"
    assert all(len(line.split(";")) == 4 for line in lines)


def test_assemble_rejects_out_of_domain_windows():
    phi = elementary(2, 1)
    full = enumerate_window(2, 2, -2)
    with pytest.raises(DomainError):
        assemble(Toeplitz(phi), full, full)
    with pytest.raises(DomainError):
        assemble(DualToeplitz(phi), analytic_window(2, 2), analytic_window(2, 2))


def test_nonzero_witnesses_ordering():
    win = analytic_window(2, 3)
    m = assemble(Toeplitz(elementary(2, 1)), win, win)
    witnesses = m.nonzero_witnesses(3)
    assert len(witnesses) == 3
    q, p, v = witnesses[0]
    assert v == ComplexRational(1)
    assert m.entry_at(q, p) == v
