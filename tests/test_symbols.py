"""Symmetric Laurent polynomial symbols: exact algebra and evaluation."""

import cmath
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symtoep import (
    ComplexRational,
    DomainError,
    MarginError,
    Symbol,
    elementary,
    multiply,
    unit,
    zero_symbol,
)
from symtoep.symbols import MAX_TERM_EVALUATIONS, torus_max
from conftest import symbol_battery


def rand_symbol(rng: random.Random, d: int) -> Symbol:
    reps = {
        2: [(0, 0), (1, 0), (1, 1), (2, 0), (1, -1), (0, -1)],
        3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, -1), (0, 0, -1)],
    }[d]
    coeffs = {}
    for m in rng.sample(reps, rng.randint(1, 4)):
        coeffs[m] = ComplexRational(rng.randint(-3, 3), rng.randint(-3, 3))
    return Symbol(d, coeffs)


def evaluate(phi: Symbol, z) -> complex:
    """phi at the torus point z, summed term by term over its lattice points."""
    return sum(c.to_complex() * math.prod(x ** e for x, e in zip(z, point))
               for point, c in phi.lattice_terms())


def rand_torus_point(rng: random.Random, d: int) -> tuple:
    return tuple(cmath.exp(2j * cmath.pi * rng.random()) for _ in range(d))


def test_validation_rejects_unordered_rep():
    with pytest.raises(DomainError):
        Symbol(2, {(0, 1): ComplexRational(1)})
    with pytest.raises(DomainError):
        Symbol(2, {(1, 0, 0): ComplexRational(1)})


def test_zero_coefficients_are_pruned():
    phi = Symbol(2, {(1, 0): ComplexRational(0), (2, 1): ComplexRational(2)})
    assert (1, 0) not in phi.coeffs
    assert phi.coefficient((2, 1)) == ComplexRational(2)
    assert phi.coefficient((1, 2)) == ComplexRational(2)  # orbit lookup
    assert phi.coefficient((1, 0)) == ComplexRational(0)


def test_elementary_and_unit_shapes():
    s1 = elementary(2, 1)
    assert dict(s1.coeffs) == {(1, 0): ComplexRational(1)}
    s2 = elementary(2, 2)
    assert dict(s2.coeffs) == {(1, 1): ComplexRational(1)}
    assert dict(unit(3).coeffs) == {(0, 0, 0): ComplexRational(1)}
    assert len(zero_symbol(2).coeffs) == 0
    assert zero_symbol(2).height() == 0


def test_multiply_hand_examples():
    s1 = elementary(2, 1)
    sq = s1 * s1
    assert dict(sq.coeffs) == {
        (1, 1): ComplexRational(2),
        (2, 0): ComplexRational(1),
    }
    mixed = s1 * s1.conjugate()
    assert dict(mixed.coeffs) == {
        (0, 0): ComplexRational(2),
        (1, -1): ComplexRational(1),
    }


def test_multiply_commutes_and_associates():
    rng = random.Random(31)
    for d in (2, 3):
        for _ in range(25):
            a, b, c = (rand_symbol(rng, d) for _ in range(3))
            assert (a * b).coeffs == (b * a).coeffs
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
            assert multiply(a, unit(d)).coeffs == a.coeffs


def test_combine_is_linear():
    a = elementary(2, 1) + elementary(2, 2)
    b = elementary(2, 2) + elementary(2, 1).conjugate()
    x, y = ComplexRational(2), ComplexRational(0, 1)
    combined = a.scaled(x) + b.scaled(y)
    zero = ComplexRational(0)
    assert combined.coeffs == {m: x * a.coeffs.get(m, zero) + y * b.coeffs.get(m, zero)
                               for m in a.coeffs.keys() | b.coeffs.keys()}
    z = (cmath.exp(0.7j), cmath.exp(-1.9j))
    assert evaluate(combined, z) == pytest.approx(2 * evaluate(a, z) + 1j * evaluate(b, z))


@pytest.mark.parametrize("combine", [operator.add, operator.mul])
def test_symbols_of_different_dimension_do_not_combine(combine):
    with pytest.raises(DomainError, match="symbol dimension mismatch"):
        combine(elementary(2, 1), elementary(3, 1))


def test_evaluate_is_multiplicative():
    rng = random.Random(99)
    for d in (2, 3):
        for _ in range(20):
            a, b = rand_symbol(rng, d), rand_symbol(rng, d)
            z = rand_torus_point(rng, d)
            lhs = evaluate(a * b, z)
            rhs = evaluate(a, z) * evaluate(b, z)
            assert abs(lhs - rhs) < 1e-9
            assert abs(evaluate(a + b, z) - evaluate(a, z) - evaluate(b, z)) < 1e-9


def test_evaluate_elementary_matches_sums_of_products():
    rng = random.Random(12)
    for d in (2, 3):
        for i in range(1, d + 1):
            z = rand_torus_point(rng, d)
            want = sum(
                np.prod(c) for c in itertools.combinations(z, i)
            )
            assert abs(evaluate(elementary(d, i), z) - want) < 1e-12


def test_evaluate_symmetric_under_coordinate_swap():
    rng = random.Random(4)
    for _ in range(20):
        phi = rand_symbol(rng, 2)
        z1, z2 = rand_torus_point(rng, 2)
        assert abs(evaluate(phi, (z1, z2)) - evaluate(phi, (z2, z1))) < 1e-12


def test_evaluate_conjugate():
    rng = random.Random(17)
    phi = rand_symbol(rng, 2)
    z = rand_torus_point(rng, 2)
    assert abs(evaluate(phi.conjugate(), z) - evaluate(phi, z).conjugate()) < 1e-12


def test_conjugate_involution_and_height():
    for d in (2, 3):
        for phi in symbol_battery(d):
            assert phi.conjugate().conjugate().coeffs == phi.coeffs
            assert phi.conjugate().height() == phi.height()
    assert elementary(2, 1).height() == 1
    assert (elementary(2, 1) * elementary(2, 2)).height() == 2


def test_is_analytic():
    s1 = elementary(2, 1)
    assert s1.is_analytic
    assert not s1.conjugate().is_analytic
    assert (s1 + s1.conjugate()).is_analytic is False
    assert unit(2).is_analytic


def test_sup_norm_monotone_on_doubling_chain():
    rng = random.Random(8)
    for _ in range(10):
        phi = rand_symbol(rng, 2)
        values = [phi.sup_norm_sampled(g)[0] for g in (8, 16, 32, 64)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


def test_sup_norm_hand_values():
    assert unit(2).sup_norm_sampled(16) == pytest.approx((1.0, 1.0), abs=1e-12)
    # |z1 + z2| peaks at 2 on the diagonal of the torus, a grid point
    sampled, upper = elementary(2, 1).sup_norm_sampled(64)
    assert sampled == pytest.approx(2.0, abs=1e-12) and upper == 2.0


def _full_grid_sup(terms, d: int, grid_size: int) -> float:
    """Max |f| over every point of the grid, f given by (lattice point, complex
    coefficient) terms summed in order, each product taken as factor * term."""
    axis = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    total = np.zeros(grids[0].shape, dtype=complex)
    for point, c in terms:
        term = np.full(total.shape, c)
        for g, e in zip(grids, point):
            if e:
                factor = g ** e
                term = np.multiply(factor, term)
        total += term
    return float(np.max(np.abs(total)))


def _terms(phi: Symbol) -> list:
    return [(point, c.to_complex()) for point, c in phi.lattice_terms()]


def _symbol_sup(phi: Symbol, grid_size: int) -> float:
    return _full_grid_sup(_terms(phi), phi.d, grid_size)


def _orbit_pass(phi: Symbol, grid_size: int) -> tuple:
    """(M, B): the orbit-pass maximum and its rounding bound."""
    return torus_max(_terms(phi), phi.d, grid_size)


@st.composite
def sampled_symbols(draw, height=3):
    d = draw(st.sampled_from([2, 3]))
    rep = st.lists(st.integers(-height, height), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))
    part = st.fractions(-9, 9, max_denominator=7)
    coeff = st.builds(ComplexRational, part, part)
    return Symbol(d, draw(st.dictionaries(rep, coeff, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phi=sampled_symbols(), grid_size=st.integers(3, 16))
def test_sup_norm_equals_the_full_grid_maximum(phi, grid_size):
    # within rounding: the orbit representatives reach the full-grid maximum
    # up to twice the rounding bound, and never exceed it
    sampled, bound = _orbit_pass(phi, grid_size)
    assert sampled <= _symbol_sup(phi, grid_size) <= sampled + 2 * bound
    assert phi.sup_norm_sampled(grid_size)[0] == sampled


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi=sampled_symbols(height=1), data=st.data())
def test_sup_upper_bounds_the_maximum_on_a_finer_grid(phi, data):
    # the maximum on a 4x finer grid, less its own rounding bound, is at most
    # sup |phi|, so at most the upper bound.  At these heights and grids the
    # grid form is below the l1 norm in about one example in eight.
    grid_size = data.draw(st.integers(24, 64) if phi.d == 2 else st.integers(12, 20))
    upper = phi.sup_norm_sampled(grid_size)[1]
    fine, bound = _orbit_pass(phi, 4 * grid_size)
    assert fine - bound <= upper
    assert upper <= sum(abs(c) for _, c in _terms(phi))


@pytest.mark.parametrize("phi,grid_size,sampled,full", [
    # z1^2/z2 + z2^2/z1 at grid 9: the sorted index pairs alone reach 2.0,
    # while one of their transposes rounds to the full-grid maximum
    (Symbol(2, {(2, -1): ComplexRational(1)}), 9, 2.0, 2.0000000000000004),
    # (-3/2 + 2i) z1 z2 at grid 3: |phi| = 5/2 everywhere, and the sorted
    # point whose transpose rounds highest rounds below the orbit maximum
    (Symbol(2, {(1, 1): ComplexRational.from_strings("-3/2", "2")}), 3, 2.5,
     2.5000000000000004),
    # z1 z2 z3 at grid 13 reads 1.0000000000000002 on the sorted points alone
    (Symbol(3, {(1, 1, 1): ComplexRational(1)}), 13, 1.0000000000000002, 1.0000000000000004),
], ids=["transpose-above-orbit-max", "candidate-below-orbit-max", "product-above-orbit-max"])
def test_sup_norm_certifies_the_orbit_maximum(phi, grid_size, sampled, full):
    # the orbit maximum reads below the full-grid maximum, within twice the
    # rounding bound; the upper bound is the l1 norm, the exact sup
    got, bound = _orbit_pass(phi, grid_size)
    assert (got, _symbol_sup(phi, grid_size)) == (sampled, full)
    assert sampled < full <= sampled + 2 * bound
    assert phi.sup_norm_sampled(grid_size) == (sampled, sum(abs(c) for _, c in _terms(phi)))


def _no_evaluation(monkeypatch):
    import symtoep.symbols as symbols

    def modulus_kernel(*args):
        raise AssertionError("torus_max evaluated points before counting them")

    monkeypatch.setattr(symbols, "_modulus_kernel", modulus_kernel)


def test_sup_norm_sampling_cap(monkeypatch):
    # the default lift grid of 128 fits the orbit pass of a d = 4 symbol of
    # 6 lattice terms, and not the whole 128^4 grid of a one-term symbol
    assert 6 * math.comb(128 + 3, 4) <= MAX_TERM_EVALUATIONS < 128 ** 4
    _no_evaluation(monkeypatch)
    # one grid step over the cap for the orbit pass of z1 + z2 (2 terms)
    grid = next(g for g in itertools.count(1) if 2 * math.comb(g + 1, 2) > MAX_TERM_EVALUATIONS)
    with pytest.raises(MarginError, match="sampling cap"):
        elementary(2, 1).sup_norm_sampled(grid)
    with pytest.raises(DomainError):
        elementary(2, 1).sup_norm_sampled(0)


def test_sampling_budget_counts_each_step_before_it_starts(monkeypatch):
    import symtoep.symbols as symbols

    phi = elementary(2, 1)  # z1 + z2: 2 terms, 136 orbit points at grid 16
    monkeypatch.setattr(symbols, "MAX_TERM_EVALUATIONS", 2 * 136)
    assert phi.sup_norm_sampled(16)[0] == _symbol_sup(phi, 16)
    evaluated = []
    kernel = symbols._modulus_kernel

    def counting_kernel(*args):
        modulus = kernel(*args)

        def counted(idx):
            evaluated.append(len(idx[0]))
            return modulus(idx)

        return counted

    monkeypatch.setattr(symbols, "_modulus_kernel", counting_kernel)
    monkeypatch.setattr(symbols, "MAX_TERM_EVALUATIONS", 2 * 136 - 1)
    with pytest.raises(MarginError, match="272 term evaluations.*sampling cap"):
        phi.sup_norm_sampled(16)
    assert evaluated == []
    # |z1 z2| = 1 is attained at every point, and still only the 136 orbit
    # points are evaluated, once each
    monkeypatch.setattr(symbols, "MAX_TERM_EVALUATIONS", 136)
    assert Symbol(2, {(1, 1): 1}).sup_norm_sampled(16)[1] == 1.0
    assert evaluated == [136]


def test_sup_norm_of_a_non_finite_symbol_is_domain_error():
    # z1^(10^30) is not a float; 10^308 (z1 + z2) overflows at z1 = z2 = 1
    with pytest.raises(DomainError, match="not finite"):
        Symbol(2, {(10 ** 30, 0): 1}).sup_norm_sampled(8)
    with pytest.raises(DomainError, match="not finite"):
        Symbol(2, {(1, 0): 10 ** 308}).sup_norm_sampled(8)


@st.composite
def small_symbols(draw):
    d = draw(st.integers(2, 4))
    rep = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(
        lambda m: tuple(sorted(m, reverse=True)))
    part = st.fractions(-9, 9, max_denominator=5)
    coeff = st.builds(ComplexRational, part, part)
    return Symbol(d, draw(st.dictionaries(rep, coeff, min_size=1, max_size=4)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(phi=small_symbols(), grid_size=st.integers(1, 9),
       chunk=st.sampled_from([1, 3, 8, 2 ** 14]))
@example(phi=Symbol(4, {(1, 1, 1, 1): ComplexRational(-3, 4)}), grid_size=9, chunk=8)
@example(phi=Symbol(3, {(2, 2, 2): 1}), grid_size=7, chunk=3)
def test_torus_max_streams_to_the_full_grid_maximum(phi, grid_size, chunk):
    # small chunks cross the chunk boundaries and read the one-chunk value,
    # within twice the rounding bound of the full-grid maximum.  The
    # examples have constant modulus, attained at every point.
    import symtoep.symbols as symbols

    sampled, bound = _orbit_pass(phi, grid_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbols, "_SAMPLE_CHUNK", chunk)
        assert _orbit_pass(phi, grid_size) == (sampled, bound)
    assert sampled <= _symbol_sup(phi, grid_size) <= sampled + 2 * bound


def test_orbit_chunks_list_the_sorted_multisets_in_colex_order():
    import symtoep.symbols as symbols

    for d in range(1, 5):
        for grid_size in range(1, 7):
            points = sorted(itertools.combinations_with_replacement(range(grid_size), d),
                            key=lambda p: p[::-1])
            for size in (1, 4, 64):
                streamed = [p for idx in symbols._orbit_chunks(grid_size, d, size)
                            for p in zip(*(a.tolist() for a in idx))]
                assert streamed == points, (d, grid_size, size)


@pytest.mark.parametrize("phi,limit_mb", [
    # the cli-suites d = 3 symbol shape: 12 lattice terms, 357,760 orbit points
    (Symbol(3, {(1, 0, 0): ComplexRational(2, -1), (1, 0, -1): ComplexRational(-1, 3),
                (0, 0, -1): ComplexRational(1, 1)}), 4),
    # the d = 4 lift golden symbol: 6 lattice terms, 11,716,640 orbit points
    (Symbol(4, {(2, 0, 0, 0): ComplexRational.from_strings("1", "1/2"),
                (0, 0, 0, 0): ComplexRational.from_strings("-1/3", "0"),
                (-1, -1, -1, -1): ComplexRational.from_strings("1/2", "-1")}), 16),
], ids=["d3", "d4"])
def test_sup_norm_sampling_memory_is_bounded(phi, limit_mb):
    # one float per orbit point would take 2.9 MB at d = 3 and 94 MB at d = 4
    import tracemalloc

    phi.lattice_terms()
    tracemalloc.start()
    try:
        phi.sup_norm_sampled(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2 ** 20


def _no_orbit_enumeration(monkeypatch):
    import symtoep.symbols as symbols

    def orbit_permutations(*args):
        raise AssertionError("lattice_terms enumerated an orbit expansion over the cap")

    monkeypatch.setattr(symbols, "orbit_permutations", orbit_permutations)


def test_lattice_cap_counts_before_enumerating(monkeypatch):
    _no_orbit_enumeration(monkeypatch)
    # 12! = 479001600 distinct points in one orbit: never built
    phi = Symbol(12, {tuple(range(11, -1, -1)): 1})
    with pytest.raises(MarginError, match="479001600 lattice points.*lattice cap"):
        phi.lattice_terms()


def test_lattice_cap_boundary(monkeypatch):
    import symtoep.symbols as symbols

    # the orbits of (2, 1, 0) and (1, 0, 0) hold 6 + 3 points
    phi = Symbol(3, {(2, 1, 0): 1, (1, 0, 0): 2})
    monkeypatch.setattr(symbols, "MAX_LATTICE_TERMS", 9)
    assert len(phi.lattice_terms()) == 9
    monkeypatch.setattr(symbols, "MAX_LATTICE_TERMS", 8)
    _no_orbit_enumeration(monkeypatch)
    with pytest.raises(MarginError, match="9 lattice points"):
        Symbol(3, {(2, 1, 0): 1, (1, 0, 0): 2}).lattice_terms()


def test_json_round_trip():
    rng = random.Random(23)
    for d in (2, 3):
        for _ in range(10):
            phi = rand_symbol(rng, d)
            again = Symbol.from_json_dict(phi.to_json_dict())
            assert again.coeffs == phi.coeffs
            assert again.d == phi.d


def test_json_rejects_malformed_input():
    with pytest.raises(DomainError):
        Symbol.from_json_dict({"d": 2, "terms": [{"m": [0, 1], "re": "1", "im": "0"}]})
    with pytest.raises(DomainError):
        Symbol.from_json_dict({"d": 2, "terms": [{"m": [1], "re": "1", "im": "0"}]})
    with pytest.raises(DomainError):
        Symbol.from_json_dict({"d": 2})


def test_json_accumulates_duplicate_terms():
    data = {"d": 2, "terms": [
        {"m": [1, 0], "re": "1", "im": "0"},
        {"m": [1, 0], "re": "1/2", "im": "0"},
    ]}
    phi = Symbol.from_json_dict(data)
    re, _ = phi.coefficient((1, 0)).rational_strings()
    assert re == "3/2"
