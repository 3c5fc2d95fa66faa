"""Strict-partition indices, antisymmetrization bookkeeping, and windows."""

import itertools
import random
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symtoep.partitions as partitions
from symtoep.partitions import orbit_size
from symtoep import (
    MarginError,
    Partition,
    analytic_window,
    antisymmetrize,
    dual_window,
    enumerate_window,
    orbit_permutations,
    shift,
)


def brute_sign(t):
    """Sort t by adjacent swaps, counting them; None if a repeat occurs."""
    seq = list(t)
    if len(set(seq)) != len(seq):
        return 0, None
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] < seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return (-1) ** swaps, tuple(seq)


@pytest.mark.parametrize("t,expected", [
    ((0, 1), (-1, (1, 0))),
    ((1, 0), (1, (1, 0))),
    ((1, 1), (0, None)),
    ((2, 0, 1), (-1, (2, 1, 0))),
    ((3, 1, 2, 0), (-1, (3, 2, 1, 0))),
])
def test_antisymmetrize_hand_cases(t, expected):
    sign, rep = antisymmetrize(t)
    want_sign, want_rep = expected
    assert sign == want_sign
    assert rep == (None if want_rep is None else Partition(want_rep))


def test_antisymmetrize_against_swap_count():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.choice([2, 3, 4])
        t = tuple(rng.randint(-4, 4) for _ in range(d))
        sign, rep = antisymmetrize(t)
        want_sign, want_rep = brute_sign(t)
        assert sign == want_sign
        assert rep == (None if want_rep is None else Partition(want_rep))


def test_partition_validation():
    assert Partition((3, 1, 0)) == (3, 1, 0)
    with pytest.raises(ValueError):
        Partition((1, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((5,))


def test_is_analytic():
    assert Partition((2, 0)).is_analytic
    assert not Partition((0, -1)).is_analytic
    assert not Partition((3, 1, -2)).is_analytic


def test_orbit_permutations():
    perms = orbit_permutations((1, 1, 0))
    assert perms == sorted(set(itertools.permutations((1, 1, 0))), reverse=True)
    assert len(orbit_permutations((2, 1, 0))) == 6
    assert len(orbit_permutations((1, 1, 1))) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.lists(st.integers(-2, 2), max_size=6).map(tuple))
def test_orbit_permutations_are_the_distinct_permutations_in_order(m):
    # torus_max sums lattice terms in this order, so it is part of the contract
    assert orbit_permutations(m) == sorted(set(itertools.permutations(m)), reverse=True)
    assert orbit_size(m) == len(orbit_permutations(m))


def test_orbit_permutations_skip_repeated_entries(monkeypatch):
    def permutations(*args):
        raise AssertionError("orbit_permutations went through every permutation")

    monkeypatch.setattr(itertools, "permutations", permutations)
    # 12 distinct orderings among 12! = 479001600 permutations
    perms = orbit_permutations((1,) + (0,) * 11)
    assert perms == [(0,) * k + (1,) + (0,) * (11 - k) for k in range(12)]
    assert orbit_size((1,) + (0,) * 11) == 12


def test_enumerate_window_hand_example():
    win = enumerate_window(2, 2, 0)
    assert [tuple(p) for p in win] == [(1, 0), (2, 0), (2, 1)]


def test_window_counts_match_binomial():
    # strictly decreasing d-tuples drawn from an interval of n integers
    for d in (2, 3, 4):
        for lo, hi in [(0, 5), (-3, 3), (-6, -1)]:
            win = enumerate_window(d, hi, lo)
            assert len(win) == comb(hi - lo + 1, d)


def test_window_membership_and_split():
    win = enumerate_window(2, 3, -3)
    analytic = win.analytic_part()
    rest = win.nonanalytic_part()
    assert len(analytic) + len(rest) == len(win)
    assert all(p.is_analytic for p in analytic)
    assert all(not p.is_analytic for p in rest)
    assert Partition((2, 1)) in win
    assert Partition((4, 1)) not in win


def test_analytic_and_dual_windows():
    a = analytic_window(3, 4)
    assert all(p.is_analytic for p in a)
    assert all(p[0] <= 4 for p in a)
    d = dual_window(3, 4, -4)
    assert all(not p.is_analytic for p in d)
    assert len(a) + len(dual_window(3, 4, 0)) == len(enumerate_window(3, 4, 0))


def test_empty_windows():
    assert len(enumerate_window(2, 0, 0)) == 0
    assert len(enumerate_window(3, 1, 0)) == 0
    assert len(analytic_window(2, 0)) == 0


def _no_enumeration(monkeypatch):
    def combinations(*args):
        raise AssertionError("enumerate_window enumerated a window over the cap")

    monkeypatch.setattr(partitions, "itertools", SimpleNamespace(combinations=combinations))


def test_window_cap_counts_before_enumerating(monkeypatch):
    _no_enumeration(monkeypatch)
    # about 5 * 10^9 and 4.2 * 10^10 members: never built
    with pytest.raises(MarginError, match="window cap"):
        analytic_window(2, 100000)
    with pytest.raises(MarginError, match="window cap"):
        enumerate_window(4, 1000, 0)


def test_window_cap_boundary(monkeypatch):
    monkeypatch.setattr(partitions, "MAX_WINDOW_ENTRIES", 3 * comb(10, 3))
    assert len(enumerate_window(3, 9, 0)) == comb(10, 3)
    with pytest.raises(MarginError, match="C\\(11, 3\\) = 165 members of 3 entries has 495"):
        enumerate_window(3, 10, 0)
    # a range below min_bottom holds no values, so the count is 0, not an error
    assert len(enumerate_window(3, -5, 0)) == 0


def test_shift_and_regrade_round_trip():
    p = Partition((3, 1))
    assert shift(p, 2) == Partition((5, 3))
    assert shift(p, -1) == Partition((2, 0))
    # p = base + r*(1,...,1) with r = p[-1], so base ends in 0
    r, base = p[-1], shift(p, -p[-1])
    assert (r, tuple(base)) == (1, (2, 0))
    assert shift(base, r) == p
    rng = random.Random(5)
    for _ in range(100):
        d = rng.choice([2, 3])
        vals = sorted(rng.sample(range(-8, 9), d), reverse=True)
        q = Partition(tuple(vals))
        r, base = q[-1], shift(q, -q[-1])
        assert base[-1] == 0
        assert shift(base, r) == q


def test_shift_along_prefix():
    p = Partition((5, 3, 0))
    assert shift(p, 2, 1) == Partition((7, 3, 0))
    assert shift(p, -1, 2) == Partition((4, 2, 0))
    assert shift(p, 1, 3) == shift(p, 1) == Partition((6, 4, 1))
    with pytest.raises(ValueError):
        shift(Partition((3, 1, 0)), -1, 2)  # (2, 0, 0) repeats an entry


def test_window_json_shape():
    win = enumerate_window(2, 2, 0)
    data = win.to_json_dict()
    assert data["members"] == [[1, 0], [2, 0], [2, 1]]
    assert data["d"] == 2
