"""Strict-partition indexing for the antisymmetrized monomial basis.

Basis vectors of the antisymmetric model are indexed by strictly
decreasing integer d-tuples ("strict partitions", negative entries
allowed).  A tuple with a repeated entry indexes the zero vector; the
analytic subspace is spanned by tuples whose last entry is >= 0.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from operator import lt
from typing import Iterable, NamedTuple, Optional

from .errors import DomainError, require_budget

# Largest window enumerate_window builds, counted in members before any is
# made: about 40 MB of partitions and index at d = 3.  The largest window
# the tests, the CLI goldens and the benchmark workloads build is
# enumerate_window(3, 7, -7), 455 members, in a d = 3 lift_verify test.
MAX_WINDOW_MEMBERS = 2 ** 18
# Largest table of signed index permutations, d!, that the entry route
# builds and caches: about 7 MB at d = 8 (8! = 40,320), while d = 9 does
# not fit.  The largest d the tests reach on the entry route is 4, and the
# recovery benchmark workload's is 3.
MAX_INDEX_PERMUTATIONS = 2 ** 16


class Partition(tuple):
    """Strictly decreasing integer tuple, validated at construction."""

    def __new__(cls, entries: Iterable[int]):
        t = tuple.__new__(cls, entries)
        for i in range(len(t) - 1):
            if t[i] <= t[i + 1]:
                raise DomainError(f"not strictly decreasing: {tuple(t)}")
        if len(t) < 2:
            raise DomainError("partition needs d >= 2 entries")
        return t

    # internal fast path, Partition._unsafe(entries): the caller guarantees
    # strict decrease, and tuple.__new__ builds the tuple with no check
    _unsafe = classmethod(tuple.__new__)

    @property
    def d(self) -> int:
        return len(self)

    @property
    def is_analytic(self) -> bool:
        return self[-1] >= 0


class SignedPartition(NamedTuple):
    sign: int
    partition: Optional[Partition]


_tuple_new = tuple.__new__
_VANISHES = _tuple_new(SignedPartition, (0, None))  # any tuple with a repeated entry


def antisymmetrize(t: Iterable[int]) -> SignedPartition:
    """Sort a tuple into a strict partition, tracking the permutation sign.

    Returns (0, None) when two entries coincide (the indexed vector is 0),
    else (+/-1, sorted partition).
    """
    t = tuple(t)
    srt = sorted(t, reverse=True)
    if len(set(srt)) < len(srt):
        return _VANISHES
    # the sign is the parity of the pairs that stand in increasing order
    inversions = sum(itertools.starmap(lt, itertools.combinations(t, 2)))
    return _tuple_new(SignedPartition, (-1 if inversions & 1 else 1, Partition._unsafe(srt)))


def orbit_size(m: Iterable[int]) -> int:
    """Number of distinct permutations of a tuple: d! / prod(mult!)."""
    m = tuple(m)
    total = math.factorial(len(m))
    for count in Counter(m).values():
        total //= math.factorial(count)
    return total


def orbit_permutations(m: Iterable[int]) -> list[tuple[int, ...]]:
    """Distinct permutations of a tuple, in descending lexicographic order.

    Each is made once, by stepping to the previous permutation in
    lexicographic order from the descending sort, so repeated entries
    cost nothing.
    """
    a = sorted(m, reverse=True)
    n = len(a)
    out = [tuple(a)]
    while True:
        k = n - 2
        while k >= 0 and a[k] <= a[k + 1]:
            k -= 1
        if k < 0:
            return out
        j = n - 1
        while a[j] >= a[k]:
            j -= 1
        a[k], a[j] = a[j], a[k]
        a[k + 1:] = a[:k:-1]
        out.append(tuple(a))


@lru_cache(maxsize=None)
def signed_index_permutations(d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All index permutations of range(d) with their signs.

    More than MAX_INDEX_PERMUTATIONS of them raises MarginError before any
    is built.
    """
    count = math.factorial(d)
    require_budget(count, MAX_INDEX_PERMUTATIONS, "permutation",
                   f"the entry route at d = {d} walks {d}! = {count} signed permutations",
                   "read columns instead, or use a smaller d")
    out = []
    for perm in itertools.permutations(range(d)):
        inv = sum(
            1
            for i in range(d - 1)
            for j in range(i + 1, d)
            if perm[i] > perm[j]
        )
        out.append((perm, -1 if inv & 1 else 1))
    return tuple(out)


def shift(p: Partition, j: int, a: Optional[int] = None) -> Partition:
    """p + j*f_a, where f_a = (1,...,1,0,...,0) has a ones (default a = d).

    The diagonal step f_d is multiplication by the j-th power of the top
    degree.  Raising a prefix keeps the entries strictly decreasing; a
    negative j on a proper prefix is validated and may raise DomainError.
    """
    d = len(p)
    a = d if a is None else a
    moved = tuple(x + j for x in p[:a]) + p[a:]
    return Partition._unsafe(moved) if j >= 0 or a == d else Partition(moved)


def regrade(p: Partition) -> tuple[int, Partition]:
    """Split p as (r, base) with base = p - r*(1,...,1) ending in 0."""
    r = p[-1]
    return r, shift(p, -r)


class Window:
    """Finite, graded-lexicographically ordered set of strict partitions.

    Ordered by top entry, ties broken lexicographically (plain tuple
    order, since the top entry is compared first anyway).
    """

    def __init__(self, d: int, max_top: int, min_bottom: int, members: Iterable[Partition]):
        if d < 2:
            raise DomainError("windows need d >= 2")
        self.d = d
        self.max_top = max_top
        self.min_bottom = min_bottom
        self.members: tuple[Partition, ...] = tuple(sorted(members))
        self.position = {p: i for i, p in enumerate(self.members)}

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, p):
        return p in self.position

    def __eq__(self, other):
        return isinstance(other, Window) and self.members == other.members

    def __repr__(self):
        return (
            f"Window(d={self.d}, max_top={self.max_top}, "
            f"min_bottom={self.min_bottom}, size={len(self.members)})"
        )

    def shifted(self, j: int, a: Optional[int] = None) -> "Window":
        """The window moved by j*f_a (see shift); each member keeps its position."""
        a = self.d if a is None else a
        return Window(self.d, self.max_top + j, self.min_bottom + (j if a == self.d else 0),
                      [shift(p, j, a) for p in self.members])

    def analytic_part(self) -> "Window":
        return Window(self.d, self.max_top, self.min_bottom,
                      [p for p in self.members if p.is_analytic])

    def nonanalytic_part(self) -> "Window":
        return Window(self.d, self.max_top, self.min_bottom,
                      [p for p in self.members if not p.is_analytic])

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "maxTop": self.max_top,
            "minBottom": self.min_bottom,
            "members": [list(p) for p in self.members],
        }


def enumerate_window(d: int, max_top: int, min_bottom: int) -> Window:
    """All strict partitions with entries in [min_bottom, max_top].

    A range narrower than d values yields an empty window.  A window of
    more than MAX_WINDOW_MEMBERS members raises MarginError before any
    member is built.
    """
    if d < 2:
        raise DomainError("windows need d >= 2")
    n = max(0, max_top - min_bottom + 1)  # len(range) overflows past 2^63
    # C(n, d) >= 2^min(d, n - d): past 64 the count is over any cap without
    # computing it, which for math.comb(2**32, 2**31) would take minutes
    if min(d, n - d) > 64:
        require_budget(2 ** 64, MAX_WINDOW_MEMBERS, "window",
                       f"a window of C({n}, {d}) > 2^64 members", "use a narrower window")
    size = math.comb(n, d)
    require_budget(size, MAX_WINDOW_MEMBERS, "window",
                   f"a window of C({n}, {d}) = {size} members",
                   "use a narrower window")
    # combinations() allocates its d indices even when d > n
    members = [
        Partition._unsafe(tuple(sorted(c, reverse=True)))
        for c in itertools.combinations(range(min_bottom, max_top + 1), d)
    ] if size else []
    return Window(d, max_top, min_bottom, members)


def analytic_window(d: int, max_top: int) -> Window:
    """Analytic-side window: entries in [0, max_top]."""
    return enumerate_window(d, max_top, 0)


def dual_window(d: int, max_top: int, min_bottom: int) -> Window:
    """Non-analytic members (last entry < 0) of the bounded window."""
    return enumerate_window(d, max_top, min_bottom).nonanalytic_part()
