"""Micro-benchmarks for the two innermost layers: exact scalars and
antisymmetrization, on a fixed operand set drawn from the seed.

Each figure is the median over several timed rounds of the time per
operation, loop overhead included (it is the same on every commit).
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import symtoep as st

_OPERANDS = 512
_REPEATS = 7
_ROUNDS = 4


def _mul_all(pairs):
    for a, b in pairs:
        a * b


def _add_all(pairs):
    for a, b in pairs:
        a + b


def _antisymmetrize_all(tuples):
    antisymmetrize = st.antisymmetrize
    for t in tuples:
        antisymmetrize(t)


def _ns_per_item(loop, items) -> float:
    samples = []
    for _ in range(_REPEATS):
        start = perf_counter()
        for _ in range(_ROUNDS):
            loop(items)
        samples.append((perf_counter() - start) * 1e9 / (_ROUNDS * len(items)))
    return statistics.median(samples)


def _rational(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(-9 * den, 9 * den), den)


def run(seed: int) -> dict:
    """Per-op nanoseconds, as (value, unit) pairs keyed by metric name."""
    rng = random.Random(seed)
    cq = st.ComplexRational

    def gaussian():
        return cq(rng.randint(-9, 9), rng.randint(-9, 9))

    def rational():
        return cq(_rational(rng), _rational(rng))

    ints = [(gaussian(), gaussian()) for _ in range(_OPERANDS)]
    rats = [(rational(), rational()) for _ in range(_OPERANDS)]
    tuples = [tuple(rng.randint(-3, 8) for _ in range(rng.choice((3, 4))))
              for _ in range(_OPERANDS)]
    return {
        "scalars.mul_int_ns": (_ns_per_item(_mul_all, ints), "ns"),
        "scalars.add_int_ns": (_ns_per_item(_add_all, ints), "ns"),
        "scalars.mul_rat_ns": (_ns_per_item(_mul_all, rats), "ns"),
        "scalars.add_rat_ns": (_ns_per_item(_add_all, rats), "ns"),
        "partitions.antisymmetrize_ns": (_ns_per_item(_antisymmetrize_all, tuples), "ns"),
    }
