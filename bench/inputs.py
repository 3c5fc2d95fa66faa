"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same symbols, oracles, points, tuples and files.  The library receives
only the objects and files built here; the random choices are made with
``random.Random`` and numpy generators owned by this module, never by
library code.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

import symtoep as st


def symbol_battery(d: int) -> list:
    """Unit, s_1..s_d, their conjugates, all pairwise products of those 2d
    generators (with repetition), and s_1 + conj(s_1).

    16 symbols for d=2, 29 for d=3, 46 for d=4 (the recipe of the test
    suite's battery, rebuilt here so the benchmark does not import tests).
    """
    gens = [st.elementary(d, i) for i in range(1, d + 1)]
    gens = gens + [g.conjugate() for g in gens]
    out = [st.unit(d)] + list(gens)
    for a, b in itertools.combinations_with_replacement(gens, 2):
        out.append(a * b)
    out.append(st.elementary(d, 1) + st.elementary(d, 1).conjugate())
    return out


def orbit_size(rep) -> int:
    """Number of distinct permutations of an orbit representative."""
    total = math.factorial(len(rep))
    for _, group in itertools.groupby(rep):
        total //= math.factorial(len(list(group)))
    return total


def _reps(d: int, lo: int, hi: int) -> list:
    """Weakly decreasing d-tuples with entries in [lo, hi]."""
    return list(itertools.combinations_with_replacement(range(hi, lo - 1, -1), d))


def _gaussian(rng: random.Random) -> tuple:
    while True:
        re, im = rng.randint(-2, 2), rng.randint(-2, 2)
        if re or im:
            return Fraction(re), Fraction(im)


def _non_integer_rational(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    while True:
        num = rng.randint(-3 * den, 3 * den)
        if num % den:
            return Fraction(num, den)


def symbol_on(rng: random.Random, d: int, support, rational: bool = False):
    """Symbol with a seeded coefficient on each orbit representative of support.

    Gaussian-integer coefficients have |re|, |im| <= 2; rational ones have
    non-integer real and imaginary parts with denominators 2..12.
    """
    coeffs = {}
    for m in support:
        if rational:
            re, im = _non_integer_rational(rng), _non_integer_rational(rng)
        else:
            re, im = _gaussian(rng)
        coeffs[tuple(m)] = st.ComplexRational(re, im)
    return st.Symbol(d, coeffs)


def random_support(rng: random.Random, d: int, height: int, terms: int,
                   analytic: bool = False) -> list:
    """``terms`` random orbit representatives of exact height ``height``.

    One term always sits at full height, so margins derived from the
    height do not drift.  An analytic support has every exponent >= 0 and
    a term with top exponent ``height``; otherwise a term with last
    exponent ``-height`` makes the symbol non-analytic.
    """
    pool = _reps(d, 0 if analytic else -height, height)
    tall = [m for m in pool if (m[0] == height if analytic else m[-1] == -height)]
    chosen = [rng.choice(tall)]
    rest = [m for m in pool if m != chosen[0]]
    return chosen + rng.sample(rest, terms - 1)


def rank_one_perturbation(shape_rng: random.Random, rng: random.Random,
                          d: int, degree_bound: int):
    """FiniteRank c e_q <., e_p> with (q, p) inside the recovery guard window.

    recover_symbol checks the window analytic_window(d, bound + d), so a
    rank-one term there breaks the top-degree Brown-Halmos relation on it.
    How soon the check rejects it depends on (q, p), which shape_rng picks;
    rng picks c.
    """
    members = list(st.analytic_window(d, degree_bound + d))
    q, p = shape_rng.choice(members), shape_rng.choice(members)
    re, im = _gaussian(rng)
    return st.FiniteRank(d, [(q, p, st.ComplexRational(re, im))])


# -- floating-point lane ---------------------------------------------------------


def elementary_values(zs) -> tuple:
    """(s_1, ..., s_d) of the coordinates zs, from prod (z - z_k)."""
    coeffs = np.poly(np.asarray(zs, dtype=complex))
    return tuple((-1) ** k * complex(coeffs[k]) for k in range(1, len(zs) + 1))


def gamma_points(gen: np.random.Generator, d: int, count: int) -> tuple:
    """Symmetrized interior points and points with one coordinate at modulus 1.1.

    Interior coordinates have modulus <= 0.95, well inside the tolerance of
    the root finder; the moved coordinate puts the largest root at 1.1.
    """
    inside, outside = [], []
    for _ in range(count):
        zs = 0.95 * np.sqrt(gen.random(d)) * np.exp(2j * np.pi * gen.random(d))
        inside.append(elementary_values(zs))
        zs = 0.95 * np.sqrt(gen.random(d)) * np.exp(2j * np.pi * gen.random(d))
        zs[gen.integers(0, d)] = 1.1 * np.exp(2j * np.pi * gen.random())
        outside.append(elementary_values(zs))
    return inside, outside


def point_text(point) -> str:
    """CLI --point text that parses back to exactly the same complex values."""
    return ",".join(repr(complex(z)) for z in point)


def gamma_unitary_mats(gen: np.random.Generator, d: int, n: int) -> list:
    """(R_1, ..., R_{d-1}, U) from d commuting n x n unitaries.

    The unitaries share a random eigenbasis (QR of a complex Gaussian
    matrix) and have random unimodular eigenvalues; R_i sums the products
    over i-element subsets and U is the full product.
    """
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    us = [q @ np.diag(np.exp(2j * np.pi * gen.random(n))) @ q.conj().T
          for _ in range(d)]
    eye = np.eye(n, dtype=complex)
    mats = []
    for i in range(1, d):
        acc = np.zeros((n, n), dtype=complex)
        for subset in itertools.combinations(range(d), i):
            prod = eye
            for k in subset:
                prod = prod @ us[k]
            acc = acc + prod
        mats.append(acc)
    full = eye
    for u in us:
        full = full @ u
    mats.append(full)
    return mats


# -- files for the command-line workload ------------------------------------------


def write_symbol(directory: str, name: str, phi) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(phi.to_json_dict(), handle)
    return path


def write_tuple(directory: str, name: str, d: int, mats) -> str:
    data = {"d": d, "mats": [[[[z.real, z.imag] for z in row] for row in m]
                             for m in mats]}
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path
