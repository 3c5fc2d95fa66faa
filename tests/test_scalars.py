"""Exact complex-rational scalar arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from symtoep import ComplexRational


def rand_scalar(rng: random.Random) -> ComplexRational:
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return ComplexRational(frac(), frac())


def test_construction_and_parts():
    z = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)
    assert ComplexRational(5).im == 0
    assert ComplexRational("2/3").re == Fraction(2, 3)


def test_from_strings_round_trip():
    z = ComplexRational.from_strings("-7/3", "11/6")
    re, im = z.rational_strings()
    assert (re, im) == ("-7/3", "11/6")
    assert ComplexRational.from_strings(re, im) == z


@pytest.mark.parametrize("a,b,s,p", [
    ((1, 0), (0, 1), (1, 1), (0, 1)),
    ((0, 1), (0, 1), (0, 2), (-1, 0)),          # i * i = -1
    ((2, 3), (2, -3), (4, 0), (13, 0)),          # z * conj(z) = |z|^2
])
def test_arithmetic_hand_values(a, b, s, p):
    x = ComplexRational(*a)
    y = ComplexRational(*b)
    assert x + y == ComplexRational(*s)
    assert x * y == ComplexRational(*p)


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(200):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == ComplexRational(0)
        assert x + (-x) == ComplexRational(0)


def test_matches_floating_complex():
    rng = random.Random(7)
    for _ in range(100):
        x, y = rand_scalar(rng), rand_scalar(rng)
        for exact, approx in [
            (x * y, x.to_complex() * y.to_complex()),
            (x + y, x.to_complex() + y.to_complex()),
            (x - y, x.to_complex() - y.to_complex()),
        ]:
            assert abs(exact.to_complex() - approx) < 1e-12


def test_conjugate_and_abs2():
    z = ComplexRational(Fraction(3, 5), Fraction(-4, 5))
    assert z.conjugate() == ComplexRational(Fraction(3, 5), Fraction(4, 5))
    assert (z * z.conjugate()).re == z.abs2()
    assert z.abs2() == Fraction(1)


def test_mixed_operands():
    z = ComplexRational(1, 1)
    assert z + 1 == ComplexRational(2, 1)
    assert 2 * z == ComplexRational(2, 2)
    assert z * Fraction(1, 2) == ComplexRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 - z == ComplexRational(0, -1)


def test_zero_predicate_and_bool():
    assert ComplexRational(0).is_zero()
    assert not ComplexRational(0, 1).is_zero()
    assert not bool(ComplexRational(0))
    assert bool(ComplexRational(Fraction(1, 7)))


def test_hashable_as_dict_key():
    table = {ComplexRational(1, 2): "a", ComplexRational(1, 3): "b"}
    assert table[ComplexRational(1, 2)] == "a"
    assert ComplexRational(2, 4) not in table


# -- differential test of the int lane -----------------------------------------
#
# ComplexRational keeps an integer-valued part as an int and any other part
# as a Fraction.  The reference below is the plain pair of Fractions; every
# operation must agree with it, and every result must keep that form.

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)

# a part as callers pass it: an int, an integer-valued Fraction such as
# Fraction(4, 2), or a rational that is not an integer
parts = hst.one_of(
    hst.integers(-10 ** 20, 10 ** 20),
    hst.builds(lambda n, k: Fraction(n * k, k), hst.integers(-50, 50), hst.integers(1, 9)),
    hst.fractions(max_denominator=12),
)
scalars = hst.builds(ComplexRational, parts, parts)
operands = hst.one_of(scalars, parts)


def _ref(x):
    """The reference pair (re, im) of Fractions for a scalar or a real part."""
    if isinstance(x, ComplexRational):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _in_lane(z) -> bool:
    """Both parts are ints when integer-valued and Fractions otherwise."""
    return all(type(x) is int if x.denominator == 1 else type(x) is Fraction
               for x in (z.re, z.im))


def _agrees(z, want) -> bool:
    return _in_lane(z) and (z.re, z.im) == want


@DIFFERENTIAL
@given(re=parts, im=parts)
def test_construction_normalizes_parts(re, im):
    z = ComplexRational(re, im)
    assert _agrees(z, (Fraction(re), Fraction(im)))
    assert _agrees(ComplexRational.from_strings(str(re), str(im)), _ref(z))


@DIFFERENTIAL
@given(x=scalars, y=operands)
def test_arithmetic_matches_fraction_pairs(x, y):
    a, b = _ref(x), _ref(y)
    neg_b = (-b[0], -b[1])
    assert _agrees(x + y, _ref_add(a, b))
    assert _agrees(y + x, _ref_add(a, b))
    assert _agrees(x - y, _ref_add(a, neg_b))
    assert _agrees(y - x, _ref_add(b, (-a[0], -a[1])))
    assert _agrees(x * y, _ref_mul(a, b))
    assert _agrees(y * x, _ref_mul(a, b))
    assert _agrees(-x, (-a[0], -a[1]))
    assert _agrees(x.conjugate(), (a[0], -a[1]))
    assert x.abs2() == a[0] * a[0] + a[1] * a[1]


@DIFFERENTIAL
@given(x=scalars, y=operands)
def test_comparison_and_serialization_match_fraction_pairs(x, y):
    a, b = _ref(x), _ref(y)
    assert (x == y) == (a == b)
    # hash equal to the Fraction pair's keeps every dict key as it was
    assert hash(x) == hash(a)
    assert bool(x) == (a != (0, 0))
    assert x.rational_strings() == (str(a[0]), str(a[1]))
    assert x.to_complex() == complex(a[0]) + 1j * complex(a[1])
