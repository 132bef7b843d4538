"""Symplectic characters, staircase partitions and the sum-rule product."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from openloop import (
    ConfluentPointError,
    ONE,
    Q,
    Scalar,
    SpectralPoint,
    character_auto,
    lambda_partition,
    s_character,
    symplectic_character,
    z_product,
)
from openloop.chars import check_char_recursion, mu_partition

from helpers import rational


def test_staircase_partitions():
    assert lambda_partition(0) == ()
    assert lambda_partition(1) == (0,)
    assert lambda_partition(2) == (0, 0)
    assert lambda_partition(3) == (1, 0, 0)
    assert lambda_partition(4) == (1, 1, 0, 0)
    assert lambda_partition(5) == (2, 1, 1, 0, 0)
    for n in range(1, 9):
        lam = lambda_partition(n)
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert lam[-1] == 0
    assert mu_partition(3) == (5, 3, 1)


def test_empty_and_trivial_characters():
    assert symplectic_character((), ()) == ONE
    # lambda = (0): character of the trivial weight is 1 at any point.
    assert symplectic_character((0,), [rational(4)]) == ONE


def test_rank_two_oracle():
    # chi_(1,0)(4, 9): frozen value of the vector character of C_2.
    value = symplectic_character((1, 0), [rational(4), rational(9)])
    assert value == Scalar.from_rational(Fraction(481, 36))


def test_vector_character_formula():
    # chi_(1,0,...,0)(x) = sum_i (x_i + 1/x_i): weights of the vector
    # representation.
    points = {
        2: [rational(2), rational(3)],
        3: [rational(2), rational(3), rational(5, 2)],
        4: [rational(2), rational(3), rational(5, 2), rational(7, 3)],
    }
    for n, xs in points.items():
        lam = (1,) + (0,) * (n - 1)
        expected = sum((x + x.inv() for x in xs), Scalar.zero())
        assert symplectic_character(lam, xs) == expected


def test_character_symmetries():
    lam = (2, 1, 0)
    xs = [rational(2), rational(3, 2), rational(5)]
    base = symplectic_character(lam, xs)
    assert symplectic_character(lam, [xs[1], xs[2], xs[0]]) == base
    assert symplectic_character(lam, [xs[0].inv(), xs[1], xs[2]]) == base


def test_confluent_point_detection_and_limit():
    lam = (1, 0, 0)
    ones = [ONE, ONE, ONE]
    with pytest.raises(ConfluentPointError):
        symplectic_character(lam, ones)
    # Weyl dimension of the C_3 vector representation.
    assert character_auto(lam, ones) == Scalar.from_rational(6)


def test_confluent_limit_matches_generic_specialisation():
    # chi at (x, x) is the limit of chi at (x, y) as y -> x; the t-power
    # substitution path must agree with the vector formula evaluated
    # directly.
    x = rational(3)
    value = character_auto((1, 0), [x, x])
    expected = (x + x.inv()) + (x + x.inv())
    assert value == expected
    # Mixed collision x_i x_j = 1.
    value = character_auto((1, 0), [x, x.inv()])
    assert value == expected


def test_s_character_degenerates_to_one():
    assert s_character([]) == ONE
    assert s_character([rational(7, 2)]) == ONE
    assert s_character([rational(2), rational(3)]) == ONE


def test_character_recursion_random_point():
    rng = Random(23)
    vals = [rational(rng.randint(2, 19), rng.randint(1, 7)) for _ in range(3)]
    zs = [vals[0], Q * vals[0], vals[1], vals[2]]
    assert check_char_recursion(zs, 1)
    zs = [vals[1], vals[0], Q * vals[0], vals[2]]
    assert check_char_recursion(zs, 2)
    with pytest.raises(ValueError):
        check_char_recursion([vals[0], vals[1]], 1)


def test_z_product_level_one():
    pt = SpectralPoint(
        z=(rational(5, 2),), zeta1=rational(2), zeta2=rational(3), w=rational(7, 3), s=ONE
    )
    zs = [pt.z[0]]
    expected = (
        s_character([pt.zeta1] + zs + [pt.zeta2])
        * s_character([pt.zeta1] + zs)
        * s_character(zs + [pt.zeta2])
        * s_character(zs)
    )
    assert z_product(pt) == expected
    assert not z_product(pt).is_zero()


def test_z_product_homogeneous_point_is_rational():
    pt = SpectralPoint(
        z=(ONE, ONE), zeta1=ONE, zeta2=ONE, w=rational(2), s=ONE
    )
    value = z_product(pt)
    assert value.is_rational()
    assert value.rational_value() > 0
    # S_4(1,1,1,1) S_3(1,1,1)^2 S_2(1,1) = 27 * 6 * 6 * 1.
    assert value == Scalar.from_rational(972)
