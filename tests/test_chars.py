"""Symplectic characters, staircase partitions and the sum-rule product."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from openloop import (
    NonGenericPointError,
    ONE,
    Q,
    Scalar,
    SpectralPoint,
    ZETA,
    character_auto,
    lambda_partition,
    s_character,
    symplectic_character,
    z_product,
)
from openloop.chars import PART_CAP, check_char_recursion
from openloop.exactla import laurent_fit
from openloop.groundstate import generic_parameters

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


def test_odd_staircase_identities():
    # mu(L)_j = 2L + 1 - 2j is lambda(L) + 2 lambda(L+1) + lambda(L+2),
    # and |mu(L)| = L^2.
    for n in range(9):
        mu = tuple(2 * n + 1 - 2 * j for j in range(1, n + 1))
        lam0, lam1, lam2 = (lambda_partition(n + k)[:n] for k in range(3))
        assert mu == tuple(a + 2 * b + c for a, b, c in zip(lam0, lam1, lam2))
        assert sum(mu) == n * n


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
    with pytest.raises(NonGenericPointError, match="character arguments collide"):
        symplectic_character(lam, ones)
    # Weyl dimension of the C_3 vector representation.
    assert character_auto(lam, ones) == Scalar.from_rational(6)


def test_confluent_limit_matches_generic_specialisation():
    # chi at (x, x) is the limit of chi at (x, y) as y -> x; the
    # confluent evaluation must agree with the vector formula evaluated
    # directly.
    x = rational(3)
    value = character_auto((1, 0), [x, x])
    expected = (x + x.inv()) + (x + x.inv())
    assert value == expected
    # Mixed collision x_i x_j = 1.
    value = character_auto((1, 0), [x, x.inv()])
    assert value == expected


# Partitions per rank: staircases, non-staircase shapes and l(lam) = n.
PARTITIONS = {
    1: [(0,), (1,), (4,)],
    2: [(1, 0), (2, 2), (3, 1)],
    3: [(1, 0, 0), (2, 1, 1), (3, 1, 0), (1, 1, 1)],
    4: [(1, 1, 0, 0), (3, 2, 0, 0), (2, 2, 1, 1)],
    5: [(2, 1, 1, 0, 0), (3, 1, 0, 0, 0), (1, 1, 1, 1, 1)],
    6: [(2, 2, 1, 1, 0, 0), (2, 1, 1, 1, 1, 1)],
    7: [(3, 2, 2, 1, 1, 0, 0), (1,) * 7],
}


def _weyl_dimension(lam, n):
    # dim of the sp(2n) irrep: prod over positive roots of <lam + rho, a> / <rho, a>,
    # with rho = (n, n-1, .., 1).
    parts = tuple(lam) + (0,) * (n - len(lam))
    ell = [a + n - i for i, a in enumerate(parts)]
    rho = [n - i for i in range(n)]
    dim = Fraction(1)
    for i in range(n):
        dim *= Fraction(ell[i], rho[i])
        for j in range(i + 1, n):
            dim *= Fraction((ell[i] - ell[j]) * (ell[i] + ell[j]),
                            (rho[i] - rho[j]) * (rho[i] + rho[j]))
    assert dim.denominator == 1
    return dim.numerator


def test_koike_terada_matches_weyl_ratio_at_generic_points():
    rng = Random(31)
    for n in range(1, 7):
        for lam in PARTITIONS[n]:
            xs = generic_parameters(rng, n)
            assert character_auto(lam, xs) == symplectic_character(lam, xs), (lam, xs)


def test_all_ones_and_all_minus_ones_give_the_weyl_dimension():
    for n in range(1, 8):
        for lam in PARTITIONS[n] + [lambda_partition(n)]:
            dim = Scalar.from_rational(_weyl_dimension(lam, n))
            assert character_auto(lam, [ONE] * n) == dim, lam
            sign = ONE if sum(lam) % 2 == 0 else -ONE
            assert character_auto(lam, [-ONE] * n) == sign * dim, lam


def _limit_in_first_argument(lam, xs):
    # chi_lam is a Laurent polynomial in x_1 with support in [-lam_1, lam_1]:
    # fit it from the Weyl ratio at generic x_1, check a holdout, and
    # evaluate it at x_1 = xs[0].
    width = 2 * lam[0] + 1
    rest = list(xs[1:])
    avoid = [x.rational_value() for x in rest if x.is_rational()]
    samples = generic_parameters(Random(5), width + 1, avoid=avoid)
    values = [symplectic_character(lam, [y] + rest) for y in samples]
    (poly,) = laurent_fit(samples[:width], [values[:width]], -lam[0], lam[0])
    assert poly.eval_at(samples[width]) == values[width]
    return poly.eval_at(xs[0])


def test_mixed_collisions_next_to_generic_arguments():
    g = generic_parameters(Random(41), 3)
    x = rational(7, 2)
    cases = [
        [x, x.inv(), g[0]],  # inverse pair
        [ONE, g[0], g[1]],  # x^2 = 1
        [-ONE, g[0], g[1], g[2]],
        [ZETA, ZETA, g[0]],  # repeated root of unity
        [ZETA, g[0], ZETA, g[1]],
    ]
    for xs in cases:
        for lam in [(1,) + (0,) * (len(xs) - 1), (2, 1) + (0,) * (len(xs) - 2), (2,) * len(xs)]:
            assert character_auto(lam, xs) == _limit_in_first_argument(lam, xs), (lam, xs)


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


def test_both_evaluators_refuse_a_part_beyond_the_cap():
    xs = [rational(2), rational(3)]
    for evaluate in (character_auto, symplectic_character):
        with pytest.raises(ValueError, match="PART_CAP"):
            evaluate([PART_CAP + 1, 1], xs)


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
