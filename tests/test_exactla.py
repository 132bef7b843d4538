"""Exact linear algebra: determinants, kernels, Laurent interpolation."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from openloop import IMAG, ONE, ZERO, ZETA, Scalar
from openloop.exactla import LaurentPoly, det, kernel_basis, laurent_fit, newton_interpolate


def _rand_scalar(rng: Random) -> Scalar:
    return Scalar([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])


def test_det_small_oracles():
    two = Scalar.from_rational(2)
    three = Scalar.from_rational(3)
    assert det([]) == ONE
    assert det([[two]]) == two
    assert det([[ONE, two], [three, ONE]]) == ONE - two * three
    # Repeated row.
    assert det([[ONE, two], [ONE, two]]).is_zero()
    # Permutation matrix with one swap has determinant -1.
    assert det([[ZERO, ONE], [ONE, ZERO]]) == -ONE


def test_det_multiplicative():
    rng = Random(3)
    n = 3
    a = [[_rand_scalar(rng) for _ in range(n)] for _ in range(n)]
    b = [[_rand_scalar(rng) for _ in range(n)] for _ in range(n)]
    ab = [
        [sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]
    assert det(ab) == det(a) * det(b)


def test_kernel_of_full_rank_matrix_is_empty():
    assert kernel_basis([[ONE, ZERO], [ZERO, ONE]], 2) == []


def test_kernel_known_relation():
    # Row space {(1, 1, 1)} has kernel spanned by (1, -1, 0), (1, 0, -1).
    basis = kernel_basis([[ONE, ONE, ONE]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v, ZERO).is_zero()


def test_kernel_vectors_annihilate_rows():
    rng = Random(5)
    nrows, ncols = 3, 5
    rows = [[_rand_scalar(rng) for _ in range(ncols)] for _ in range(nrows)]
    basis = kernel_basis(rows, ncols)
    assert len(basis) >= ncols - nrows
    for v in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), ZERO).is_zero()


def test_laurent_poly_arithmetic():
    t = LaurentPoly.monomial(1)
    p = t * t - LaurentPoly.from_scalar(ONE)
    assert p.support() == [0, 2]
    assert p.coeff(0) == -ONE and p.coeff(2) == ONE
    assert p.eval_at(Scalar.from_rational(3)) == Scalar.from_rational(8)
    assert p.eval_at(ONE).is_zero()
    assert (p - p).is_zero()
    q = p.scale(Scalar.from_rational(2))
    assert q.coeff(2) == Scalar.from_rational(2)
    assert p.min_exp == 0 and p.max_exp == 2


def test_newton_interpolation_recovers_polynomial():
    rng = Random(9)
    target = LaurentPoly({0: _rand_scalar(rng), 1: _rand_scalar(rng), 3: ONE})
    xs = [Scalar.from_rational(k) for k in (1, 2, 3, 5)]
    ys = [target.eval_at(x) for x in xs]
    assert newton_interpolate(xs, ys) == target


def test_laurent_fit_with_negative_exponents():
    target = LaurentPoly({-2: ZETA, 0: ONE, 1: IMAG})
    xs = [Scalar.from_rational(Fraction(k, 2)) for k in (2, 3, 5, 7)]
    ys = [target.eval_at(x) for x in xs]
    fitted = laurent_fit(xs, ys, -2, 1)
    assert fitted == target
    holdout = Scalar.from_rational(Fraction(11, 3))
    assert fitted.eval_at(holdout) == target.eval_at(holdout)


def test_laurent_fit_requires_exact_sample_count():
    xs = [Scalar.from_rational(k) for k in (1, 2)]
    with pytest.raises(ValueError):
        laurent_fit(xs, [ONE, ONE], -2, 1)
