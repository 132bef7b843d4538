"""Exact linear algebra: determinants, kernels, the p-adic fixed vector,
Laurent interpolation."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from openloop import (
    IMAG,
    ONE,
    ZERO,
    ZETA,
    NonGenericPointError,
    Scalar,
    SparseOperator,
    reduction,
    transfer_matrix,
)
from openloop import exactla
from openloop.exactla import (
    PRIMES,
    LaurentPoly,
    det,
    fixed_vector,
    kernel_basis,
    laurent_fit,
    newton_interpolate,
)

from helpers import draw_point, rational


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


def _kernel_oracle(tmat: SparseOperator) -> list[Scalar]:
    rows = tmat.to_rows()
    for i in range(tmat.dim):
        rows[i][i] = rows[i][i] - ONE
    (vec,) = kernel_basis(rows, tmat.dim)
    return vec


def _fixing(minus_one) -> SparseOperator:
    """T = 1 + minus_one, for a small hand-built T - 1."""
    n = len(minus_one)
    return SparseOperator(
        n,
        [{i: minus_one[i][j] + (ONE if i == j else ZERO) for i in range(n)} for j in range(n)],
    )


def _has_odd_powers(tmat: SparseOperator) -> bool:
    return any(
        nums[1] or nums[3]
        for col in tmat.cols
        for nums, _ in (x.as_integers() for x in col.values())
    )


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_fixed_vector_matches_the_exact_kernel(length):
    pt = draw_point(Random(700 + length), length)
    # zeta_1 = 2 + zeta puts odd powers of zeta into T, so the lifting
    # runs in all four embeddings; rational points, s = i and zeta_1 =
    # 2 zeta keep T in Q(zeta^2), where it runs in two.
    odd = replace(pt, zeta1=rational(2) + ZETA)
    assert _has_odd_powers(transfer_matrix(odd))
    points = {
        "rational": pt,
        "zeta1 = 2 + zeta": odd,
        "zeta1 = 2 zeta": replace(pt, zeta1=ZETA * 2),
        "s = i": replace(pt, s=IMAG),
    }
    for name, point in points.items():
        tmat = transfer_matrix(point)
        assert fixed_vector(tmat) == _kernel_oracle(tmat), name


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_fixed_vector_matches_the_exact_kernel_at_specialisations(length):
    pt = draw_point(Random(720 + length), length)
    for i in range(length + 1):
        specialised, _, _ = reduction(pt, i)
        tmat = transfer_matrix(specialised)
        assert fixed_vector(tmat) == _kernel_oracle(tmat), i


def test_fixed_vector_skips_a_prime_dividing_a_pivot(monkeypatch):
    # Rank 2 with fixed vector (1, 1, 1), but mod PRIMES[0] the first
    # pivot vanishes and the rank drops to 1.
    p = rational(PRIMES[0])
    tmat = _fixing([[p, ZERO, -p], [ZERO, ONE, -ONE], [ZERO, ZERO, ZERO]])
    calls = []

    def spy(rows, ncols):
        calls.append(ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(exactla, "kernel_basis", spy)
    assert fixed_vector(tmat) == [ONE, ONE, ONE]
    assert calls == []  # lifted from PRIMES[1]
    monkeypatch.setattr(exactla, "PRIMES", PRIMES[:1])
    assert fixed_vector(tmat) == [ONE, ONE, ONE]
    assert calls == [3]  # with PRIMES[0] alone the exact kernel decides


def test_fixed_vector_falls_back_to_the_exact_kernel_when_every_prime_fails():
    # The identity fixes a plane: T - 1 has rank 0 mod every prime, and
    # the exact kernel reports the dimension.
    with pytest.raises(NonGenericPointError, match="dimension 2, expected 1"):
        fixed_vector(SparseOperator.identity(2))
    # An invertible T - 1 has full rank mod every prime.
    with pytest.raises(NonGenericPointError, match="dimension 0, expected 1"):
        fixed_vector(_fixing([[ONE, ZERO], [ZERO, rational(2)]]))
    # A line, but T - 1 vanishes mod every prime of PRIMES.
    m = rational(PRIMES[0] * PRIMES[1] * PRIMES[2])
    assert fixed_vector(_fixing([[m, -m], [ZERO, ZERO]])) == [ONE, ONE]


def test_fixed_vector_scales_its_last_nonzero_entry_to_one():
    # Fixed vector (-2, 1, 0): the last nonzero entry is 1, not the last.
    tmat = _fixing([
        [ONE, rational(2), ZERO],
        [ZERO, ZERO, ONE],
        [rational(3), rational(6), rational(4)],
    ])
    assert fixed_vector(tmat) == [-rational(2), ONE, ZERO] == _kernel_oracle(tmat)
    # Fixed vector (1, p): mod p the free column is the first one, but the
    # last nonzero entry over Q is the second.
    p = rational(PRIMES[0])
    tmat = _fixing([[p, -ONE], [ZERO, ZERO]])
    assert fixed_vector(tmat) == [p.inv(), ONE] == _kernel_oracle(tmat)


def test_laurent_poly_arithmetic():
    t = LaurentPoly.monomial(1)
    p = t * t - LaurentPoly.from_scalar(ONE)
    assert p.support() == [0, 2]
    assert p.coeff(0) == -ONE and p.coeff(2) == ONE
    assert p.eval_at(Scalar.from_rational(3)) == Scalar.from_rational(8)
    assert p.eval_at(ONE).is_zero()
    assert (p - p).is_zero()
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
