"""Exact linear algebra: determinants, kernels, the p-adic fixed vector,
Laurent interpolation."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations
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


def _leibniz(m) -> Scalar:
    n = len(m)
    total = ZERO
    for perm in permutations(range(n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_the_leibniz_expansion(n):
    rng = Random(40 + n)
    for _ in range(3):
        m = [
            [ZERO if rng.random() < 0.3 else _rand_scalar(rng) for _ in range(n)]
            for _ in range(n)
        ]
        col = rng.randrange(n)
        variants = {
            "random": m,
            "repeated row": m[:-1] + [m[0]],
            "zero column": [[ZERO if j == col else x for j, x in enumerate(r)] for r in m],
        }
        for name, rows in variants.items():
            # Shuffled, then rows with a zero first entry on top, so that
            # the first pivot comes from a swapped row.
            rows = rng.sample(rows, n)
            rows.sort(key=lambda r: not r[0].is_zero())
            value = det(rows)
            assert value == _leibniz(rows), name
            # det and kernel_basis share one elimination: singular exactly
            # when the kernel is nontrivial.
            assert value.is_zero() == bool(kernel_basis(rows, n)), name


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


def _scalar_apply(tmat: SparseOperator, vec: list[Scalar]) -> list[Scalar]:
    """Reference T v in Scalar arithmetic, independent of `SparseOperator.apply`."""
    return [sum((v * x for v, x in zip(row, vec)), ZERO) for row in tmat.to_rows()]


@pytest.mark.parametrize("odd", [False, True])
def test_integer_certificate_is_t_v_equals_v(odd):
    # `_lift` accepts a reconstruction v only if tmat.apply(v) == v, which
    # runs in Z[zeta] integers.  A rational point keeps T in Q(zeta^2)
    # (d = 2); zeta_1 = 2 + zeta puts odd powers of zeta into T (d = 4).
    pt = draw_point(Random(740), 4)
    if odd:
        pt = replace(pt, zeta1=rational(2) + ZETA)
    tmat = transfer_matrix(pt)
    assert _has_odd_powers(tmat) == odd
    vec = fixed_vector(tmat)
    assert tmat.apply(vec) == vec == _scalar_apply(tmat, vec)
    # Each copy with one entry moved by 1 or by zeta is no fixed vector,
    # by the certificate and by the Scalar reference alike.
    for j in range(tmat.dim):
        for step in (ONE, ZETA):
            moved = list(vec)
            moved[j] = moved[j] + step
            assert tmat.apply(moved) != moved, (j, step)
            assert _scalar_apply(tmat, moved) != moved, (j, step)


def test_integer_certificate_multiplies_as_scalars_do():
    # T = [[1, 0], [a, 0]] fixes (b, a b) for all powers a, b of zeta, the
    # Scalar product taking zeta^4 = zeta^2 - 1, and fixes no copy with
    # a b moved by a power of zeta.
    units = [ZETA**k for k in range(4)]
    for a in units:
        tmat = SparseOperator(2, [{0: ONE, 1: a}, {}])
        for b in units:
            assert tmat.apply([b, a * b]) == [b, a * b]
            for u in units:
                assert tmat.apply([b, a * b + u]) != [b, a * b + u]


def test_certificate_rejects_a_wrong_reconstruction(monkeypatch):
    # The first reconstruction has one numerator off by 1 (in entry 0, not
    # the free last entry), so T v == v fails and the lifting asks for one
    # more step instead of returning a wrong vector.
    tmat = transfer_matrix(draw_point(Random(760), 3))
    found = []
    reconstruct = exactla._reconstruct

    def off_by_one_once(residues, m):
        result = reconstruct(residues, m)
        found.append(result)
        if result is not None and sum(r is not None for r in found) == 1:
            nums, den = result
            return [nums[0] + 1, *nums[1:]], den
        return result

    monkeypatch.setattr(exactla, "_reconstruct", off_by_one_once)
    assert fixed_vector(tmat) == _kernel_oracle(tmat)
    first = next(k for k, r in enumerate(found) if r is not None)
    assert len(found) == first + 2 and found[-1] is not None


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


def test_laurent_poly_accessors():
    p = LaurentPoly({-1: ZETA, 0: ZERO, 2: -ONE})
    assert p.coeff(-1) == ZETA and p.coeff(2) == -ONE
    assert p.coeff(0) == ZERO and p.coeff(1) == ZERO
    three = Scalar.from_rational(3)
    assert p.eval_at(three) == ZETA / three - three * three
    assert p.min_exp == -1 and p.max_exp == 2
    assert not p.is_zero() and p == LaurentPoly({-1: ZETA, 2: -ONE})
    assert LaurentPoly({0: ZERO}).is_zero()


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


def test_laurent_fit_at_field_valued_points():
    target = LaurentPoly({-1: ONE + ZETA, 0: IMAG, 2: Scalar.from_rational(Fraction(-3, 5))})
    xs = [ZETA + Scalar.from_rational(k) for k in (1, 2, 3, 4)]
    ys = [target.eval_at(x) for x in xs]
    fitted = laurent_fit(xs, ys, -1, 2)
    assert fitted == target
    holdout = ZETA * 2 - IMAG
    assert fitted.eval_at(holdout) == target.eval_at(holdout)


def test_laurent_fit_requires_exact_sample_count():
    xs = [Scalar.from_rational(k) for k in (1, 2)]
    with pytest.raises(ValueError):
        laurent_fit(xs, [ONE, ONE], -2, 1)
