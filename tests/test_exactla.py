"""Exact linear algebra: determinants, kernels, the p-adic kernel vector,
Laurent interpolation."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, prod
from random import Random

import pytest

from openloop import (
    IMAG,
    ONE,
    ZERO,
    ZETA,
    ConsistencyError,
    NonGenericPointError,
    Scalar,
    SparseOperator,
    c_from_zeta,
    closed_form_all_open,
    hamiltonian,
    reduction,
    transfer_matrix,
)
from openloop import exactla, groundstate
from openloop.exactfield import cleared, ring_degree
from openloop.exactla import (
    PRIMES,
    LaurentPoly,
    det,
    kernel_basis,
    kernel_vector,
    laurent_fit,
)

from helpers import (
    dense_rows, draw_point, laurent_value, rational, refuse_exact_kernel, spy_lifting
)


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


def _kernel_oracle(op: SparseOperator) -> list[Scalar]:
    (vec,) = kernel_basis(dense_rows(op), op.dim)
    return vec


def _minus_one(tmat: SparseOperator) -> SparseOperator:
    return tmat - SparseOperator.identity(tmat.dim)


def _from_rows(rows) -> SparseOperator:
    """A small hand-built operator with these rows."""
    n = len(rows)
    return SparseOperator(n, [{i: rows[i][j] for i in range(n)} for j in range(n)])


def _has_odd_powers(op: SparseOperator) -> bool:
    """Whether some entry has a zeta or zeta^3 term, so that the lifting
    runs in all four embeddings of Z[zeta] rather than two."""
    return any(x.coeffs[1] or x.coeffs[3] for col in op.cols for x in col.values())


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
        "zeta1 = 2 zeta": replace(pt, zeta1=ZETA * rational(2)),
        "s = i": replace(pt, s=IMAG),
    }
    for name, point in points.items():
        op = _minus_one(transfer_matrix(point))
        assert kernel_vector(op) == _kernel_oracle(op), name


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_fixed_vector_matches_the_exact_kernel_at_specialisations(length):
    pt = draw_point(Random(720 + length), length)
    for i in range(length + 1):
        specialised, _, _ = reduction(pt, i)
        op = _minus_one(transfer_matrix(specialised))
        assert kernel_vector(op) == _kernel_oracle(op), i


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_kernel_vector_of_the_hamiltonian_matches_the_exact_kernel(length):
    # Rational zeta keeps H rational, where the lifting runs in one
    # embedding; zeta_1 = 2 + zeta puts odd powers of zeta into c_1 and
    # so into H, where it runs in all four.
    for zeta1, odd in ((rational(2), False), (rational(2) + ZETA, True)):
        op = hamiltonian(length, c_from_zeta(zeta1), c_from_zeta(rational(5)))
        assert _has_odd_powers(op) == odd
        assert kernel_vector(op) == _kernel_oracle(op), zeta1


def _spy_degrees(monkeypatch) -> list[int]:
    """The ring degrees d that `_lift` is called with, in call order."""
    degrees = []
    lift = exactla._lift

    def spy(cols, g, d, p, anchor):
        degrees.append(d)
        return lift(cols, g, d, p, anchor)

    monkeypatch.setattr(exactla, "_lift", spy)
    return degrees


def test_rational_operators_lift_with_d_1(monkeypatch):
    # H at rational zeta has no zeta or zeta^2 part in any entry, so the
    # lifting runs in Z, with d = 1 and one embedding.
    degrees = _spy_degrees(monkeypatch)
    for length in (1, 2, 3, 4):
        op = hamiltonian(length, c_from_zeta(rational(2)), c_from_zeta(rational(3)))
        degrees.clear()
        assert kernel_vector(op) == _kernel_oracle(op), length
        assert degrees == [1], length
    # Rank 1 of 3 over Q and mod PRIMES[0]: two certified vectors at d = 1
    # report the plane, and no other prime is tried.
    op = _from_rows([[ONE, rational(2), ZERO], [rational(3), rational(6), ZERO], [ZERO] * 3])
    degrees.clear()
    with pytest.raises(NonGenericPointError, match="dimension 2, expected 1"):
        kernel_vector(op)
    assert degrees == [1]


def test_kernel_vector_does_not_depend_on_a_field_valued_scale(monkeypatch):
    # T - 1 at a rational point lifts with d = 2 and H at rational zeta
    # with d = 1; scaling by -1 or 2/3 keeps d, scaling by 2 + zeta moves
    # the operator to d = 4, and none of them moves the kernel.
    degrees = _spy_degrees(monkeypatch)
    ops = {
        2: _minus_one(transfer_matrix(draw_point(Random(790), 3))),
        1: hamiltonian(3, c_from_zeta(rational(2)), c_from_zeta(rational(3))),
    }
    for d, op in ops.items():
        degrees.clear()
        vec = kernel_vector(op)
        assert degrees == [d]
        for s, scaled_d in ((-ONE, d), (rational(2, 3), d), (rational(2) + ZETA, 4)):
            degrees.clear()
            assert kernel_vector(op.scale(s)) == vec, (d, s)
            assert degrees == [scaled_d], (d, s)


def _scalar_apply(tmat: SparseOperator, vec: list[Scalar]) -> list[Scalar]:
    """Reference T v in Scalar arithmetic, independent of `SparseOperator.apply`."""
    return [sum((v * x for v, x in zip(row, vec)), ZERO) for row in dense_rows(tmat)]


@pytest.mark.parametrize("odd", [False, True])
def test_integer_certificate_is_t_v_equals_v(odd):
    # `_lift` accepts a reconstruction v of ker(T - 1) only if
    # (T - 1).apply(v) vanishes, which runs in Z[zeta] integers.  A
    # rational point keeps T in Q(zeta^2) (d = 2); zeta_1 = 2 + zeta puts
    # odd powers of zeta into T (d = 4).
    pt = draw_point(Random(740), 4)
    if odd:
        pt = replace(pt, zeta1=rational(2) + ZETA)
    tmat = transfer_matrix(pt)
    assert _has_odd_powers(tmat) == odd
    vec = kernel_vector(_minus_one(tmat))
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
    # the free last entry), so (T - 1) v == 0 fails and the lifting asks
    # for one more step instead of returning a wrong vector.
    op = _minus_one(transfer_matrix(draw_point(Random(760), 3)))
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
    assert kernel_vector(op) == _kernel_oracle(op)
    first = next(k for k, r in enumerate(found) if r is not None)
    assert len(found) == first + 2 and found[-1] is not None


def test_fixed_vector_skips_a_prime_dividing_a_pivot(monkeypatch):
    # Rank 2 with kernel vector (1, 1, 1), but mod PRIMES[0] the first
    # pivot vanishes and the rank drops to 1: the vector of free column 0
    # leaves a residual in its dep row 0 that p stops dividing.
    refuse_exact_kernel(monkeypatch)
    p = rational(PRIMES[0])
    op = _from_rows([[p, ZERO, -p], [ZERO, ONE, -ONE], [ZERO, ZERO, ZERO]])
    assert kernel_vector(op) == [ONE, ONE, ONE]  # lifted from PRIMES[1]
    monkeypatch.setattr(exactla, "PRIMES", PRIMES[:1])
    with pytest.raises(ConsistencyError, match="no prime of PRIMES decides"):
        kernel_vector(op)


@pytest.mark.parametrize(
    "big", [PRIMES[0], PRIMES[0] ** 3, prod(PRIMES)], ids=["p", "p cubed", "every prime"]
)
def test_a_prime_whose_rank_is_too_low_costs_only_that_prime(big, monkeypatch):
    # Rows (1, 1, -2), (1, 1 + P, -2 - P) and 0 have the kernel (1, 1, 1).
    # Mod a prime that divides P = big the rank is 1, and the free
    # columns' vectors leave a residual in dep row 1 that p stops
    # dividing, or that outlasts the lifting's budget where p^3 divides
    # it: that prime is skipped.  PRIMES[1] decides P = PRIMES[0] and
    # PRIMES[0]^3; for the product of every prime, no prime does.
    refuse_exact_kernel(monkeypatch)
    degrees = _spy_degrees(monkeypatch)
    big, two = rational(big), rational(2)
    op = _from_rows([[ONE, ONE, -two], [ONE, ONE + big, -two - big], [ZERO] * 3])
    if big != rational(prod(PRIMES)):
        assert kernel_vector(op) == [ONE, ONE, ONE]
        assert degrees == [1, 1]
    else:
        with pytest.raises(ConsistencyError, match="no prime of PRIMES decides"):
            kernel_vector(op)
        assert degrees == [1] * len(PRIMES)


def _read(basis) -> list[list[Scalar]]:
    """The vectors of a `_lift` basis, four Z[zeta] numerators per entry
    over a denominator, as Scalars."""
    return [
        [Scalar.from_integers(nums[t : t + 4], den) for t in range(0, len(nums), 4)]
        for nums, den in basis
    ]


def test_every_embedding_factors_the_first_embeddings_pivot_block(monkeypatch):
    # a = zeta - r vanishes in the first embedding zeta -> r mod PRIMES[0]
    # only.  Rows (a, 1) and (2a, 2): there the free column is 0 and the
    # dep row 1, but every other embedding would pivot on column 0 unless
    # that row and column leave its matrix first.
    p = PRIMES[0]
    powers, _ = exactla._embeddings(p, 4)
    a = ZETA - rational(powers[0][1])  # powers[0][1] = r
    op = SparseOperator(2, [{0: a, 1: a * rational(2)}, {0: ONE, 1: rational(2)}])
    oracle = _kernel_oracle(op)
    monkeypatch.setattr(exactla, "PRIMES", (p,))
    refuse_exact_kernel(monkeypatch)
    assert kernel_vector(op) == oracle == [-a.inv(), ONE]


def test_every_embedding_factors_the_first_embeddings_block_of_a_plane(monkeypatch):
    # a = zeta - r as above.  Rows k (a, a, 1), k = 1, 2, 3: in the first
    # embedding the free columns are 0 and 1, and every other embedding
    # would pivot on column 1 unless both leave its matrix.  Their
    # vectors (1, 0, -a) and (0, 1, -a) span the plane.
    p = PRIMES[0]
    powers, _ = exactla._embeddings(p, 4)
    a = ZETA - rational(powers[0][1])
    plane = _from_rows([[a * rational(k), a * rational(k), rational(k)] for k in (1, 2, 3)])
    lifted = exactla._lift(plane.num_cols, 1, 4, p, None)
    assert _read(lifted) == [[ONE, ZERO, -a], [ZERO, ONE, -a]]
    monkeypatch.setattr(exactla, "PRIMES", (p,))
    refuse_exact_kernel(monkeypatch)
    with pytest.raises(NonGenericPointError, match="dimension 2, expected 1"):
        kernel_vector(plane)


def test_the_first_prime_decides_a_dimension_other_than_1(monkeypatch):
    # The zero operator has a plane for kernel: rank 0 mod PRIMES[0], and
    # the two unit vectors are certified at once.
    refuse_exact_kernel(monkeypatch)
    degrees = _spy_degrees(monkeypatch)
    with pytest.raises(NonGenericPointError, match="dimension 2, expected 1"):
        kernel_vector(SparseOperator(2, [{}, {}]))
    # An invertible operator has full rank mod PRIMES[0]: nothing is lifted.
    with pytest.raises(NonGenericPointError, match="dimension 0, expected 1"):
        kernel_vector(_from_rows([[ONE, ZERO], [ZERO, rational(2)]]))
    assert degrees == [1, 1]
    # A line, but row 0 vanishes mod every prime of PRIMES; the unit in
    # row 1 keeps the columns from sharing a factor that would hide it.
    # Each prime shows rank 1, and free column 0's vector leaves a
    # residual in dep row 0 that the prime stops dividing: no prime
    # decides.
    m = rational(PRIMES[0] * PRIMES[1] * PRIMES[2])
    op = _from_rows([[m, -m, ZERO], [ZERO, ZERO, ONE], [ZERO, ZERO, ZERO]])
    with pytest.raises(ConsistencyError, match="no prime of PRIMES decides"):
        kernel_vector(op)


def test_a_residual_that_vanishes_is_certified_unread(monkeypatch):
    # The zero operator leaves each free column's residual exactly 0
    # after one step: p r = -A acc = 0, so each unit vector goes to the
    # certificate as it stands, and no residue vector is read, with an
    # anchor or without.
    def refuse(*args, **kwargs):
        raise AssertionError("read a residue vector")

    monkeypatch.setattr(exactla, "_reconstruct", refuse)
    zero = SparseOperator(3, [{}, {}, {}])
    for anchor in (None, (0, ONE, 1), (None, rational(3), 5)):
        with pytest.raises(NonGenericPointError, match="kernel has dimension 3, expected 1"):
            kernel_vector(zero, anchor)


def test_a_prime_whose_embeddings_show_two_ranks_is_skipped(monkeypatch):
    # r1 is the image of zeta^2 under the second embedding mod PRIMES[0],
    # so zeta^2 - r1 vanishes there and in no other embedding: rows
    # (zeta^2 - r1, 0) and 0 show rank 1 in the first embedding and rank
    # 0 in the second, and PRIMES[1] decides the line (0, 1).
    r1 = exactla._embeddings(PRIMES[0], 2)[0][1][2]
    op = _from_rows([[ZETA**2 - rational(r1), ZERO], [ZERO, ZERO]])
    lifted = []
    lift = exactla._lift

    def spy(cols, g, d, p, anchor):
        basis = lift(cols, g, d, p, anchor)
        lifted.append((p, d, basis))
        return basis

    monkeypatch.setattr(exactla, "_lift", spy)
    assert kernel_vector(op) == [ZERO, ONE]
    assert [(p, d, basis is None) for p, d, basis in lifted] == [
        (PRIMES[0], 2, True),
        (PRIMES[1], 2, False),
    ]


def test_an_invertible_operator_of_rank_n_minus_1_mod_p_raises(monkeypatch):
    # det = p: rank 1 mod PRIMES[0], so the lifting runs, but no kernel
    # exists.  Row 0, the dep row that no solve reads, keeps a residual
    # of -1 after one step, which p does not divide: PRIMES[0] does not
    # show the rank, and PRIMES[1] shows rank 2, dimension 0.  At det =
    # p^2 that residual stays divisible through the lifting's two steps,
    # and the spent budget skips PRIMES[0] just the same.
    degrees = _spy_degrees(monkeypatch)
    for p in (rational(PRIMES[0]), rational(PRIMES[0] ** 2)):
        degrees.clear()
        with pytest.raises(NonGenericPointError, match="dimension 0, expected 1"):
            kernel_vector(_from_rows([[p, ZERO], [ZERO, ONE]]))
        assert degrees == [1, 1]


def _ring_entry(rng: Random, d: int) -> Scalar:
    """A small element of the ring of degree d."""
    parts = [0, 0, 0, 0]
    parts[:: 4 // d] = [rng.randint(-3, 3) for _ in range(d)]
    return Scalar.from_integers(parts, 1)


def _low_rank(rng: Random, n: int, rank: int, d: int) -> SparseOperator:
    """An n by n operator, the product of random n by rank and rank by n
    factors whose small entries lie in the ring of degree d."""
    left = [[_ring_entry(rng, d) for _ in range(rank)] for _ in range(n)]
    right = [[_ring_entry(rng, d) for _ in range(n)] for _ in range(rank)]
    return _from_rows(
        [[sum((a * r[j] for a, r in zip(row, right)), ZERO) for j in range(n)] for row in left]
    )


@pytest.mark.parametrize("d", [1, 2, 4])
def test_the_lifted_basis_is_the_exact_kernels(d):
    # At rank n - 2 and n - 3 the first prime shows every free column, and
    # one certified vector per free column, 1 there and 0 on the others,
    # is the RREF's basis vector of that column.
    rng = Random(860 + d)
    for n, rank in ((6, 4), (7, 4), (8, 6), (8, 5)):
        op = _low_rank(rng, n, rank, d)
        cols = op.num_cols
        assert ring_degree(c for col in cols for c in col.values()) == d
        g = gcd(*(a for col in cols for c in col.values() for a in c))
        lifted = _read(exactla._lift(cols, g, d, PRIMES[0], None))
        assert lifted == kernel_basis(dense_rows(op), n), (n, rank)
        assert len(lifted) == n - rank


@pytest.mark.parametrize("d", [1, 2, 4])
def test_a_free_column_in_the_middle(d):
    # Column f, 2 <= f <= 4, is a col_0 + b col_1 and the other five are
    # independent: the first independent columns leave f as the one free
    # column, as the RREF does, so the lifted basis is the RREF's and the
    # kernel vector is its vector (-a, -b, 0.., 1, 0..), whose last
    # nonzero entry is the 1 in column f.
    rng = Random(890 + d)
    for f in (2, 3, 4, 2, 3, 4):
        cols = [[_ring_entry(rng, d) for _ in range(6)] for _ in range(6)]
        a, b = _ring_entry(rng, d), _ring_entry(rng, d)
        cols[f] = [a * x + b * y for x, y in zip(cols[0], cols[1])]
        op = SparseOperator(6, [dict(enumerate(col)) for col in cols])
        num_cols = op.num_cols
        assert ring_degree(c for col in num_cols for c in col.values()) == d
        g = gcd(*(x for col in num_cols for c in col.values() for x in c))
        (expected,) = kernel_basis(dense_rows(op), 6)
        assert expected[f] == ONE and expected[f + 1 :] == [ZERO] * (5 - f), f
        assert _read(exactla._lift(num_cols, g, d, PRIMES[0], None)) == [expected], f
        assert kernel_vector(op) == expected, f


def _spy_solves(monkeypatch) -> list[list[tuple]]:
    """Each `_lift` call's `_PackedLU.solve` calls, in order, as
    (factorisation, answer) pairs.  Take the embeddings' own solves
    (`_embeddings`, cached) before the spy goes in."""
    liftings: list[list[tuple]] = []
    lift, solve = exactla._lift, exactla._PackedLU.solve

    def spy_lift(*args):
        liftings.append([])
        return lift(*args)

    def spy_solve(lu, rhs):
        x = solve(lu, rhs)
        liftings[-1].append((lu, x))
        return x

    monkeypatch.setattr(exactla, "_lift", spy_lift)
    monkeypatch.setattr(exactla._PackedLU, "solve", spy_solve)
    return liftings


@pytest.mark.parametrize("d", [1, 2, 4])
def test_every_solve_of_a_lifting_answers_on_the_first_pivot_columns(d, monkeypatch):
    # The lifting reads each step's digits at the keys of the first
    # embedding's answer: every solve of one lifting, in every embedding,
    # answers on exactly the first embedding's pivot columns, the columns
    # that are not free, as many as the rank.  Operators of rank n - 1
    # and n - 2, and H (d = 1) or T - 1 at L = 3, rational (d = 2) or at
    # zeta_1 = 2 + zeta (d = 4).
    for p in PRIMES:
        exactla._embeddings(p, d)
    rng = Random(900 + d)
    ops = [_low_rank(rng, n, n - drop, d) for n, drop in ((5, 1), (7, 1), (6, 2), (8, 2))]
    ops.append(_ring_operator(d, Random(910 + d)))
    liftings = _spy_solves(monkeypatch)
    for op in ops:
        assert ring_degree(c for col in op.num_cols for c in col.values()) == d
        dim = len(kernel_basis(dense_rows(op), op.dim))
        liftings.clear()
        if dim == 1:
            kernel_vector(op)
        else:
            with pytest.raises(NonGenericPointError, match=f"dimension {dim}, expected 1"):
                kernel_vector(op)
        (solves,) = liftings  # the first prime decides
        pivots = {col for col, _, _ in solves[0][0].steps}
        assert len(pivots) == op.dim - dim
        assert len({id(lu) for lu, _ in solves}) == d
        assert all(x.keys() == pivots for _, x in solves)


def test_every_solve_on_the_zero_operator_is_empty(monkeypatch):
    # T(1) - 1 = 0 at L = 3: no column pivots, so each free column's one
    # step solves for no digit at all.
    exactla._embeddings(PRIMES[0], 1)
    liftings = _spy_solves(monkeypatch)
    with pytest.raises(NonGenericPointError, match="dimension 8, expected 1"):
        kernel_vector(SparseOperator(8, [{} for _ in range(8)]))
    (solves,) = liftings
    assert len(solves) == 8 and all(x == {} for _, x in solves)


def test_a_candidate_with_one_nonzero_entry_contracts_one_column(monkeypatch):
    # The certificate contracts the entries with a nonzero numerator only,
    # each with its column: a unit vector contracts its one column,
    # whether it is certified or not, and the lifting of the 3 x 3 zero
    # operator contracts one column per free column.
    contracted = []
    addmul = exactla.addmul

    def spy(acc, b, items):
        items = list(items)
        contracted.append((tuple(b), items))
        addmul(acc, b, items)

    monkeypatch.setattr(exactla, "addmul", spy)
    op = _from_rows([[ONE, ZERO, ZETA], [rational(2), ZERO, ONE], [ZERO, ZERO, ZERO]])
    cols = op.num_cols
    unit = [0] * 12
    unit[4] = 1
    assert exactla._certified(cols, unit, 1) == (unit, 1)
    assert contracted == [((1, 0, 0, 0), [])]
    contracted.clear()
    unit = [0] * 12
    unit[10] = 3
    assert exactla._certified(cols, unit, 1) is None
    assert contracted == [((0, 0, 3, 0), list(cols[2].items()))]
    contracted.clear()
    with pytest.raises(NonGenericPointError, match="dimension 3, expected 1"):
        kernel_vector(SparseOperator(3, [{}, {}, {}]))
    assert contracted == [((1, 0, 0, 0), [])] * 3


def test_kernel_vector_divides_out_a_common_factor_of_the_columns(monkeypatch):
    # solve hands the lifting c (T - 1), with c the sweep's denominator,
    # rather than T - 1 cleared to its own lcm.  A common integer factor
    # of the columns changes no kernel, and the lifting packs the same
    # integers without it, at the same width: even a factor of PRIMES[0]
    # leaves that prime the generic rank.
    lifted = []
    pack = exactla._pack

    def spy(cols, g, d, width):
        parts = pack(cols, g, d, width)
        lifted.append((d, width, parts))
        return parts

    monkeypatch.setattr(exactla, "_pack", spy)
    for length, odd in ((3, False), (4, True)):
        pt = draw_point(Random(780 + length), length)
        if odd:
            pt = replace(pt, zeta1=rational(2) + ZETA)
        op = _minus_one(transfer_matrix(pt))
        lifted.clear()
        vec = kernel_vector(op)
        (plain,) = lifted
        for factor in (6, 2**70 + 1, PRIMES[0]):
            lifted.clear()
            scaled = SparseOperator.from_integers(
                [{i: tuple(factor * a for a in c) for i, c in col.items()} for col in op.num_cols],
                op.den,
            )
            assert kernel_vector(scaled) == vec, (length, factor)
            assert lifted == [plain], (length, factor)


def test_integer_columns_that_every_prime_misreads_raise(monkeypatch):
    # m (a, -a b) in row 0 vanishes mod every prime of PRIMES, and row 1
    # has a unit, so the rank is 1 mod every prime against 2 over Q.  The
    # kernel is the line (b, 1, 0), with a and b carrying every power of
    # zeta, but free column 0's vector leaves m a / p in dep row 0, which
    # p does not divide: no prime decides.
    refuse_exact_kernel(monkeypatch)
    m = PRIMES[0] * PRIMES[1] * PRIMES[2]
    a = Scalar.from_integers((1, 2, 3, 4), 1)
    b = Scalar.from_integers((2, -1, 0, 1), 1)
    (ab,), _ = cleared([a * b])
    op = SparseOperator.from_integers(
        [{0: (m, 2 * m, 3 * m, 4 * m)}, {0: tuple(-m * x for x in ab)}, {1: (1, 0, 0, 0)}], 1
    )
    assert op.apply([b, ONE, ZERO]) == [ZERO] * 3
    with pytest.raises(ConsistencyError, match="no prime of PRIMES decides"):
        kernel_vector(op)
    # Rank 1 of 3 over Q and mod PRIMES[0]: the kernel is a plane.
    ones = SparseOperator.from_integers([{0: (k, 0, 0, 0), 1: (0, k, 0, 0)} for k in (1, 2, 3)], 1)
    with pytest.raises(NonGenericPointError, match="dimension 2, expected 1"):
        kernel_vector(ones)


def test_fixed_vector_scales_its_last_nonzero_entry_to_one():
    # Kernel vector (-2, 1, 0): the last nonzero entry is 1, not the last.
    op = _from_rows([
        [ONE, rational(2), ZERO],
        [ZERO, ZERO, ONE],
        [rational(3), rational(6), rational(4)],
    ])
    assert kernel_vector(op) == [-rational(2), ONE, ZERO] == _kernel_oracle(op)
    # Kernel vector (1, p): mod p the free column is the first one, but the
    # last nonzero entry over Q is the second.
    p = rational(PRIMES[0])
    op = _from_rows([[p, -ONE], [ZERO, ZERO]])
    assert kernel_vector(op) == [p.inv(), ONE] == _kernel_oracle(op)


def test_an_anchor_scales_its_entry_unless_that_entry_is_zero():
    # Kernel vector (-2, 1, 0): anchored at entry 0 it is scaled so that
    # entry is 3, whatever the hint, and anchored at the sum (index None)
    # so that its entries sum to 3; anchored at the zero entry 2 it cannot
    # be scaled, and the error names that entry.
    op = _from_rows([
        [ONE, rational(2), ZERO],
        [ZERO, ZERO, ONE],
        [rational(3), rational(6), rational(4)],
    ])
    three = rational(3)
    for hint in (1, 2, 7**40):
        assert kernel_vector(op, (0, three, hint)) == [three, -rational(3, 2), ZERO]
        assert kernel_vector(op, (None, three, hint)) == [rational(6), -three, ZERO]
        with pytest.raises(ConsistencyError, match="its entry 2 is zero"):
            kernel_vector(op, (2, three, hint))
    # Kernel vector (1, -1): its entries sum to zero.
    op = _from_rows([[ONE, ONE], [ZERO, ZERO]])
    with pytest.raises(ConsistencyError, match="the sum of its entries is zero"):
        kernel_vector(op, (None, three, 1))


def _prime_factor(n: int) -> int:
    return next(q for q in range(2, n + 1) if n % q == 0)


def _valuation(n: int, q: int) -> int:
    e = 0
    while n % q == 0:
        n, e = n // q, e + 1
    return e


def _anchored_kernel():
    """T - 1 at a rational L = 4 point, the value of its all-open closed
    form (entry 0), its anchored vector, that vector's common denominator
    D and the hint that `solve` predicts."""
    pt = draw_point(Random(850), 4)
    op = _minus_one(transfer_matrix(pt))
    value = closed_form_all_open(pt)
    oracle = _kernel_oracle(op)
    expected = [x * (value / oracle[0]) for x in oracle]
    return op, value, expected, cleared(expected)[1], groundstate._denominator_hint(pt)


def test_a_wrong_hint_returns_the_same_vector_through_wangs_reconstruction(monkeypatch):
    # The anchored vector of T - 1, all-open closed form in entry 0, over
    # the hint that `solve` predicts at a rational point; then over a hint
    # of 1, one that lacks a prime of the true denominator D, and one that
    # holds that prime to one power less than D does.  Each of the three
    # leaves value * hint off Z[zeta], so no anchored reading could be
    # certified: none is made, and Wang's reconstruction finds the same
    # vector.
    op, value, expected, den, hint = _anchored_kernel()
    assert hint % den == 0
    spy = spy_lifting(monkeypatch)
    assert kernel_vector(op, (0, value, hint)) == expected
    assert spy["certified"] == [hint]
    q = _prime_factor(den)
    lacks = hint // q ** _valuation(hint, q)
    short = hint // q ** (_valuation(hint, q) - _valuation(den, q) + 1)
    assert _valuation(short, q) == _valuation(den, q) - 1
    for bad in (1, lacks, short):
        spy.update(anchored=0, wang=0, certified=[])
        assert kernel_vector(op, (0, value, bad)) == expected, bad
        (found,) = spy["certified"]
        assert cleared([value * rational(bad)])[1] > 1, bad
        assert found != bad and spy["anchored"] == 0 < spy["wang"], bad


def test_a_hint_in_z_zeta_short_of_d_reads_both_from_the_anchored_fit(monkeypatch):
    # The denominator of value itself puts value * hint in Z[zeta] but is
    # not a multiple of D: from the step where value * hint fits, every
    # step reads the anchored vector, which is never certified, and then
    # Wang's, which returns the same vector.
    op, value, expected, den, _ = _anchored_kernel()
    own = cleared([value])[1]
    assert own % den != 0
    spy = spy_lifting(monkeypatch)
    assert kernel_vector(op, (0, value, own)) == expected
    (found,) = spy["certified"]
    assert found != own and spy["anchored"] == spy["wang"] > 0


def test_a_hint_whose_anchored_entry_cannot_fit_lifts_unanchored(monkeypatch):
    # A multiple of the right hint whose anchored numerators outgrow
    # p^99, past this operator's budget of about 70 steps: no anchored
    # reading is made, and Wang's reads the same vector rather than the
    # lifting running out of steps.
    op, value, expected, _, hint = _anchored_kernel()
    huge = hint << 128 * 99
    spy = spy_lifting(monkeypatch)
    assert kernel_vector(op, (0, value, huge)) == expected
    (found,) = spy["certified"]
    assert found != huge and spy["anchored"] == 0 < spy["wang"]


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_a_right_hint_is_read_once_where_the_anchored_entry_fits(length, monkeypatch):
    # Nothing is read before the step where value * hint fits its bound,
    # and with the hint that `solve` predicts that is the step where
    # every numerator over the hint fits: one anchored reading and no
    # Wang reading, after as many steps, d solves each, as the least p^k
    # whose bound holds them.
    pt = draw_point(Random(880 + length), length)
    op = _minus_one(transfer_matrix(pt))
    value, hint = closed_form_all_open(pt), groundstate._denominator_hint(pt)
    d = ring_degree(c for col in op.num_cols for c in col.values())
    exactla._embeddings(PRIMES[0], d)  # its own solves, once per process
    spy = spy_lifting(monkeypatch)
    solve = exactla._PackedLU.solve
    solves = []

    def counted(lu, rhs):
        solves.append(rhs)
        return solve(lu, rhs)

    monkeypatch.setattr(exactla._PackedLU, "solve", counted)
    vec = kernel_vector(op, (0, value, hint))
    nums, den = cleared(vec)
    top = max(abs(a) * (hint // den) for n in nums for a in n)
    steps = next(k for k in range(1, 99) if top <= PRIMES[0] ** k >> 2 * exactla._MARGIN + 1)
    assert spy["certified"] == [hint]
    assert (spy["anchored"], spy["wang"], len(solves)) == (1, 0, d * steps)


def test_a_sum_anchor_is_read_where_its_sum_fits_n_bounds(monkeypatch):
    # The kernel of [[b, -a], [b, -a]] is (a, b), both just below the
    # reading's bound at step 1 and their sum above it: anchored to that
    # sum over the hint 1, the vector is read at step 1, for a sum of n
    # entries that each fit fits in n bounds.
    bound = PRIMES[0] >> 2 * exactla._MARGIN + 1
    a, b = rational(bound - 1), rational(bound - 2)
    op = _from_rows([[b, -a], [b, -a]])
    spy = spy_lifting(monkeypatch)
    assert kernel_vector(op, (None, a + b, 1)) == [a, b]
    assert (spy["anchored"], spy["wang"], spy["certified"]) == (1, 0, [1])


@pytest.mark.parametrize("length", [2, 3, 4])
def test_an_anchor_off_the_operators_ring_is_read_over_the_hint(length, monkeypatch):
    # T - 1 at a rational point lies in Q(zeta^2), and (2 + zeta) times
    # the all-open closed form does not.  The vector anchored to it is
    # the all-open one times 2 + zeta, still a kernel vector: the
    # anchored reading returns it over the hint, in fewer steps than
    # Wang's reconstruction takes on the same operator.
    pt = draw_point(Random(870 + length), length)
    op = _minus_one(transfer_matrix(pt))
    value, hint = closed_form_all_open(pt), groundstate._denominator_hint(pt)
    plain = kernel_vector(op, (0, value, hint))
    spy = spy_lifting(monkeypatch)
    kernel_vector(op)
    wang_steps = spy["wang"]
    spy.update(anchored=0, wang=0, certified=[])
    factor = rational(2) + ZETA
    assert kernel_vector(op, (0, factor * value, hint)) == [factor * x for x in plain]
    assert spy["certified"] == [hint]
    assert spy["anchored"] < wang_steps, (spy, wang_steps)


# -- the reader ---------------------------------------------------------


def _balanced_reconstruct(residues, m):
    """Wang's reconstruction at the balanced bound sqrt(m / 2) less
    _MARGIN bits for numerators and denominator alike, written out once
    more as the reference for `exactla._reconstruct`'s default."""
    bound = isqrt(m >> 1) >> exactla._MARGIN
    den = 1
    for u in residues:
        t = den * u % m
        if t <= bound or m - t <= bound:
            continue
        r0, r1, t0, t1 = m, t, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound or gcd(r1, t1) != 1:
            return None
    nums = [den * u % m for u in residues]
    nums = [a - m if a > m >> 1 else a for a in nums]
    if any(abs(a) > bound for a in nums):
        return None
    return nums, den


def test_the_reader_at_den_bound_1_returns_the_symmetric_residues():
    m = PRIMES[0] ** 2
    bound = m >> 2 * exactla._MARGIN + 1
    nums = [0, 1, -1, 7, bound, -bound, bound // 3]
    residues = [a % m for a in nums]
    assert exactla._reconstruct(residues, m, den_bound=1) == (nums, 1)
    # Halves need den = 2: refused at den_bound 1, read by the default.
    half = pow(2, -1, m)
    halves = [a * half % m for a in (1, -3, 5)]
    assert exactla._reconstruct(residues + halves, m, den_bound=1) is None
    assert exactla._reconstruct(halves, m) == ([1, -3, 5], 2)
    # One past the bound is refused too.
    assert exactla._reconstruct([bound + 1], m, den_bound=1) is None
    assert exactla._reconstruct([m - bound - 1], m, den_bound=1) is None


def test_the_default_reader_agrees_with_wangs_balanced_reconstruction():
    # Residue sets of a / den mod p^k with numerators and denominators
    # drawn around the balanced bound, and some of no small fraction at
    # all: the default reads and refuses exactly as the reference does.
    rng = Random(45)
    read = refused = 0
    for _ in range(400):
        m = PRIMES[rng.randrange(3)] ** rng.randint(1, 3)
        bits = (m >> 1).bit_length() // 2 - exactla._MARGIN
        if rng.random() < 0.1:
            residues = [rng.randrange(m) for _ in range(rng.randint(1, 6))]
        else:
            top = 1 << rng.randint(0, bits + 1)
            dens = [rng.getrandbits(rng.randint(1, bits + 1)) | 1 for _ in range(2)]
            residues = [
                rng.randint(-top, top) * pow(dens[rng.randrange(2)], -1, m) % m
                for _ in range(rng.randint(1, 6))
            ]
        expected = _balanced_reconstruct(residues, m)
        assert exactla._reconstruct(residues, m) == expected, (residues, m)
        read += expected is not None
        refused += expected is None
    assert read > 100 and refused > 100, (read, refused)


# -- the packed factorisation against a dense reference ------------------


def _eliminate(rows: list[list[int]], p: int):
    """Dense Gaussian elimination mod p of the columns of the matrix with
    these rows, row by row, pivoting on the first remaining column with a
    nonzero entry there: the reference for `exactla._PackedLU`.

    Returns the steps as (pivot column, row, inverse pivot), the
    multipliers each column was reduced by, one per earlier step, and the
    reduced columns."""
    work = [[a % p for a in col] for col in zip(*rows)]
    live = list(range(len(work)))
    lower: list[list[int]] = [[] for _ in work]
    steps = []
    for row in range(len(rows)):
        piv = next((j for j in live if work[j][row]), None)
        if piv is None:
            continue
        live.remove(piv)
        inv = pow(work[piv][row], -1, p)
        pcol = work[piv][row:]
        for j in live:
            col = work[j]
            f = col[row] * inv % p
            lower[j].append(f)
            if f:
                col[row:] = [(a - f * b) % p for a, b in zip(col[row:], pcol)]
        steps.append((piv, row, inv))
    return steps, lower, work


def _solve(factor, rhs, p: int) -> dict[int, int]:
    """x with A x = rhs mod p on the pivot block of an `_eliminate`
    factorisation, as {pivot column: x at that column}: column c_k of A
    is its reduced column P_k plus its multipliers' sum of the P_l,
    l < k, so A x = sum_k y_k P_k, where y_k is x at c_k
    plus the later x at c_m times their multipliers at step k."""
    steps, lower, work = factor
    y: list[int] = []
    for col, row, inv in steps:
        y.append((rhs[row] - sum(yl * work[c][row] for yl, (c, _, _) in zip(y, steps))) * inv % p)
    x: dict[int, int] = {}
    for k in range(len(steps) - 1, -1, -1):
        col = steps[k][0]
        x[col] = (y[k] - sum(lower[c][k] * x[c] for c, _, _ in steps[k + 1 :])) % p
    return x


def _slots(packed: int, width: int, count: int) -> list[int]:
    return [packed >> width * k & ((1 << width) - 1) for k in range(count)]


def _assert_factors_as_the_reference(rows: list[list[int]], p: int, rng: Random) -> list:
    """_PackedLU on the columns of the matrix with these rows gives
    _eliminate's steps, reduced pivot columns and pivot columns'
    multipliers, and its solve meets A x = rhs mod p on the pivot block,
    keyed by exactly the pivot columns, with every slot packed as its
    residue or as that plus a multiple of p.  Returns the steps."""
    nrows, ncols = len(rows), len(rows[0])
    width = exactla._width(p, max(nrows, ncols), 0)
    steps, lower, work = _eliminate(rows, p)
    for unreduced in (False, True):
        packed = [
            exactla._packed([a % p + p * rng.randrange(p) * unreduced for a in col], width)
            for col in zip(*rows)
        ]
        lu = exactla._PackedLU(packed, nrows, p, width)
        assert lu.steps == steps
        for k, (col, row, _) in enumerate(steps):
            assert _slots(lu.pivots[k], width, nrows - row) == work[col][row:]
            assert _slots(lu.multipliers[k], width, k) == lower[col][::-1]
        pivot_rows = [r for _, r, _ in steps]
        pivot_cols = [c for c, _, _ in steps]
        for _ in range(3):
            rhs = [rng.randrange(-(p**2), p**2) for _ in range(nrows)]
            x = lu.solve(exactla._packed([a % p + p * unreduced for a in rhs], width))
            assert x == _solve((steps, lower, work), rhs, p)
            assert sorted(x) == sorted(pivot_cols)
            for i in pivot_rows:
                assert (sum(rows[i][j] * xj for j, xj in x.items()) - rhs[i]) % p == 0
    return steps


def test_packed_factorisation_matches_the_dense_reference():
    rng = Random(800)
    p = PRIMES[0]

    def draw(n, m, big=False):
        top = 3 * p if big else 5
        return [[rng.randrange(-top, top) for _ in range(m)] for _ in range(n)]

    # Each case with the columns its steps pivot in.
    cases = {
        "1 x 1": ([[7]], [0]),
        "1 x 1 zero": ([[0]], []),
        "1 x 1 multiple of p": ([[3 * p]], []),
        "full rank, entries >= p or negative": (draw(6, 6, big=True), [0, 1, 2, 3, 4, 5]),
    }
    a = draw(5, 5)
    zero_column = [[0 if j == 2 else x for j, x in enumerate(r)] for r in a]
    cases["zero column"] = (zero_column, [0, 1, 3, 4])
    cases["zero row"] = ([row if i != 1 else [0] * 5 for i, row in enumerate(a)], [0, 1, 2, 3])
    # Column 2 is 2 * column 0 + column 1, so it only gains multiples of
    # the columns before it and reduces to zero, and columns 3 and 4 pivot
    # after it.
    between = [[r[0], r[1], 2 * r[0] + r[1], r[3], r[4]] for r in a]
    cases["no pivot between two"] = (between, [0, 1, 3, 4])
    b = draw(2, 6, big=True)
    # Rank 2 of 6: every row a combination of two; a multiple of p hides
    # in the combination too.
    coefficients = [(rng.randrange(-3, 4), rng.randrange(-3, 4) + p) for _ in range(6)]
    low = [[s * x + t * y for x, y in zip(*b)] for s, t in coefficients]
    cases["rank deficient"] = (low, [0, 1])
    cases["rank deficient, first row zero mod p"] = ([[p * x for x in b[0]]] + low, [0, 1])
    for name, (rows, pivot_cols) in cases.items():
        rows = [list(r) for r in rows]
        steps = _assert_factors_as_the_reference(rows, p, rng)
        assert sorted(c for c, _, _ in steps) == pivot_cols, name
        if name == "zero row":
            assert 1 not in [r for _, r, _ in steps]


@pytest.mark.parametrize("d", [1, 2, 4])
def test_packed_factorisation_inverts_the_vandermonde_matrix(d):
    rng = Random(810 + d)
    for p in PRIMES:
        powers, vinv = exactla._embeddings(p, d)
        vandermonde = [pw[:: 4 // d] for pw in powers]
        _assert_factors_as_the_reference(vandermonde, p, rng)
        for i, row in enumerate(vandermonde):
            for k in range(d):
                assert sum(a * vinv[j][k] for j, a in enumerate(row)) % p == (i == k)


# -- the width of the packed lifting ------------------------------------


def _big_operator(d: int, rng: Random) -> SparseOperator:
    """A 5 x 5 operator over the ring of degree d, with entries near 2^200
    of mixed signs and the one ray (c, -1) for its kernel: columns 0..3
    are drawn and column 4 is their combination with the small c."""
    def draw(top):
        nums = [0, 0, 0, 0]
        nums[:: 4 // d] = [rng.choice((-1, 1)) * rng.randrange(top) for _ in range(d)]
        return Scalar.from_integers(nums, 1)

    n = 5
    cols = [
        [draw(1 << 200) + rational(rng.choice((-1, 1)) << 200) for _ in range(n)]
        for _ in range(n - 1)
    ]
    c = [draw(50) + ONE for _ in range(n - 1)]
    cols.append([sum((x * w for x, w in zip(row, c)), ZERO) for row in zip(*cols)])
    op = SparseOperator(n, [dict(enumerate(col)) for col in cols])
    assert ring_degree(x for col in op.num_cols for x in col.values()) == d
    return op


def _ring_operator(d: int, rng: Random) -> SparseOperator:
    """H at rational zeta (d = 1), or T - 1 at a rational point (d = 2)
    or at zeta_1 = 2 + zeta (d = 4), at L = 3."""
    if d == 1:
        return hamiltonian(3, c_from_zeta(rational(2)), c_from_zeta(rational(3)))
    pt = draw_point(rng, 3)
    return _minus_one(transfer_matrix(pt if d == 2 else replace(pt, zeta1=rational(2) + ZETA)))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_lifting_entries_near_two_to_the_200(d, monkeypatch):
    degrees = _spy_degrees(monkeypatch)
    for seed in range(3):
        op = _big_operator(d, Random(820 + 10 * d + seed))
        assert kernel_vector(op) == _kernel_oracle(op), seed
        assert degrees[-1] == d


@pytest.mark.parametrize("d", [1, 2, 4])
def test_a_width_too_narrow_costs_an_error_never_a_wrong_vector(d, monkeypatch):
    # The embeddings' Vandermonde inverses are cached: take them at the
    # true width, so that only the lifting runs narrow.
    for p in PRIMES:
        exactla._embeddings(p, d)
    width = exactla._width
    outcomes = set()
    for cut in (8, 64):
        monkeypatch.setattr(exactla, "_width", lambda p, n, bound: width(p, n, bound) - cut)
        ops = [_big_operator(d, Random(830 + 10 * d + seed)) for seed in range(3)]
        ops.append(_ring_operator(d, Random(840 + d)))
        for op in ops:
            oracle = _kernel_oracle(op)
            try:
                vec = kernel_vector(op)
            except ConsistencyError:
                outcomes.add("error")
                continue
            assert vec == oracle, (d, cut)
            outcomes.add("oracle")
    assert "error" in outcomes, outcomes


def test_laurent_poly_accessors():
    # The coefficients by exponent, a zero one dropped.
    p = LaurentPoly({-1: ZETA, 0: ZERO, 2: -ONE})
    assert p._c == {-1: ZETA, 2: -ONE}
    three = Scalar.from_rational(3)
    assert laurent_value(p, three) == ZETA / three - three * three
    assert p.min_exp == -1 and p.max_exp == 2
    assert not p.is_zero() and p == LaurentPoly({-1: ZETA, 2: -ONE})
    assert LaurentPoly({0: ZERO}).is_zero()


def test_laurent_fit_recovers_polynomial():
    rng = Random(9)
    target = LaurentPoly({0: _rand_scalar(rng), 1: _rand_scalar(rng), 3: ONE})
    xs = [Scalar.from_rational(k) for k in (1, 2, 3, 5)]
    ys = [laurent_value(target, x) for x in xs]
    assert laurent_fit(xs, [ys], 0, len(xs) - 1) == [target]


def test_laurent_fit_with_negative_exponents():
    target = LaurentPoly({-2: ZETA, 0: ONE, 1: IMAG})
    xs = [Scalar.from_rational(Fraction(k, 2)) for k in (2, 3, 5, 7)]
    ys = [laurent_value(target, x) for x in xs]
    (fitted,) = laurent_fit(xs, [ys], -2, 1)
    assert fitted == target
    holdout = Scalar.from_rational(Fraction(11, 3))
    assert laurent_value(fitted, holdout) == laurent_value(target, holdout)


def test_laurent_fit_at_field_valued_points():
    target = LaurentPoly({-1: ONE + ZETA, 0: IMAG, 2: Scalar.from_rational(Fraction(-3, 5))})
    xs = [ZETA + Scalar.from_rational(k) for k in (1, 2, 3, 4)]
    ys = [laurent_value(target, x) for x in xs]
    (fitted,) = laurent_fit(xs, [ys], -1, 2)
    assert fitted == target
    holdout = ZETA * rational(2) - IMAG
    assert laurent_value(fitted, holdout) == laurent_value(target, holdout)


@pytest.mark.parametrize("nodes", ["rational", "field"])
def test_multi_column_fit_equals_the_per_column_fits(nodes):
    # One interpolation map serves every column: fitting the columns
    # together gives each column's own fit, a zero column included.
    rng = Random(17)
    lo, hi = -3, 3
    if nodes == "rational":
        xs = [Scalar.from_rational(Fraction(k, 3)) for k in (-7, -2, 1, 2, 4, 5, 8)]
    else:
        xs = [ZETA * rational(k) + Scalar.from_rational(Fraction(1, k)) for k in range(1, 8)]
    targets = [
        LaurentPoly({e: _rand_scalar(rng) for e in range(lo, hi + 1) if rng.random() < 0.7})
        for _ in range(4)
    ] + [LaurentPoly()]
    columns = [[laurent_value(t, x) for x in xs] for t in targets]
    fits = laurent_fit(xs, columns, lo, hi)
    assert fits == targets
    assert fits == [laurent_fit(xs, [ys], lo, hi)[0] for ys in columns]
    powers = {e: xs[0] ** e for e in range(lo, hi + 1)}
    assert [f.eval_powers(powers) for f in fits] == [ys[0] for ys in columns]


def test_laurent_fit_requires_exact_sample_count():
    xs = [Scalar.from_rational(k) for k in (1, 2)]
    with pytest.raises(ValueError):
        laurent_fit(xs, [[ONE, ONE]], -2, 1)
    xs = [Scalar.from_rational(k) for k in (1, 2, 3, 4)]
    with pytest.raises(ValueError):
        laurent_fit(xs, [[ONE] * 4, [ONE] * 3], -2, 1)
