"""Two-boundary link patterns and the diagram generators acting on them."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import pytest

from openloop import (
    ONE,
    Q,
    ZERO,
    ZETA,
    Scalar,
    SingularParameterError,
    all_patterns,
    apply_e,
    c_from_zeta,
    generator_matrix,
    hamiltonian,
    idempotents,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    transfer_matrix_naive,
    word_of,
)
from openloop.exactfield import cleared
from openloop.groundstate import generic_parameters
from openloop.linkpat import (
    LEFT_WALL,
    RIGHT_WALL,
    SparseOperator,
    connect,
    read_word,
    seed,
    swap,
    to_wall,
    validate_pattern,
)

from helpers import dense_rows, draw_point, ones


def test_word_index_bijection():
    for length in range(5):
        words = list(all_patterns(length))
        assert len(words) == 1 << length
        assert [index_of(w) for w in words] == list(range(1 << length))
        assert [word_of(i, length) for i in range(1 << length)] == words


def test_index_orders_open_before_close():
    # '(' is the 0 bit and site 1 is the most significant position.
    assert index_of("((") == 0
    assert index_of("()") == 1
    assert index_of(")(") == 2
    assert index_of("))") == 3


def test_validate_pattern_rejects_junk():
    with pytest.raises(ValueError):
        validate_pattern("(x")
    assert validate_pattern("") == ""


def test_seed_examples():
    # Literal partner lists: site k sits in slot k, slots 0 and L + 1
    # hold the spare strand, and an unmatched ')' or '(' runs to a wall.
    table = {
        "": [1, 0],
        "()": [3, 2, 1, 0],
        ")(": [3, LEFT_WALL, RIGHT_WALL, 0],
        ")()(": [5, LEFT_WALL, 3, 2, RIGHT_WALL, 0],
        "(())((": [7, 4, 3, 2, 1, RIGHT_WALL, RIGHT_WALL, 0],
        "))(()": [6, LEFT_WALL, LEFT_WALL, RIGHT_WALL, 5, 4, 0],
    }
    for word, partners in table.items():
        assert seed(word) == partners


def test_seed_roundtrip():
    for word in all_patterns(6):
        assert read_word(seed(word), range(1, 7)) == word


def test_swap_crosses_two_strand_ends():
    # Crossing twice restores every state, auxiliary strand (slots 0 and
    # L + 1 = 5) included.
    for word in all_patterns(4):
        st = seed(word)
        before = list(st)
        for j in range(1, 5):
            swap(st, j, 5)
            assert st[j] == 0 and st[0] == j
            swap(st, j, 5)
            assert st == before
    # Crossing the two ends of one strand changes nothing.
    st = seed("()")
    swap(st, 1, 2)
    assert st == seed("()")
    # A wall end moves with its slot, and the partner follows the other.
    st = seed(")()")
    swap(st, 1, 2)
    assert st == [4, 3, LEFT_WALL, 1, 0]
    st = seed(")(")
    swap(st, 1, 2)
    assert st == [3, RIGHT_WALL, LEFT_WALL, 0]


@pytest.mark.parametrize(
    "before, after",
    [
        # The two ends of one strand close a loop, and its far ends, x and
        # y themselves, leave with them: no other slot changes.
        ([5, 2, 1, 4, 3, 0], [5, None, None, 4, 3, 0]),
        # Partner with partner: the far ends form a new pair.
        ([5, 3, 4, 1, 2, 0], [5, None, None, 4, 3, 0]),
        # Partner with wall, and wall with partner: the far end takes the wall.
        ([5, 3, LEFT_WALL, 1, RIGHT_WALL, 0], [5, None, None, LEFT_WALL, RIGHT_WALL, 0]),
        ([5, RIGHT_WALL, 4, LEFT_WALL, 2, 0], [5, None, None, LEFT_WALL, RIGHT_WALL, 0]),
        # Wall with wall: the arc drops out and no other slot changes.
        ([5, LEFT_WALL, RIGHT_WALL, 4, 3, 0], [5, None, None, 4, 3, 0]),
    ],
)
def test_connect_joins_the_far_ends(before, after):
    # connect on slots 1 and 2 of a four-site state, the auxiliary strand
    # in slots 0 and 5.  Slots 1 and 2 leave the frontier (None): their
    # stale entries are not compared.
    st = list(before)
    connect(st, 1, 2)
    assert [x if y is not None else None for x, y in zip(st, after)] == after


def test_to_wall_ties_the_far_end():
    # A strand from slot 1 to slot 2: its far end now runs to the wall,
    # from either end.
    st = seed("()(")
    to_wall(st, 1, LEFT_WALL)
    assert [st[k] for k in (0, 2, 3, 4)] == [4, LEFT_WALL, RIGHT_WALL, 0]
    st = seed("()(")
    to_wall(st, 2, RIGHT_WALL)
    assert [st[k] for k in (0, 1, 3, 4)] == [4, RIGHT_WALL, RIGHT_WALL, 0]
    # A strand already on a wall: tying its other end drops it, and no
    # other slot changes.
    st = seed(")()")
    to_wall(st, 1, RIGHT_WALL)
    assert [st[k] for k in (0, 2, 3, 4)] == [4, 3, 2, 0]


def test_apply_e_examples():
    # Interior generator closing a small link over nested arches.
    assert apply_e(5, ")(())(((") == ")(()()(("
    # Left boundary generator ties site 1 to the wall.
    assert apply_e(0, "()") == "))"
    assert apply_e(0, ")(") == ")("
    # Right boundary generator ties the last site to the wall.
    assert apply_e(2, "()") == "(("
    assert apply_e(1, "()") == "()"
    assert apply_e(1, ")(") == "()"


def test_apply_e_creates_the_small_link():
    for word in all_patterns(5):
        for i in range(1, 5):
            assert seed(apply_e(i, word))[i] == i + 1
        assert apply_e(0, word)[0] == ")"
        assert apply_e(5, word)[-1] == "("


def test_generators_need_a_site():
    with pytest.raises(ValueError, match="L >= 1"):
        apply_e(0, "")
    with pytest.raises(ValueError, match="L >= 1"):
        generator_matrix(0, 0)
    with pytest.raises(ValueError, match="L >= 1"):
        hamiltonian(0, ONE, ONE)


def test_generator_matrices_are_unit_subpermutations():
    length = 4
    for i in range(length + 1):
        e = generator_matrix(i, length)
        rows = dense_rows(e)
        for col in range(1 << length):
            entries = [row[col] for row in rows if not row[col].is_zero()]
            assert entries == [ONE]


def test_generator_matrix_is_a_fresh_operator_per_call():
    # The image map of e_i is kept per (i, L), but each call builds its
    # own operator, so no caller shares a mutable one.
    length = 3
    for i in range(length + 1):
        a, b = generator_matrix(i, length), generator_matrix(i, length)
        assert a == b and a is not b
        assert all(x is not y for x, y in zip(a.num_cols, b.num_cols))
        image = lambda j: index_of(apply_e(i, word_of(j, length)))
        assert a == SparseOperator.from_column_map(1 << length, image)


def test_generator_relations_small():
    length = 3
    es = [generator_matrix(i, length) for i in range(length + 1)]
    for i in range(length + 1):
        assert es[i] @ es[i] == es[i]
    # Braid relations hold for the interior centre index 1..L-1 only;
    # the neighbour may be a boundary generator.
    for i in range(1, length):
        assert es[i] @ es[i + 1] @ es[i] == es[i]
        assert es[i] @ es[i - 1] @ es[i] == es[i]
    for i, j in product(range(length + 1), repeat=2):
        if abs(i - j) >= 2:
            assert es[i] @ es[j] == es[j] @ es[i]


def test_boundary_centred_braids_fail():
    # e_0 e_1 e_0 = e_0 and e_L e_{L-1} e_L = e_L are not relations of
    # the algebra, and the representation separates them for L >= 2.
    length = 3
    es = [generator_matrix(i, length) for i in range(length + 1)]
    assert es[0] @ es[1] @ es[0] != es[0]
    assert es[length] @ es[length - 1] @ es[length] != es[length]


def test_braid_with_left_generator():
    # e_1 e_0 e_1 = e_1 is a defining relation; e_0 e_1 e_0 = e_0 is not
    # imposed, but it does hold here because dropped boundary arcs carry
    # weight one in this representation.
    e0 = generator_matrix(0, 1)
    e1 = generator_matrix(1, 1)
    assert e1 @ e0 @ e1 == e1
    assert e0 @ e1 @ e0 == e0


def test_idempotents_level_one():
    i1, i2 = idempotents(1)
    assert i1 == generator_matrix(1, 1)
    assert i2 == generator_matrix(0, 1)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_double_quotient(length):
    i1, i2 = idempotents(length)
    assert i1 @ i2 @ i1 == i1
    assert i2 @ i1 @ i2 == i2


def test_sparse_operator_algebra():
    dim = 4
    ident = SparseOperator.identity(dim)
    swap = SparseOperator.from_column_map(dim, lambda j: j ^ 1)
    assert swap @ swap == ident
    assert all(not c for c in (swap - swap).cols)
    two = Scalar.from_rational(2)
    assert (swap + swap) == swap.scale(two)
    assert ones(dim) @ ident == ones(dim) @ swap == ones(dim)
    assert swap.cols[0] == {1: ONE}
    vec = [Scalar.from_rational(k) for k in range(dim)]
    assert swap.apply(vec) == [vec[1], vec[0], vec[3], vec[2]]


def _scalar_product(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """Reference a @ b in Scalar arithmetic: a gcd per product and per sum."""
    cols = []
    for col in b.cols:
        acc: dict[int, Scalar] = {}
        for k, w in col.items():
            for r, v in a.cols[k].items():
                acc[r] = acc.get(r, ZERO) + v * w
        cols.append(acc)
    return SparseOperator(a.dim, cols)


def _scalar_apply(a: SparseOperator, vec: list[Scalar]) -> list[Scalar]:
    """Reference a.apply(vec) in Scalar arithmetic, as a dense dot product."""
    rows = dense_rows(a)
    return [sum((v * x for v, x in zip(row, vec)), ZERO) for row in rows]


def _random_operator(rng: Random, dim: int) -> SparseOperator:
    """Field-valued entries with signs, a denominator per column times
    1, 4 or 7 per entry, and about one empty column in five."""
    cols = []
    for _ in range(dim):
        col = {}
        if rng.random() >= 0.2:
            den = rng.choice((1, 2, 3, 6, 35))
            for r in rng.sample(range(dim), rng.randint(1, dim)):
                col[r] = Scalar(
                    [Fraction(rng.randint(-9, 9), den * rng.choice((1, 4, 7))) for _ in range(4)]
                )
        cols.append(col)
    return SparseOperator(dim, cols)


def test_compose_matches_scalar_product():
    rng = Random(14)
    drawn = []
    for dim in (1, 2, 4, 8):
        for _ in range(6):
            a, b = _random_operator(rng, dim), _random_operator(rng, dim)
            assert a @ b == _scalar_product(a, b)
            assert b @ a == _scalar_product(b, a)
            drawn += [a, b]
    # The draws reach every case of the integer path.
    entries = [v for op in drawn for col in op.cols for v in col.values()]
    assert any(v.coeffs[1] and v.coeffs[3] for v in entries)
    assert any(c < 0 for v in entries for c in v.coeffs)
    dens = [[{cleared([v])[1] for v in col.values()} for col in op.cols] for op in drawn]
    assert any(len(col) > 1 for op in dens for col in op)
    assert any(len({lcm(*col) for col in op if col}) > 1 for op in dens)
    assert any(not col for op in drawn for col in op.cols)


def test_apply_matches_scalar_dot_product():
    # Vectors with signed field entries over mixed denominators, about
    # two entries in five zero, and the zero vector.
    rng = Random(17)
    zeros = 0
    for dim in (1, 2, 4, 8):
        for _ in range(6):
            a = _random_operator(rng, dim)
            vec = [
                Scalar([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 35))) for _ in range(4)])
                if rng.random() >= 0.4
                else ZERO
                for _ in range(dim)
            ]
            zeros += vec.count(ZERO)
            assert a.apply(vec) == _scalar_apply(a, vec)
            assert a.apply([ZERO] * dim) == [ZERO] * dim
    assert zeros
    with pytest.raises(ValueError):
        SparseOperator.identity(2).apply([ONE])


def test_compose_with_zero_and_unit_operators():
    rng = Random(15)
    dim = 8
    zero = SparseOperator(dim, [{}] * dim)
    a = _random_operator(rng, dim)
    assert all(not c for op in (zero @ a, a @ zero, zero @ zero) for c in op.cols)
    assert (zero @ a).cols == [{}] * dim
    ident = SparseOperator.identity(dim)
    assert ident @ a == a and a @ ident == a
    for i, j in product(range(4), repeat=2):
        e, f = generator_matrix(i, 3), generator_matrix(j, 3)
        assert e @ f == _scalar_product(e, f)


def test_compose_drops_a_cancelled_entry():
    # Row 0 of column 0 is x y - y x = 0; row 1 is y.
    x = Scalar([Fraction(1, 2), Fraction(1, 2), 0, 0])
    y = Scalar([0, 0, 0, Fraction(1, 3)])
    a = SparseOperator(2, [{0: x, 1: ONE}, {0: y}])
    b = SparseOperator(2, [{0: y, 1: -x}, {}])
    prod = a @ b
    assert prod.cols == [{1: y}, {}]
    assert prod == _scalar_product(a, b)


def _dense_product(a: list[list[Scalar]], b: list[list[Scalar]]) -> list[list[Scalar]]:
    """Reference matrix product of dense Scalar rows."""
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)
    ]


def _has_zero_entry(op: SparseOperator) -> bool:
    return any(not any(n) for col in op.num_cols for n in col.values())


def test_integer_form_equality_ignores_the_denominator():
    # The same columns over d and over k d are one operator, with either
    # denominator on either side; the Scalar constructor agrees.
    cols = [{0: (3, 0, -1, 2), 2: (0, 5, 0, 0)}, {}, {1: (-7, 0, 0, 1)}]
    for d, k in ((1, 2), (6, 35), (2**70 + 1, 3)):
        a = SparseOperator.from_integers(cols, d)
        b = SparseOperator.from_integers(
            [{r: tuple(k * x for x in n) for r, n in col.items()} for col in cols], k * d
        )
        assert a == b and b == a
        assert a == SparseOperator(3, a.cols)
        assert a.cols == b.cols


def test_integer_form_inequality():
    cols = [{0: (3, 0, -1, 2), 2: (0, 5, 0, 0)}, {}, {1: (-7, 0, 0, 1)}]
    a = SparseOperator.from_integers(cols, 6)
    scaled = SparseOperator.from_integers(
        [{r: tuple(2 * x for x in n) for r, n in col.items()} for col in cols], 12
    )
    for col, row in ((0, 0), (0, 2), (2, 1)):
        for t in range(4):
            for den, base in ((6, cols), (12, scaled.num_cols)):
                changed = [dict(c) for c in base]
                n = list(changed[col][row])
                n[t] += 1  # one numerator off by one
                changed[col][row] = tuple(n)
                other = SparseOperator.from_integers(changed, den)
                assert a != other and other != a, (col, row, t, den)
    # The same values on different rows, an entry more, or one fewer.
    moved = [{1: (3, 0, -1, 2), 2: (0, 5, 0, 0)}, {}, {1: (-7, 0, 0, 1)}]
    extra = [{0: (3, 0, -1, 2), 2: (0, 5, 0, 0)}, {0: (1, 0, 0, 0)}, {1: (-7, 0, 0, 1)}]
    fewer = [{0: (3, 0, -1, 2)}, {}, {1: (-7, 0, 0, 1)}]
    for other in (moved, extra, fewer):
        for den in (6, 12):
            assert a != SparseOperator.from_integers(other, den)
    assert a != SparseOperator.from_integers(cols[:2], 6)


def test_cols_reads_out_the_constructor_columns():
    # Every nonzero entry reads back as given; zero entries are dropped.
    rng = Random(22)
    for dim in (1, 2, 4, 8):
        for _ in range(4):
            cols = _random_operator(rng, dim).cols
            given = [dict(col) for col in cols]
            for col in given[: dim // 2]:
                col[dim - 1] = ZERO
            op = SparseOperator(dim, given)
            assert op.cols == [{r: v for r, v in col.items() if v} for col in given]
            assert not _has_zero_entry(op)
    # identity and from_column_map hold unit numerators over 1.
    ident = SparseOperator.identity(3)
    assert ident.den == 1 and ident.cols == [{0: ONE}, {1: ONE}, {2: ONE}]


@pytest.mark.parametrize("length", [1, 2, 3])
def test_integer_arithmetic_matches_dense_scalar_arithmetic(length):
    # compose, apply, scale and + against dense arithmetic in Scalars on
    # `dense_rows`, with empty columns and entries that cancel.
    rng = Random(220 + length)
    dim = 1 << length
    e = [generator_matrix(i, length) for i in range(length + 1)]
    for _ in range(6):
        a, b = _random_operator(rng, dim), _random_operator(rng, dim)
        ra, rb = dense_rows(a), dense_rows(b)
        s = Scalar([Fraction(rng.randint(-9, 9), rng.choice((1, 5, 6))) for _ in range(4)])
        assert dense_rows(a @ b) == _dense_product(ra, rb)
        assert dense_rows(a + b) == [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
        assert dense_rows(a - b) == [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
        assert dense_rows(a.scale(s)) == [[x * s for x in row] for row in ra]
        sums = [sum((row[j] for row in rb), ZERO) for j in range(dim)]
        vec = [v if rng.random() < 0.7 else ZERO for v in sums]
        assert a.apply(vec) == [sum((x * y for x, y in zip(row, vec)), ZERO) for row in ra]
        # Entries that cancel: a - a, a + (-1) a and a scaled by 0; below,
        # e_i (1 - e_i) = 0 cancels every product entry.
        for zero in (a - a, a + a.scale(-ONE), a.scale(ZERO)):
            assert zero.num_cols == [{}] * dim and zero == SparseOperator(dim, [{}] * dim)
        for op in (a @ b, a + b, a - b, a.scale(s)):
            assert not _has_zero_entry(op)
    ident = SparseOperator.identity(dim)
    for x in e:
        prod = x @ (ident - x)
        assert prod.num_cols == [{}] * dim
        assert dense_rows(prod) == _dense_product(dense_rows(x), dense_rows(ident - x))
    assert ones(dim) @ e[0] == ones(dim)


def test_naive_transfer_matrices_commute():
    rng = Random(16)
    pt = draw_point(rng, 3)
    (w2,) = generic_parameters(rng, 1, avoid=[pt.w.rational_value()])
    tmat = transfer_matrix_naive(pt)
    other = transfer_matrix_naive(pt.with_w(w2))
    assert tmat != other
    assert tmat @ other == other @ tmat == _scalar_product(tmat, other)


def test_c_from_zeta_values():
    assert c_from_zeta(ONE) == ONE
    assert c_from_zeta(Scalar.from_rational(2)) == Scalar.from_rational(Fraction(4, 7))
    # zeta^2 = q makes 1 + zeta^2 + zeta^-2 = 0.
    zeta = ZETA ** 2
    assert zeta * zeta == Q
    with pytest.raises(SingularParameterError):
        c_from_zeta(zeta)


def test_hamiltonian_column_sums_vanish():
    # The sum over all patterns is a left eigenvector with eigenvalue 0:
    # every generator preserves total weight, so H has zero column sums.
    c1 = Scalar.from_rational(Fraction(4, 7))
    c2 = Scalar.from_rational(Fraction(3, 5))
    for length in (1, 2, 3):
        dim = 1 << length
        assert ones(dim) @ hamiltonian(length, c1, c2) == SparseOperator(dim, [{}] * dim)


def test_insert_helpers():
    assert insert_link(1, "") == "()"
    assert insert_link(2, ")(") == ")()("
    assert insert_link(3, ")(") == ")(()"
    assert insert_left(")(") == "))("
    assert insert_right(")(") == ")(("
    with pytest.raises(ValueError):
        insert_link(4, ")(")
    # The new arch is a small link at (i, i+1) whose removal restores
    # the original word.
    rng = Random(2)
    for word in all_patterns(4):
        i = rng.randint(1, 5)
        grown = insert_link(i, word)
        assert grown[i - 1 : i + 1] == "()"
        assert seed(grown)[i] == i + 1
        assert grown[: i - 1] + grown[i + 1 :] == word
