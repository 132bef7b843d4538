"""Two-boundary link patterns and the diagram generators acting on them."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from openloop import (
    ONE,
    Q,
    Scalar,
    SingularParameterError,
    all_patterns,
    apply_e,
    c_from_zeta,
    closure,
    generator_matrix,
    hamiltonian,
    idempotents,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    word_of,
)
from openloop.linkpat import (
    LEFT_WALL,
    RIGHT_WALL,
    SparseOperator,
    new_pair,
    read_word,
    seed,
    swap,
    validate_pattern,
)


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


def test_closure_examples():
    m = closure("()")
    assert m.pairs == frozenset({(1, 2)})
    assert m.left == frozenset() and m.right == frozenset()
    m = closure(")(")
    assert m.pairs == frozenset()
    assert m.left == frozenset({1}) and m.right == frozenset({2})
    m = closure("(())((")
    assert m.pairs == frozenset({(2, 3), (1, 4)})
    assert m.right == frozenset({5, 6})


def test_closure_roundtrip():
    for word in all_patterns(6):
        assert read_word(seed(word), range(1, 7)) == word


def test_swap_crosses_two_strand_ends():
    # Crossing twice restores every state, auxiliary strand included.
    for word in all_patterns(4):
        st = seed(word)
        new_pair(st, -1, -2)
        before = dict(st)
        for j in range(1, 5):
            swap(st, j, -2)
            assert st[j] == ("P", -1) and st[-1] == ("P", j)
            swap(st, j, -2)
            assert st == before
    # Crossing the two ends of one strand changes nothing.
    st = seed("()")
    swap(st, 1, 2)
    assert st == seed("()")
    # A wall end moves with its slot, and the partner follows the other.
    st = seed(")()")
    swap(st, 1, 2)
    assert st == {1: ("P", 3), 3: ("P", 1), 2: LEFT_WALL}
    st = seed(")(")
    swap(st, 1, 2)
    assert st == {1: RIGHT_WALL, 2: LEFT_WALL}


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
            image = closure(apply_e(i, word))
            assert (i, i + 1) in image.pairs
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
        rows = e.to_rows()
        for col in range(1 << length):
            entries = [row[col] for row in rows if not row[col].is_zero()]
            assert entries == [ONE]


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
    assert (swap - swap).is_zero()
    two = Scalar.from_rational(2)
    assert (swap + swap) == swap.scale(two)
    assert ident.column_sums() == [ONE] * dim
    assert swap.entry(1, 0) == ONE and swap.entry(0, 0).is_zero()
    vec = [Scalar.from_rational(k) for k in range(dim)]
    assert swap.apply(vec) == [vec[1], vec[0], vec[3], vec[2]]


def test_c_from_zeta_values():
    assert c_from_zeta(ONE) == ONE
    assert c_from_zeta(Scalar.from_rational(2)) == Scalar.from_rational(Fraction(4, 7))
    # zeta^2 = q makes 1 + zeta^2 + zeta^-2 = 0.
    zeta = Scalar.root_of_unity(2)
    assert zeta * zeta == Q
    with pytest.raises(SingularParameterError):
        c_from_zeta(zeta)


def test_hamiltonian_column_sums_vanish():
    # The sum over all patterns is a left eigenvector with eigenvalue 0:
    # every generator preserves total weight, so H has zero column sums.
    c1 = Scalar.from_rational(Fraction(4, 7))
    c2 = Scalar.from_rational(Fraction(3, 5))
    for length in (1, 2, 3):
        h = hamiltonian(length, c1, c2)
        assert all(v.is_zero() for v in h.column_sums())


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
        assert (i, i + 1) in closure(grown).pairs
        assert grown[: i - 1] + grown[i + 1 :] == word
