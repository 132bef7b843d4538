"""Arithmetic in Q(zeta12) and the bracket / boundary kernel functions."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from openloop import FOURTH_ROOTS, IMAG, ONE, Q, ZERO, ZETA, Scalar, bracket, kfun
from openloop.exactfield import addmul, cleared, ring_degree

from helpers import rational


def test_defining_relation():
    # zeta^4 = zeta^2 - 1, hence zeta is a primitive 12th root of unity.
    assert ZETA**4 == ZETA * ZETA - ONE
    assert ZETA**12 == ONE
    assert ZETA**6 == -ONE
    assert all(ZETA**k != ONE for k in range(1, 12))


def test_distinguished_elements():
    assert Q == ZETA**4
    assert Q**3 == ONE
    assert Q + Q.inv() == -ONE
    assert IMAG == ZETA**3
    assert IMAG * IMAG == -ONE
    assert FOURTH_ROOTS == {"1": ONE, "-1": -ONE, "i": IMAG, "-i": -IMAG}
    assert all(s**4 == ONE for s in FOURTH_ROOTS.values())


def test_rational_embedding():
    x = Scalar.from_rational(Fraction(7, 3))
    assert x.is_rational()
    assert x.rational_value() == Fraction(7, 3)
    assert not ZETA.is_rational()
    with pytest.raises(ValueError):
        ZETA.rational_value()
    assert Scalar.from_rational(0).is_zero()
    assert bool(ONE) and not bool(ZERO)


def test_scalars_combine_and_compare_only_with_scalars():
    # An int or a Fraction enters the field only through a constructor:
    # mixed arithmetic on either side is a TypeError and mixed equality
    # is False, so a Scalar and the number it names are two set members.
    for number in (1, Fraction(1, 2)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
            for left, right in ((ONE, number), (number, ONE)):
                with pytest.raises(TypeError):
                    op(left, right)
    assert not ONE == 1 and ONE != 1 and not ZERO == Fraction(0)
    assert len({ONE, 1}) == 2 and len({ZERO, Fraction(0)}) == 2
    # The hash is that of the canonical (numerators, denominator), so equal
    # Scalars built different ways hash alike.
    half = Scalar.from_rational(Fraction(1, 2))
    for built in (
        Scalar.from_integers((3, 0, 0, 0), 6),
        Scalar((Fraction(1, 2), 0, 0, 0)),
        ONE - half,
        ONE / rational(2),
    ):
        assert built == half and hash(built) == hash(half) == hash(((1, 0, 0, 0), 2))
    zeta = Scalar.from_integers((0, 4, 0, 0), 4)
    assert zeta == ZETA == ZETA**13 and hash(zeta) == hash(ZETA) == hash(ZETA**13)
    assert hash(ONE + ZETA) != hash(ONE) and hash(ZERO) == hash(((0, 0, 0, 0), 1))


def test_inverse_and_powers():
    rng = Random(7)
    for _ in range(25):
        x = Scalar([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        if x.is_zero():
            continue
        assert x * x.inv() == ONE
        assert x**3 == x * x * x
        assert x**-2 == (x * x).inv()
    assert ZERO**0 == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def _three_conjugate_inverse(x: Scalar) -> Scalar:
    """1 / x as the product of the Galois conjugates zeta -> zeta^5,
    zeta^7, zeta^11 over the norm, with no call to Scalar.inv."""
    adj = ONE
    for k in (5, 7, 11):
        terms = (Scalar.from_rational(c) * ZETA ** (j * k) for j, c in enumerate(x.coeffs))
        adj = adj * sum(terms, ZERO)
    norm = (x * adj).rational_value()
    return adj * Scalar.from_rational(1 / norm)


def test_inverse_on_the_subfield_q_sqrt_minus_3():
    # c1 = c3 = 0: the one conjugate zeta^2 -> 1 - zeta^2 over the norm
    # c0^2 + c0 c2 + c2^2.  A norm of the wrong sign or the conjugate
    # zeta^2 -> -zeta^2 fails both checks.
    rng = Random(11)
    units = [ZETA ** (2 * k) for k in range(6)]
    drawn = [
        Scalar((Fraction(rng.randint(-30, 30)), 0, Fraction(rng.randint(-30, 30)), 0))
        / rational(rng.randint(1, 40))
        for _ in range(60)
    ]
    rationals = [Scalar.from_rational(f) for f in (1, -1, 7, Fraction(-3, 8), Fraction(2**70, 3))]
    for x in units + [Q, ONE - Q, Q * rational(5) - rational(2)] + drawn + rationals:
        if x.is_zero():
            continue
        assert x.coeffs[1] == x.coeffs[3] == 0
        assert x * x.inv() == ONE, x
        assert x.inv() == _three_conjugate_inverse(x), x
    assert (ONE - Q).inv() == (ONE - Q.inv()) / rational(3)  # norm 3
    assert Q.inv() == Q * Q


def test_ring_operations_match_coefficientwise_fractions():
    # Denominators sharing factors exercise the partial cancellation in
    # addition; results must stay canonical, so equal values hash alike.
    rng = Random(17)

    def draw():
        return [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 9, 12, 35)))
                for _ in range(4)]

    for _ in range(200):
        a, b = draw(), draw()
        x, y = Scalar(a), Scalar(b)
        assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
        assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
        t = [Fraction(0)] * 7
        for i in range(4):
            for j in range(4):
                t[i + j] += a[i] * b[j]
        assert (x * y).coeffs == (t[0] - t[4] - t[6], t[1] - t[5], t[2] + t[4], t[3] + t[5])
        back = (x + y) - y
        assert back == x and hash(back) == hash(x)
    assert (x - x).is_zero() and x - x == ZERO and hash(x - x) == hash(ZERO)


def _accumulated(acc: dict, b, items) -> dict:
    """addmul on a copy of acc, read back as Scalars over denominator 1."""
    acc = dict(acc)
    addmul(acc, b, items)
    return {k: Scalar.from_integers(n, 1) for k, n in acc.items()}


def test_addmul_multiplies_units_as_scalars_do():
    # All 16 products zeta^j zeta^k, j, k = 0..3, reduced by zeta^4 = zeta^2 - 1.
    units = [tuple(int(k == t) for t in range(4)) for k in range(4)]
    for a in units:
        for b in units:
            ab = Scalar.from_integers(a, 1) * Scalar.from_integers(b, 1)
            assert _accumulated({}, b, [("k", a)]) == {"k": ab}
            # Added onto a unit already stored under the key; zeta^3 zeta^3
            # onto 1 cancels and removes the key.
            for u in units:
                total = Scalar.from_integers(u, 1) + ab
                assert _accumulated({"k": u}, b, [("k", a)]) == ({"k": total} if total else {})


def test_addmul_matches_scalar_arithmetic_on_random_numerators():
    rng = Random(21)
    for _ in range(200):
        b = tuple(rng.randint(-50, 50) for _ in range(4))
        if not any(b):
            continue
        acc = {k: tuple(rng.randint(-50, 50) for _ in range(4)) for k in rng.sample(range(6), 3)}
        acc = {k: n for k, n in acc.items() if any(n)}
        items = [(k, tuple(rng.randint(-50, 50) for _ in range(4))) for k in range(6)]
        items = [(k, a) for k, a in items if any(a)]
        expected = {k: Scalar.from_integers(n, 1) for k, n in acc.items()}
        bs = Scalar.from_integers(b, 1)
        for k, a in items:
            expected[k] = expected.get(k, ZERO) + Scalar.from_integers(a, 1) * bs
        assert _accumulated(acc, b, items) == {k: v for k, v in expected.items() if v}


def test_addmul_removes_a_cancelled_sum():
    # (1 + zeta) zeta^2 cancels the stored -(zeta^2 + zeta^3); key 1 is new.
    acc = {0: (0, 0, -1, -1), 2: (5, 0, 0, 0)}
    addmul(acc, (0, 0, 1, 0), [(0, (1, 1, 0, 0)), (1, (0, 0, 0, 1))])
    assert acc == {2: (5, 0, 0, 0), 1: (0, -1, 0, 1)}
    assert 0 not in acc


def test_addmul_on_every_mix_of_even_and_odd_factors():
    # "Even" numerators have no zeta or zeta^3 part.  An even a times an
    # even b takes the Z[omega] product, omega = zeta^2, and any other
    # term the full Z[zeta] one; each sum must match Scalar arithmetic.
    # An accumulator entry with zeta and zeta^3 parts keeps them under an
    # even product, and an even product that cancels deletes its entry.
    even_a, even_b = (3, 0, -5, 0), (-2, 0, 7, 0)
    odd_a, odd_b = (1, 4, 0, -2), (0, -3, 2, 5)
    held = (6, -1, 2, 9)
    for stored in (None, held, (0, 0, 4, 0)):
        acc = {} if stored is None else {"k": stored}
        for a, b in ((even_a, even_b), (even_a, odd_b), (odd_a, even_b), (odd_a, odd_b)):
            total = Scalar.from_integers(a, 1) * Scalar.from_integers(b, 1)
            if stored is not None:
                total = total + Scalar.from_integers(stored, 1)
            assert _accumulated(acc, b, [("k", a)]) == {"k": total}, (stored, a, b)
    acc = {}
    addmul(acc, even_b, [("k", even_a)])
    assert acc["k"][1] == acc["k"][3] == 0
    addmul(acc, (2, 0, -7, 0), [("k", even_a)])
    assert acc == {}
    acc = {"k": held}
    addmul(acc, even_b, [("k", even_a)])
    assert acc["k"][1] == held[1] and acc["k"][3] == held[3]


def test_ring_degree_reads_the_smallest_ring():
    assert ring_degree([]) == 1
    assert ring_degree([(3, 0, 0, 0), (-1, 0, 0, 0)]) == 1
    assert ring_degree([(3, 0, 0, 0), (0, 0, 2, 0)]) == 2
    assert ring_degree([(0, 0, 2, 0), (0, 1, 0, 0)]) == 4
    assert ring_degree([(1, 0, 0, -1)]) == 4


def test_cleared_keeps_numerators_already_over_the_lcm():
    x, y = Scalar([Fraction(1, 6), 0, Fraction(1, 3), 0]), Scalar([Fraction(5, 2), 1, 0, 0])
    (nx, ny), d = cleared([x, y])
    assert d == 6 and nx is x._n and ny == (15, 6, 0, 0)
    assert [Scalar.from_integers(n, d) for n in (nx, ny)] == [x, y]
    assert cleared([]) == ([], 1)


def test_hash_consistency():
    a = Scalar((1, 0, 2, 0))
    b = Scalar((Fraction(1), Fraction(0), Fraction(2), Fraction(0)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_bracket_antisymmetry():
    rng = Random(11)
    for _ in range(20):
        x = Scalar.from_rational(Fraction(rng.randint(1, 40), rng.randint(1, 40)))
        assert bracket(x.inv()) == -bracket(x)
        assert bracket(-x) == -bracket(x)
    assert bracket(ONE).is_zero()
    assert bracket(Q) == ZETA**2 + ZETA**2 - ONE  # q - 1/q = 2 zeta^2 - 1


def test_bracket_square_of_q_is_minus_three():
    assert bracket(Q) * bracket(Q) == Scalar.from_rational(-3)


def test_kernel_at_unit_arguments():
    # k(1, 1) = [1/q][1/q] = [q]^2 = -3.
    assert kfun(ONE, ONE) == Scalar.from_rational(-3)


def test_kernel_inversion_offset():
    # k(z, zeta) - [q][z^2] = k(1/z, zeta): the boundary weight identity
    # that makes the K operator rows sum to one.
    rng = Random(13)
    for _ in range(15):
        z = Scalar.from_rational(Fraction(rng.randint(2, 30), rng.randint(1, 30)))
        zeta = Scalar.from_rational(Fraction(rng.randint(2, 30), rng.randint(1, 30)))
        assert kfun(z, zeta) - bracket(Q) * bracket(z * z) == kfun(z.inv(), zeta)


def test_kernel_is_not_symmetric():
    two = Scalar.from_rational(2)
    three = Scalar.from_rational(3)
    assert kfun(two, three) != kfun(three, two)
