"""Arithmetic in Q(zeta12) and the bracket / boundary kernel functions."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from openloop import IMAG, ONE, Q, ZERO, ZETA, Scalar, bracket, fourth_roots, kfun
from openloop.exactfield import addmul, cleared


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
    assert fourth_roots() == (ONE, IMAG, -ONE, -IMAG)
    assert all(s**4 == ONE for s in fourth_roots())


def test_rational_embedding():
    x = Scalar.from_rational(Fraction(7, 3))
    assert x.is_rational()
    assert x.rational_value() == Fraction(7, 3)
    assert not ZETA.is_rational()
    with pytest.raises(ValueError):
        ZETA.rational_value()
    assert Scalar.from_rational(0).is_zero()
    assert bool(ONE) and not bool(ZERO)


def test_mixed_arithmetic_with_ints_and_fractions():
    x = Scalar.from_rational(Fraction(1, 2))
    assert x + 1 == Scalar.from_rational(Fraction(3, 2))
    assert 1 - x == x
    assert 2 * x == ONE
    assert x / Fraction(1, 2) == ONE
    assert (ONE + ZETA) - ZETA == ONE


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
