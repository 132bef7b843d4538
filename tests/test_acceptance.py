"""Acceptance suite: one test and one printed pass/fail line per guarantee.

Run as `pytest -s tests/test_acceptance.py -v` to see the lines as the
criteria complete.  Everything is exact arithmetic; there are no
tolerances anywhere, an equality either holds or the criterion fails.
"""

from __future__ import annotations

from random import Random

from openloop import (
    ONE,
    GroundstateVector,
    character_auto,
    check_sum_rule,
    closed_form_all_close,
    closed_form_all_open,
    eval_s,
    fourth_roots,
    hamiltonian,
    c_from_zeta,
    kfun,
    reconstruct_partial_L3,
    run_suite,
    solve,
    solve_homogeneous,
    sum_components,
    z_product,
)
from openloop.groundstate import a_const, check_vanishing, interpolate_all

from helpers import draw_point, rational


def _report(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:>2} FAIL  {desc}")
        raise
    print(f"criterion {num:>2} PASS  {desc}")


def _suite_green(name: str, length: int, trials: int, seed: int) -> None:
    for label, ok in run_suite(name, length, trials, seed):
        assert ok, f"{name} (L={length}): {label}"


# Homogeneous groundstates are the slowest solves here; criteria 7 and 9
# share them through this cache.
_HOM: dict[tuple[int, int, int], GroundstateVector] = {}


def _homogeneous(length: int, z1: int, z2: int) -> GroundstateVector:
    key = (length, z1, z2)
    if key not in _HOM:
        _HOM[key] = solve_homogeneous(length, rational(z1), rational(z2))
    return _HOM[key]


def test_criterion_01_algebra_relations():
    def body():
        for length in range(1, 9):
            _suite_green("algebra", length, 1, seed=length)

    _report(1, "defining relations and double quotient, L = 1..8", body)


def test_criterion_02_local_identities():
    def body():
        _suite_green("local", 3, 20, seed=2)

    _report(2, "unitarity, exchange, reflection, crossing and tile scalars at 20 points", body)


def test_criterion_03_transfer_matrix():
    def body():
        for length in range(1, 6):
            _suite_green("transfer", length, 5, seed=30 + length)

    _report(3, "transfer matrix identities for L <= 5, oracle equality for L <= 4", body)


def test_criterion_04_groundstate_and_closed_forms():
    def body():
        # Uniqueness of the fixed vector and w-independence, L = 1..6.
        for length in range(1, 7):
            rng = Random(40 + length)
            gs = solve(draw_point(rng, length))
            assert gs.normalization == "all_open"

        # L = 1: both components in closed form.
        for s in fourth_roots():
            pt = draw_point(Random(44), 1, s=s)
            gs = solve(pt, check_w=False)
            s2 = s * s
            assert gs["("] == -kfun(pt.z[0], pt.zeta1)
            assert gs[")"] == -(s2 * kfun((s * pt.z[0]).inv(), s * pt.zeta2))

        # L = 2: extremal components in closed form, the other two from
        # the boundary coefficient operators.
        pt = draw_point(Random(45), 2)
        gs = solve(pt, check_w=False)
        z1, z2 = pt.z
        opens = (pt.zeta1, z1, z2)
        prod_open = ONE
        for i in range(3):
            for j in range(i + 1, 3):
                prod_open = prod_open * kfun(opens[j], opens[i])
        assert gs["(("] == -prod_open * character_auto(
            (1, 0, 0), [z1 * z1, z2 * z2, pt.zeta2 * pt.zeta2]
        )
        closes = (z1, z2, pt.zeta2)
        prod_close = ONE
        for i in range(3):
            for j in range(i + 1, 3):
                prod_close = prod_close * kfun(closes[i].inv(), closes[j])
        assert gs["))"] == -prod_close * character_auto(
            (1, 0, 0), [pt.zeta1 * pt.zeta1, z1 * z1, z2 * z2]
        )
        assert gs["()"] == eval_s(0, closed_form_all_close, pt)
        mixed = lambda p: eval_s(0, closed_form_all_close, p)
        assert gs[")("] == eval_s(1, mixed, pt) - gs["))"] - gs["(("]

        # L = 3: extremal components carry the extra staircase factor
        # g_3 = chi_(1,0,0)(z^2).
        pt = draw_point(Random(46), 3)
        gs = solve(pt, check_w=False)
        zs = pt.z
        g3 = character_auto((1, 0, 0), [z * z for z in zs])
        opens = (pt.zeta1,) + zs
        prod_open = ONE
        for i in range(4):
            for j in range(i + 1, 4):
                prod_open = prod_open * kfun(opens[j], opens[i])
        web = character_auto((1, 1, 0, 0), [z * z for z in zs] + [pt.zeta2 * pt.zeta2])
        assert a_const(3) == ONE
        assert gs["((("] == prod_open * web * g3
        closes = zs + (pt.zeta2,)
        prod_close = ONE
        for i in range(4):
            for j in range(i + 1, 4):
                prod_close = prod_close * kfun(closes[i].inv(), closes[j])
        web_close = character_auto(
            (1, 1, 0, 0), [pt.zeta1 * pt.zeta1] + [z * z for z in zs]
        )
        assert gs[")))"] == prod_close * web_close * g3

    _report(4, "unique w-independent fixed vector, closed forms at L = 1, 2, 3", body)


def test_criterion_05_qkz_relations():
    def body():
        for length in range(1, 5):
            _suite_green("qkz", length, 5, seed=50 + length)

    _report(5, "exchange and wall relations for L <= 4, five points, all four s", body)


def test_criterion_06_recursion_factors():
    def body():
        for length in (2, 3, 4):
            _suite_green("recursion", length, 2, seed=60 + length)

    _report(6, "bulk and boundary recursion factors for L = 2, 3, 4, bulk one i-independent", body)


def test_criterion_07_sum_rule():
    def body():
        for length in range(1, 6):
            assert check_sum_rule(draw_point(Random(70 + length), length))
        for length in range(1, 6):
            gs = _homogeneous(length, 2, 3)
            total = sum_components(gs)
            assert total == z_product(gs.point)
            assert total.is_rational() and total.rational_value() > 0

    _report(7, "component sum equals the character product, L = 1..5, and at z = 1", body)


def test_criterion_08_degree_window_and_vanishing():
    def body():
        for length in range(1, 5):
            pt = draw_point(Random(80 + length), length)
            bound = 2 * length - 1
            for var in range(1, length + 1):
                for word, poly in interpolate_all(var, pt).items():
                    if not poly.is_zero():
                        assert poly.max_exp <= bound and poly.min_exp >= -bound
        for length in (2, 3, 4):
            pt = draw_point(Random(85 + length), length)
            assert check_vanishing(pt) == [True] * (length + 1)

    _report(8, "degree of each component <= 2L-1 per z_i^2 for L <= 4, vanishing at walls", body)


def test_criterion_09_homogeneous_hamiltonian():
    def body():
        for length in range(1, 6):
            gs = _homogeneous(length, 2, 3)
            h = hamiltonian(length, c_from_zeta(rational(2)), c_from_zeta(rational(3)))
            assert all(v.is_zero() for v in h.apply(list(gs.components)))
        # Fully isotropic couplings c_1 = c_2 = 1.
        gs = _homogeneous(3, 1, 1)
        h = hamiltonian(3, ONE, ONE)
        assert all(v.is_zero() for v in h.apply(list(gs.components)))

    _report(9, "H(c1, c2) annihilates the homogeneous groundstate, L <= 5", body)


def test_criterion_10_chain_reconstruction():
    def body():
        pt = draw_point(Random(100), 3)
        rec = reconstruct_partial_L3(closed_form_all_open, closed_form_all_close, pt)
        gs = solve(pt, normalization="all_open", check_w=False)
        assert set(rec.determined) == {"(((", "(()", "()(", "())", ")()", ")))"}
        for word, value in rec.determined.items():
            assert value == gs[word]
        # The two skipped components are pinned only through their sum.
        assert rec.undetermined == (")((", "))(")
        assert rec.pair_sum == gs[")(("] + gs["))("]
        assert gs[")(("] != gs["))("]  # parts differ, so the sum alone is weaker
        assert rec.obstruction_residual.is_zero()

    _report(10, "L = 3 coefficient chains match the solver and expose the two-component gap", body)
