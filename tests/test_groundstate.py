"""Groundstate solver: closed forms, exchange relations, recursions, sum rule."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb
from random import Random

import pytest

from openloop import (
    ConsistencyError,
    IMAG,
    NonGenericPointError,
    ONE,
    Q,
    Scalar,
    SingularParameterError,
    SpectralPoint,
    ZETA,
    check_T_recursion,
    check_hamiltonian,
    check_interlace,
    check_qkz,
    check_recursion,
    check_sum_rule,
    check_vanishing,
    closed_form_all_close,
    closed_form_all_open,
    eval_s,
    generic_parameters,
    groundstate,
    interpolate_all,
    kfun,
    pi_point,
    qkz_components,
    reconstruct_partial_L3,
    reduction,
    solve,
    solve_homogeneous,
    sum_components,
    transfer_matrix,
    z_product,
)
from openloop import exactla, transfer
from openloop.exactfield import FOURTH_ROOTS, cleared
from openloop.exactla import kernel_vector
from openloop.groundstate import SOLVE_CAP, a_const, recursion_factor
from openloop.linkpat import SparseOperator
from openloop.transfer import exchange_coefficients

from helpers import draw_point, laurent_value, rational, spy_lifting


def test_generic_parameters_avoid_degeneracies():
    rng = Random(5)
    vals = generic_parameters(rng, 6, avoid=[Fraction(2)])
    assert len(vals) == 6
    fracs = [v.rational_value() for v in vals]
    assert len(set(fracs)) == 6
    for f in fracs:
        assert f != 0 and abs(f) != 1 and abs(f * 2) != 1 and abs(f / 2) != 1
    for i, f in enumerate(fracs):
        for g in fracs[:i]:
            assert abs(f * g) != 1 and abs(f / g) != 1


def test_generic_parameters_keep_existing_draws():
    def draw(seed, count):
        return [str(v.rational_value()) for v in generic_parameters(Random(seed), count)]

    assert draw(5, 6) == ["-1/6", "7", "5/4", "-8/3", "3/2", "1/3"]
    assert draw(0, 4) == ["3/7", "-8/5", "7/8", "3/5"]
    assert draw(17, 3) == ["8/5", "-6", "-2/7"]


def test_generic_parameters_widen_after_the_pool_runs_out():
    # The |p|, q <= 9 pool holds 27 values up to sign and inversion, so
    # 40 draws must widen the range instead of looping forever.
    code = (
        "from random import Random\n"
        "from openloop.groundstate import generic_parameters\n"
        "vals = [v.rational_value() for v in generic_parameters(Random(0), 40)]\n"
        "assert len(set(vals)) == 40\n"
        "assert max(max(abs(f.numerator), f.denominator) for f in vals) > 9\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_generic_parameters_keep_their_widened_draws():
    # Random(0) runs the |p|, q <= 9 pool dry after 27 draws; the 13
    # after it come from the widened range, and stay as they were drawn.
    vals = [str(v.rational_value()) for v in generic_parameters(Random(0), 40)]
    assert vals[27:] == [
        "-16/9", "7/18", "-11/16", "1/13", "3/10", "3/11", "1/11",
        "18/13", "-13/3", "-13/7", "-12/13", "-14", "-16/7",
    ]
    assert vals[:4] == ["3/7", "-8/5", "7/8", "3/5"]


def test_interpolation_draws_its_nodes_from_one_stream(monkeypatch):
    # The nodes of one interpolation exclude each other as the draws of
    # one generic_parameters call do, and stay as they were drawn.
    nodes = []
    inner = groundstate.solve

    def spy(pt, **kwargs):
        nodes.append(str(pt.z[0].rational_value()))
        return inner(pt, **kwargs)

    monkeypatch.setattr(groundstate, "solve", spy)
    interpolate_all(1, draw_point(Random(45), 3))
    assert nodes == [
        "-9/5", "4/7", "7/6", "-5/4", "-1/8", "-9/4", "5",
        "-3", "2/3", "-2", "-4/3", "1/9", "-7/2",
    ]
    expected = [str(v.rational_value()) for v in generic_parameters(Random(23), 13)]
    assert nodes == expected


def test_vanishing_homogeneous_anchor_raises():
    # zeta_1 = zeta12^2 makes the all-open closed form vanish at z_i = 1.
    code = (
        "from openloop import ZETA, NonGenericPointError, Scalar, solve_homogeneous\n"
        "try:\n"
        "    solve_homogeneous(2, ZETA ** 2, Scalar.from_rational(3))\n"
        "except NonGenericPointError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no NonGenericPointError')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_anchor_constant_signs():
    # (-1)^{L(L+1)/2}: pattern + - - + + - - ...
    signs = [a_const(length) for length in range(6)]
    assert signs == [ONE, -ONE, -ONE, ONE, ONE, -ONE]


def test_anchor_constant_ratios_are_the_recursion_signs():
    # recursion_factor uses these constants in place of the A-ratios.
    for length in range(2, 13):
        assert a_const(length) / a_const(length - 2) == -ONE
    for length in range(1, 13):
        assert a_const(length) / a_const(length - 1) == (-ONE) ** length


def test_solve_level_zero():
    pt = SpectralPoint(z=(), zeta1=rational(2), zeta2=rational(3), w=rational(5, 2))
    gs = solve(pt)
    assert gs.components == (ONE,)
    assert gs.normalization == "all_open"


def test_solve_cap_guard():
    zs = tuple(rational(k + 2) for k in range(SOLVE_CAP + 1))
    pt = SpectralPoint(z=zs, zeta1=rational(31), zeta2=rational(37), w=rational(41, 2))
    with pytest.raises(ValueError):
        solve(pt)


def test_solve_reaches_seven_sites():
    # A certified L = 7 solve, with the second-w check, anchored to the
    # all-open closed form.
    pt = draw_point(Random(46), 7)
    gs = solve(pt)
    assert gs.normalization == "all_open"
    assert sum_components(gs) == z_product(pt)


def test_solve_computes_each_points_tile_weights_once(monkeypatch):
    # The second-w check and the homogeneous point run their own sweep at
    # each candidate w and move on only at a pole, so no weights are
    # computed just to probe a candidate.
    counts = Counter()
    tile_weights = transfer._tile_weights

    def counting(pt):
        counts[pt] += 1
        return tile_weights(pt)

    monkeypatch.setattr(transfer, "_tile_weights", counting)
    pt = draw_point(Random(48), 3)
    solve(pt)
    assert pt in counts and len(counts) == 2
    assert set(counts.values()) == {1}
    counts.clear()
    solve_homogeneous(2, rational(2), rational(3))
    assert len(counts) == 2 and set(counts.values()) == {1}


@pytest.mark.parametrize("length", [1, 2, 3])
def test_solve_matches_both_closed_forms(length):
    rng = Random(600 + length)
    pt = draw_point(rng, length)
    gs = solve(pt)
    assert gs.normalization == "all_open"
    assert gs["(" * length] == closed_form_all_open(pt)
    # The opposite extremal component is not the anchor, so this is a
    # genuine cross-check of the closed forms against the fixed vector.
    assert gs[")" * length] == closed_form_all_close(pt)


@pytest.mark.parametrize("s", [ONE, IMAG])
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_all_close_is_the_reflected_all_open(length, s):
    # Read from the right wall, every pattern is reversed with its
    # parentheses swapped, and the vector picks up (s^2)^L.
    pt = draw_point(Random(640 + length), length, s=s)
    close = solve(pt, normalization="all_close")
    mirror = solve(pt.reflected(), normalization="all_open")
    flip = str.maketrans("()", ")(")
    for word, value in close.as_dict().items():
        assert value == (s * s) ** length * mirror[word[::-1].translate(flip)]


def test_level_one_explicit_components():
    # psi_( = A_1 k(z_1, zeta_1), psi_) = A_1 s^2 k(1/(s z_1), s zeta_2).
    rng = Random(607)
    for s in (ONE, IMAG, -ONE, -IMAG):
        pt = draw_point(rng, 1, s=s)
        gs = solve(pt, check_w=False)
        s2 = s * s
        assert gs["("] == -kfun(pt.z[0], pt.zeta1)
        assert gs[")"] == -(s2 * kfun((s * pt.z[0]).inv(), s * pt.zeta2))


def test_level_two_chain_relations():
    # psi_() = s_0 psi_)) and psi_)( = s_1 psi_() - psi_)) - psi_((.
    pt = draw_point(Random(611), 2)

    def comp(word):
        return lambda p: solve(p, normalization="all_open", check_w=False)[word]

    assert eval_s(0, comp("))"), pt) == comp("()")(pt)
    lhs = eval_s(1, comp("()"), pt) - comp("))")(pt) - comp("((")(pt)
    assert lhs == comp(")(")(pt)


@pytest.mark.parametrize("length", [2, 3])
def test_eval_s_is_minus_one_minus_a_and_reads_each_point_once(length):
    # (s_i f)(pt) = -f(pt) - (g(pi_i pt) f(pi_i pt) + g(pt) f(pt)) with
    # g = -A/B, by the definition of a_i, and f is read once at each point.
    rng = Random(619)
    reads = Counter()

    def f(p):
        reads[p] += 1
        return sum((rational(k + 2) * z for k, z in enumerate(p.z)), p.zeta1 * p.w) + p.s

    def g(p, i):
        a, b, _ = exchange_coefficients(p, i)
        return -a / b

    for s in FOURTH_ROOTS.values():
        pt = draw_point(rng, length, s=s)
        for i in range(length + 1):
            moved = pi_point(pt, i)
            reads.clear()
            value = eval_s(i, f, pt)
            assert reads == {moved: 1, pt: 1}
            assert value == -f(pt) - (g(moved, i) * f(moved) + g(pt, i) * f(pt))


def test_normalization_modes():
    pt = draw_point(Random(613), 2)
    by_sum = solve(pt, normalization="sum")
    assert sum_components(by_sum) == z_product(pt)
    raw = solve(pt, normalization="raw")
    assert raw.normalization == "raw"
    by_close = solve(pt, normalization="all_close")
    assert by_close["))"] == closed_form_all_close(pt)
    # All normalizations agree up to one overall factor.
    ratio = by_sum[0] / raw[0]
    assert all(b == r * ratio for b, r in zip(by_sum.components, raw.components))


def test_auto_normalization_falls_back_when_anchor_vanishes():
    rng = Random(617)
    pt = draw_point(rng, 2)
    specialised = pt.with_z(1, Q * pt.zeta1)
    gs = solve(specialised, check_w=False)
    # Site 1 can no longer open towards the right wall, killing the
    # all-open anchor; the all-close anchor survives.
    assert gs.normalization == "all_close"
    with pytest.raises(NonGenericPointError):
        solve(specialised, normalization="all_open", check_w=False)


# -- the anchored lifting ----------------------------------------------


def _spy_anchors(monkeypatch) -> list:
    """The anchor that `solve` hands `kernel_vector`, per call."""
    anchors = []
    kernel_vector = groundstate.kernel_vector

    def spy(op, anchor=None):
        anchors.append(anchor)
        return kernel_vector(op, anchor)

    monkeypatch.setattr(groundstate, "kernel_vector", spy)
    return anchors


@pytest.mark.parametrize("length", range(1, 7))
def test_anchored_and_unanchored_solves_agree(length, monkeypatch):
    # The anchored lifting returns the vector over the predicted hint; with
    # a hint of 1 the lifting falls back to Wang's reconstruction of the
    # vector with its last nonzero entry 1, which `kernel_vector` scales
    # to the anchor.  Both give the same output at all four s.
    spy = spy_lifting(monkeypatch)
    for s in FOURTH_ROOTS.values():
        pt = draw_point(Random(950 + length), length, s=s)
        spy["certified"].clear()
        anchored = solve(pt, check_w=False)
        assert spy["certified"] == [groundstate._denominator_hint(pt)], s
        with monkeypatch.context() as m:
            m.setattr(groundstate, "_denominator_hint", lambda pt: 1)
            assert solve(pt, check_w=False) == anchored, s


def test_anchored_lifting_takes_fewer_steps(monkeypatch):
    # At the certified L = 5 solves that the benchmark draws, the anchored
    # lifting stops after about half the steps of the unanchored one.  A
    # step is d LU solves, at the same d for both; an anchored lifting
    # reads nothing before its anchored entry fits, so its readings do
    # not count its steps.
    for d in (1, 2, 4):
        exactla._embeddings(exactla.PRIMES[0], d)  # their own solves, once
    solve_lu = exactla._PackedLU.solve
    solves = []

    def counted(lu, rhs):
        solves.append(rhs)
        return solve_lu(lu, rhs)

    monkeypatch.setattr(exactla._PackedLU, "solve", counted)
    totals = Counter()
    for seed in range(1, 9):
        vals = generic_parameters(Random(seed), 8)
        pt = SpectralPoint(tuple(vals[:5]), vals[5], vals[6], vals[7])
        op = transfer_matrix(pt) - SparseOperator.identity(32)
        steps = {}
        for name, run in (
            ("anchored", lambda: solve(pt, check_w=False)),
            ("unanchored", lambda: kernel_vector(op)),
        ):
            solves.clear()
            run()
            steps[name] = len(solves)
        assert steps["anchored"] < steps["unanchored"], (seed, steps)
        totals.update(steps)
    assert 3 * totals["anchored"] <= 2 * totals["unanchored"], totals


def test_every_solve_but_raw_lifts_anchored(monkeypatch):
    # solve hands the lifting the first closed form of the chain that does
    # not vanish, with the hint, at rational and field-valued points alike:
    # entry 0, entry n - 1 or the component sum (index None).  Only raw,
    # which reads no closed form, lifts unanchored.
    anchors = _spy_anchors(monkeypatch)
    pt = draw_point(Random(960), 3)
    bulk, _, _ = reduction(pt, 1)
    cases = {
        "rational": (pt, "auto", 0),
        "z_1 = 2 zeta^2": (pt.with_z(1, ZETA * ZETA * rational(2)), "auto", 0),
        "zeta_1 = 2 + zeta": (replace(pt, zeta1=rational(2) + ZETA), "auto", 0),
        "zeta_2 = 3 zeta": (replace(pt, zeta2=ZETA * rational(3)), "all_open", 0),
        "vanishing all-open form at z_1 = q zeta_1": (pt.with_z(1, Q * pt.zeta1), "auto", 7),
        "vanishing extremal forms at z_2 = q z_1": (bulk, "auto", None),
        "sum": (pt, "sum", None),
        "all_close": (pt, "all_close", 7),
    }
    for name, (point, normalization, expected) in cases.items():
        gs = solve(point, normalization=normalization, check_w=False)
        index, value, hint = anchors.pop()
        assert index == expected and hint == groundstate._denominator_hint(point), name
        assert exactla.anchor_entry(gs.components, index) == value, name
    solve(pt, normalization="raw", check_w=False)
    assert anchors.pop() is None


def test_an_unknown_normalization_is_rejected_before_t_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(groundstate, "transfer_matrix", built.append)
    with pytest.raises(ValueError, match="unknown normalization 'bogus'"):
        solve(draw_point(Random(961), 2), normalization="bogus")
    assert built == []


def test_a_closed_form_that_contradicts_its_component_raises(monkeypatch):
    # A vanishing all-open form is skipped, but its component must vanish
    # too; a nonzero all-close form is the anchor, and its component must
    # not vanish, which it does at z_L = zeta_2 / q.
    pt = draw_point(Random(964), 3)
    with monkeypatch.context() as m:
        m.setitem(groundstate._CLOSED_FORMS, "all_open", lambda p: Scalar.zero())
        with pytest.raises(ConsistencyError, match="all_open anchor .* closed form vanishes"):
            solve(pt, check_w=False)
    right, _, _ = reduction(pt, 3)
    monkeypatch.setitem(groundstate._CLOSED_FORMS, "all_close", lambda p: ONE)
    with pytest.raises(ConsistencyError, match="cannot be anchored: its entry 7 is zero"):
        solve(right, normalization="all_close", check_w=False)


def test_a_named_anchor_that_vanishes_is_refused_before_t_is_built(monkeypatch):
    # The all-open form vanishes at z_1 = q zeta_1, and a sum form patched
    # to vanish: neither named normalization reaches T.
    built = []
    monkeypatch.setattr(groundstate, "transfer_matrix", built.append)
    pt = draw_point(Random(965), 3)
    with pytest.raises(NonGenericPointError, match="all_open anchor vanishes"):
        solve(pt.with_z(1, Q * pt.zeta1), normalization="all_open")
    monkeypatch.setitem(groundstate._CLOSED_FORMS, "sum", lambda p: Scalar.zero())
    with pytest.raises(NonGenericPointError, match="sum anchor vanishes"):
        solve(pt, normalization="sum")
    assert built == []


def test_the_hint_at_a_rational_point_is_the_product_of_its_parameters():
    # |a b|^(2 (2L - 1)) for each z_i = a/b and |a b|^(2L) for each zeta.
    for length in range(4):
        pt = draw_point(Random(962 + length), length)
        tops = [(z, 2 * length - 1) for z in pt.z] + [(pt.zeta1, length), (pt.zeta2, length)]
        hint = 1
        for x, top in tops:
            f = x.rational_value()
            hint *= abs(f.numerator * f.denominator) ** (2 * top)
        assert groundstate._denominator_hint(pt) == hint, length


@pytest.mark.parametrize("length", [2, 3, 4])
def test_the_hint_clears_every_anchored_vector_at_field_valued_points(length):
    # The all-open, all-close and sum vectors at zeta_1 + zeta, at
    # z_1 zeta^2 and at each specialisation of `reduction`, where an
    # extremal anchor that vanishes is skipped; the sum never vanishes.
    for seed in range(4):
        pt = draw_point(Random(seed), length)
        points = [replace(pt, zeta1=pt.zeta1 + ZETA), pt.with_z(1, pt.z[0] * ZETA * ZETA)]
        points += [reduction(pt, i)[0] for i in range(length + 1)]
        for point in points:
            hint = groundstate._denominator_hint(point)
            for normalization in ("all_open", "all_close", "sum"):
                try:
                    gs = solve(point, normalization=normalization, check_w=False)
                except NonGenericPointError:
                    assert normalization != "sum", seed
                    continue
                assert hint % cleared(gs.components)[1] == 0, (seed, normalization)


def test_the_sum_and_all_close_anchors_are_read_over_the_hint(monkeypatch):
    spy = spy_lifting(monkeypatch)
    pt = draw_point(Random(963), 4)
    for point in (pt, replace(pt, zeta1=pt.zeta1 + ZETA)):
        for normalization in ("sum", "all_close"):
            spy["certified"].clear()
            solve(point, normalization=normalization, check_w=False)
            assert spy["certified"] == [groundstate._denominator_hint(point)], normalization


def test_a_field_valued_w_keeps_the_hint_at_d_4(monkeypatch):
    # w = 2 + zeta puts odd powers of zeta into T, so the lifting runs in
    # Z[zeta], but the vector does not depend on w: the hint of the
    # rational z and zetas still reads it.
    degrees = []
    lift = exactla._lift

    def spy_degrees(cols, g, d, p, anchor):
        degrees.append(d)
        return lift(cols, g, d, p, anchor)

    monkeypatch.setattr(exactla, "_lift", spy_degrees)
    spy = spy_lifting(monkeypatch)
    pt = draw_point(Random(970), 3)
    field_w = pt.with_w(rational(2) + ZETA)
    gs = solve(field_w)
    assert degrees == [4]
    assert spy["certified"] == [groundstate._denominator_hint(pt)]
    assert gs.components == solve(pt).components


def test_groundstate_vector_accessors():
    pt = draw_point(Random(619), 2)
    gs = solve(pt, check_w=False)
    assert gs.words() == ["((", "()", ")(", "))"]
    assert gs["()"] == gs[1]
    assert gs.as_dict() == {w: gs[w] for w in gs.words()}
    # A word of another length names no component, even where index_of
    # would land inside the vector.
    for word in ("", ")", "(((", "()()"):
        with pytest.raises(ValueError, match="L = 2"):
            gs[word]


def test_hamiltonian_needs_a_site():
    with pytest.raises(ValueError, match="L >= 1"):
        check_hamiltonian(0, rational(2), rational(3))


@pytest.mark.parametrize("s_index", [0, 1, 2, 3])
def test_qkz_relations_level_two(s_index):
    s = (ONE, IMAG, -ONE, -IMAG)[s_index]
    rng = Random(700 + s_index)
    pt = draw_point(rng, 2, s=s)
    assert check_qkz(pt) == [True, True, True]


def test_qkz_relations_level_three():
    rng = Random(709)
    pt = draw_point(rng, 3)
    assert check_qkz(pt) == [True] * 4


def test_pi_point_transformations():
    pt = draw_point(Random(719), 3, s=IMAG)
    left = pi_point(pt, 0)
    assert left.z[0] == pt.z[0].inv()
    mid = pi_point(pt, 1)
    assert mid.z == (pt.z[1], pt.z[0], pt.z[2])
    s2 = pt.s * pt.s
    right = pi_point(pt, 3)
    assert right.z[2] == (s2 * pt.z[2]).inv()


@pytest.mark.parametrize("length,i", [(2, 1), (3, 1), (3, 2)])
def test_bulk_recursion(length, i):
    rng = Random(800 + 10 * length + i)
    pt = draw_point(rng, length)
    assert check_recursion(pt)[i]


@pytest.mark.parametrize("length", [2, 3])
def test_boundary_recursions(length):
    rng = Random(830 + length)
    pt = draw_point(rng, length)
    left, *_, right = check_recursion(pt)
    assert left and right


def test_recursion_factors_are_nonzero_scalars():
    # r_0, p at both bulk indices and r_L, each at its specialisation;
    # none reads the specialised coordinate, so the generic point agrees.
    pt = draw_point(Random(839), 3)
    for i in range(4):
        specialised, _, _ = reduction(pt, i)
        factor = recursion_factor(specialised, i)
        assert not factor.is_zero()
        assert factor == recursion_factor(pt, i)


def _paper_recursion_factor(pt, i):
    """r_0, p and r_L in the paper's form, with the anchor-constant ratios."""
    length = pt.length
    if i == length:
        return pt.s * pt.s * _paper_recursion_factor(pt.reflected(), 0)
    if i > 0:
        zi = pt.z[i - 1]
        total = -(a_const(length) / a_const(length - 2))
        total = total * kfun(zi, pt.zeta1) ** 2 * kfun(zi, pt.zeta2) ** 2
        for j, zj in enumerate(pt.z, start=1):
            if j not in (i, i + 1):
                total = total * kfun(zi, zj) ** 4
        return total
    total = (-ONE) ** (length + 1) * (a_const(length) / a_const(length - 1))
    total = total * kfun(pt.zeta1, pt.zeta2)
    for zj in pt.z[1:]:
        total = total * kfun(pt.zeta1, zj) ** 2
    return total


@pytest.mark.parametrize("length", range(1, 7))
def test_recursion_factors_match_the_anchor_ratio_form(length):
    for s in (ONE, IMAG, -ONE, -IMAG):
        pt = draw_point(Random(4400 + length), length, s=s)
        for i in range(length + 1):
            specialised, _, _ = reduction(pt, i)
            assert recursion_factor(specialised, i) == _paper_recursion_factor(specialised, i)


def test_extracted_factor_matches_formula():
    # Ratio of a specialised big component to its reduced preimage
    # equals the predicted factor; independent of which component and,
    # by check_recursion, of everything else.
    pt = draw_point(Random(841), 2)
    specialised, reduced, _ = reduction(pt, 1)
    big = solve(specialised, normalization="sum", check_w=False)
    small = solve(reduced, normalization="all_open", check_w=False)
    factor = recursion_factor(specialised, 1)
    assert big["()"] == factor * small[""]


@pytest.mark.parametrize("length", [2, 3])
def test_vanishing_specialisations(length):
    rng = Random(850 + length)
    pt = draw_point(rng, length)
    assert check_vanishing(pt) == [True] * (length + 1)


@pytest.mark.parametrize("s_index", [0, 1, 2, 3])
def test_every_per_index_check_at_one_site(s_index):
    # L = 1 has two walls and no bulk: each check returns the left and
    # the right wall verdict, and none at L = 0.
    pt = draw_point(Random(870 + s_index), 1, s=(ONE, IMAG, -ONE, -IMAG)[s_index])

    def interlace(p):
        return check_interlace(p, transfer_matrix(p))

    checks = (interlace, check_T_recursion, check_qkz, check_recursion, check_vanishing)
    for check in checks:
        assert check(pt) == [True, True], check.__name__
    empty = SpectralPoint(z=(), zeta1=pt.zeta1, zeta2=pt.zeta2, w=pt.w)
    for check in checks:
        with pytest.raises(ValueError):
            check(empty)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_sum_rule(length):
    rng = Random(860 + length)
    assert check_sum_rule(draw_point(rng, length))


def test_solve_homogeneous_and_sum():
    gs = solve_homogeneous(2, rational(2), rational(3))
    assert gs.point.z == (ONE, ONE)
    assert sum_components(solve(gs.point, normalization="sum", check_w=False)) == z_product(gs.point)


@pytest.mark.parametrize("zetas", [(2, 3), (1, 1), (5, 7)])
def test_hamiltonian_annihilates_groundstate(zetas):
    z1, z2 = (rational(z) for z in zetas)
    for length in (1, 2, 3):
        assert check_hamiltonian(length, z1, z2)


def test_hamiltonian_check_solves_no_transfer_matrix(monkeypatch):
    # The kernel of H is lifted directly and only compared with T by one
    # sweep, so neither a solve nor a T build is needed.
    def refuse(*args, **kwargs):
        raise AssertionError("check_hamiltonian solved or built T")

    for name in ("solve", "solve_homogeneous", "transfer_matrix"):
        monkeypatch.setattr(groundstate, name, refuse)
    assert check_hamiltonian(3, rational(2), rational(5))


def test_solve_and_hamiltonian_check_read_no_scalar_columns(monkeypatch):
    # T and H reach the lifting as their integer columns over one
    # denominator; reading the Scalar columns would take a gcd per entry.
    def refuse(self):
        raise AssertionError("read SparseOperator.cols")

    monkeypatch.setattr(SparseOperator, "cols", property(refuse))
    with pytest.raises(AssertionError, match="read SparseOperator.cols"):
        SparseOperator.identity(2).cols
    for length in (2, 3):
        pt = draw_point(Random(66 + length), length)
        assert solve(pt).components == solve(pt, check_w=False).components
    assert check_hamiltonian(3, rational(2), rational(5))
    assert solve_homogeneous(2, rational(2), rational(3)).normalization == "all_open"


def test_check_w_skips_shifted_ws_at_minus_one_and_zero(monkeypatch):
    # At w = -3 the shifts w + 2 = -1 and w + 3 = 0 are skipped, so the
    # vector is certified at w + 5 = 2, and only there.
    seen = []
    apply = groundstate.transfer_apply

    def spy(vec, pt):
        seen.append(pt.w)
        return apply(vec, pt)

    monkeypatch.setattr(groundstate, "transfer_apply", spy)
    pt = SpectralPoint(
        tuple(rational(x) for x in (2, 3, 5)), rational(2), rational(3), rational(-3)
    )
    assert solve(pt) == solve(pt, check_w=False)
    assert seen == [rational(2)]


def test_at_generic_w_moves_past_a_pole_and_refuses_when_every_candidate_fails():
    pt = draw_point(Random(67), 1)
    candidates = [rational(k) for k in (0, 1, -1, 2, 3)]
    tried = []

    def pole_at_first(p):
        tried.append(p.w)
        if len(tried) == 1:
            raise SingularParameterError("pole")
        return p.w

    assert groundstate._at_generic_w(pt, candidates, pole_at_first) == rational(3)
    assert tried == [rational(2), rational(3)]

    def pole(p):
        raise SingularParameterError("pole")

    with pytest.raises(NonGenericPointError, match="no generic auxiliary parameter found"):
        groundstate._at_generic_w(pt, candidates, pole)


def test_hamiltonian_with_swapped_couplings_fails(monkeypatch):
    # H(c_2, c_1) has a kernel line too, but T(zeta_1, zeta_2) does not fix it.
    hamiltonian = groundstate.hamiltonian
    monkeypatch.setattr(groundstate, "hamiltonian", lambda n, c1, c2: hamiltonian(n, c2, c1))
    for length in (1, 2, 3):
        assert not check_hamiltonian(length, rational(2), rational(5))


def test_hamiltonian_coupling_pole_raises():
    # zeta_1 = zeta12^2 gives 1 + zeta_1^2 + zeta_1^-2 = 0, a pole of c_1.
    with pytest.raises(SingularParameterError, match="boundary coupling pole"):
        check_hamiltonian(2, ZETA**2, rational(3))


def test_homogeneous_components_share_one_sign():
    # At the fully isotropic point the fixed vector can be scaled to
    # have all components positive rational.
    gs = solve_homogeneous(3, ONE, ONE)
    values = [c.rational_value() for c in gs.components]
    assert all(v > 0 for v in values)


def test_interpolation_respects_degree_window():
    pt = draw_point(Random(877), 2)
    for var in (1, 2):
        polys = interpolate_all(var, pt)
        assert set(polys) == {"((", "()", ")(", "))"}
        gs = solve(pt, normalization="all_open", check_w=False)
        y = pt.z[var - 1] * pt.z[var - 1]
        for word, poly in polys.items():
            if not poly.is_zero():
                assert poly.min_exp >= -3 and poly.max_exp <= 3
            assert laurent_value(poly, y) == gs[word]


# sha256 of repr(sorted(interpolate_all(var, pt).items())), every
# component's Laurent polynomial in z_var^2 as computed before the fit
# took all components through one interpolation map.
_INTERPOLATION_DIGESTS = {
    ("L = 2", 1): "002a0d3c38e0f494bd9f5430b4c225c725a76fe82b532b1f5e9ce3be13fcb932",
    ("L = 2", 2): "595c1b7e0b1864888f9212eb8773af9377e86aa487047ff4f5ec2f6d0bef96bb",
    ("L = 3", 2): "c555408c00e1083f624ef8f6ddf32069ca0173c3d7ec39552da658f4e3f86e68",
    ("zeta1 = 2 + zeta", 1): "bcb728b9aaa0f5de0831c247c8b0344341b05d956460ecdb516c88f21d1e0be6",
    ("s = i", 2): "4e5944f18512a477640fd77b27e90dd0a85f83ae7453d5c7a2ff372f9777a22d",
}


@pytest.mark.parametrize("name,var", list(_INTERPOLATION_DIGESTS))
def test_interpolated_polynomials_are_pinned(name, var):
    points = {
        "L = 2": lambda: draw_point(Random(901), 2),
        "L = 3": lambda: draw_point(Random(903), 3),
        "zeta1 = 2 + zeta": lambda: replace(draw_point(Random(901), 2), zeta1=rational(2) + ZETA),
        "s = i": lambda: draw_point(Random(905), 2, s=IMAG),
    }
    text = repr(sorted(interpolate_all(var, points[name]()).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == _INTERPOLATION_DIGESTS[name, var]


def test_interpolate_rejects_bad_variable_index():
    pt = draw_point(Random(881), 1)
    with pytest.raises(ValueError):
        interpolate_all(2, pt)
    with pytest.raises(ValueError):
        interpolate_all(0, pt)


def test_reconstruction_matches_solver():
    pt = draw_point(Random(883), 3)
    rec = reconstruct_partial_L3(closed_form_all_open, closed_form_all_close, pt)
    gs = solve(pt, normalization="all_open", check_w=False)
    for word, value in rec.determined.items():
        assert value == gs[word]
    assert rec.undetermined == (")((", "))(")
    assert rec.pair_sum == gs[")(("] + gs["))("]
    assert rec.obstruction_residual.is_zero()


def test_reconstruction_rejects_inconsistent_inputs():
    pt = draw_point(Random(887), 3)
    two = Scalar.from_rational(2)
    scaled = lambda p: two * closed_form_all_close(p)
    with pytest.raises(ConsistencyError):
        reconstruct_partial_L3(closed_form_all_open, scaled, pt)


@pytest.mark.parametrize("s", [ONE, IMAG], ids=["s=1", "s=i"])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_qkz_components_match_solver(length, s):
    # The propagation fixes 2 C(L, floor(L/2)) components, each equal to
    # the solved vector in the all-open normalization.
    pt = draw_point(Random(890 + length), length, s)
    known, _ = qkz_components(closed_form_all_open, closed_form_all_close, length)
    assert len(known) == 2 * comb(length, length // 2)
    gs = solve(pt, normalization="all_open", check_w=False)
    for word, psi in known.items():
        assert psi(pt) == gs[word], word


def test_qkz_components_leave_one_pair_at_L3():
    known, relations = qkz_components(closed_form_all_open, closed_form_all_close, 3)
    assert {")((", "))("}.isdisjoint(known) and len(known) == 6
    assert {unknown for unknown, _ in relations if unknown} == {(")((", "))(")}


def test_reconstruction_evaluates_each_extremal_component_once_per_point():
    pt = draw_point(Random(100), 3)
    counts = {"open": Counter(), "close": Counter()}

    def counted(name, psi):
        def wrapped(p):
            counts[name][p] += 1
            return psi(p)

        return wrapped

    reconstruct_partial_L3(
        counted("open", closed_form_all_open), counted("close", closed_form_all_close), pt
    )
    for name, calls in counts.items():
        assert calls and max(calls.values()) == 1, (name, calls.most_common(1))
