"""Groundstate solver: closed forms, exchange relations, recursions, sum rule."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
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
    fourth_roots,
    generic_parameters,
    groundstate,
    interpolate_all,
    kfun,
    pi_point,
    reconstruct_partial_L3,
    reduction,
    solve,
    solve_homogeneous,
    sum_components,
    transfer_matrix,
    z_product,
)
from openloop.groundstate import SOLVE_CAP, a_const, recursion_factor

from helpers import draw_point, rational


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
    # SOLVE_CAP = 8 is within reach: a certified L = 7 solve, with the
    # second-w check, anchored to the all-open closed form.
    pt = draw_point(Random(46), 7)
    gs = solve(pt)
    assert gs.normalization == "all_open"
    assert sum_components(gs) == z_product(pt)


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
    for s in fourth_roots():
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
    s = fourth_roots()[s_index]
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
    pt = draw_point(Random(870 + s_index), 1, s=fourth_roots()[s_index])

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
            assert poly.eval_at(y) == gs[word]


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
