"""Double-row transfer matrix: threading vs oracle, and its exact identities."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from openloop import (
    NAIVE_CAP,
    ONE,
    Q,
    IMAG,
    NonGenericPointError,
    Scalar,
    SpectralPoint,
    check_T_boundary_recursion,
    check_T_recursion,
    check_column_sums,
    check_commuting,
    check_interlace,
    transfer_apply,
    transfer_matrix,
    transfer_matrix_naive,
)
from openloop.groundstate import generic_parameters, solve
from openloop.transfer import assert_generic

from helpers import draw_point, rational


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(z=(Scalar.zero(),), zeta1=ONE, zeta2=ONE, w=ONE, s=ONE)
    with pytest.raises(ValueError):
        SpectralPoint(z=(ONE,), zeta1=ONE, zeta2=ONE, w=ONE, s=rational(2))
    pt = SpectralPoint(z=(rational(2), rational(3)), zeta1=rational(5), zeta2=rational(7), w=rational(11), s=IMAG)
    assert pt.length == 2


def test_spectral_point_surgery():
    pt = draw_point(Random(1), 3)
    assert pt.with_w(rational(9)).w == rational(9)
    assert pt.with_z(2, rational(9)).z[1] == rational(9)
    swapped = pt.swapped(1)
    assert swapped.z[0] == pt.z[1] and swapped.z[1] == pt.z[0]
    shrunk = pt.without_sites((2,))
    assert shrunk.z == (pt.z[0], pt.z[2])


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_threaded_matches_naive(length):
    rng = Random(100 + length)
    pt = draw_point(rng, length)
    assert transfer_matrix(pt) == transfer_matrix_naive(pt)


def test_seeded_apply_matches_matrix_apply():
    # One sweep seeded with the whole vector equals the column-by-column
    # matrix, and the naive oracle where it is affordable.  Zero entries
    # exercise the skipped seeds.
    for length in range(6):
        pt = draw_point(Random(71 + length), length)
        vec = [Scalar.from_rational(k % 3 - 1 + k % 5) for k in range(1 << length)]
        applied = transfer_apply(vec, pt)
        assert applied == transfer_matrix(pt).apply(vec)
        if length <= NAIVE_CAP:
            assert applied == transfer_matrix_naive(pt).apply(vec)
    with pytest.raises(ValueError):
        transfer_apply(vec + [ONE], pt)


def test_naive_cap_guard():
    pt = draw_point(Random(73), NAIVE_CAP + 1)
    with pytest.raises(ValueError):
        transfer_matrix_naive(pt)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_column_sums_are_one(length):
    rng = Random(200 + length)
    for _ in range(3):
        assert check_column_sums(draw_point(rng, length))


@pytest.mark.parametrize("length", [1, 2, 3])
def test_transfer_matrices_commute(length):
    rng = Random(300 + length)
    for _ in range(3):
        pt = draw_point(rng, length)
        w2 = generic_parameters(rng, 1, avoid=[pt.w.rational_value()])[0]
        assert check_commuting(pt, w2)


def test_interlace_all_positions():
    rng = Random(83)
    length = 3
    for _ in range(2):
        pt = draw_point(rng, length)
        for i in range(length + 1):
            assert check_interlace(pt, i)


@pytest.mark.parametrize("length", [2, 3])
def test_transfer_recursion_bulk(length):
    rng = Random(400 + length)
    pt = draw_point(rng, length)
    for i in range(1, length):
        specialised = pt.with_z(i + 1, Q * pt.z[i - 1])
        assert check_T_recursion(specialised, i)


def test_transfer_recursion_boundaries():
    rng = Random(89)
    pt = draw_point(rng, 3)
    left = pt.with_z(1, Q * pt.zeta1)
    assert check_T_boundary_recursion(left, "left")
    right = pt.with_z(3, pt.zeta2 / Q)
    assert check_T_boundary_recursion(right, "right")


def test_transfer_recursion_guards():
    pt = draw_point(Random(97), 2)
    with pytest.raises(ValueError):
        check_T_recursion(pt, 1)
    with pytest.raises(ValueError):
        check_T_boundary_recursion(pt, "left")


def test_assert_generic_detects_boundary_pole():
    # q w zeta_2 = 1 puts the right wall tile on its pole.
    from openloop import SingularParameterError

    pt = draw_point(Random(101), 2)
    degenerate = pt.with_w((Q * pt.zeta2).inv())
    with pytest.raises(SingularParameterError):
        assert_generic(degenerate)


def test_unit_w_fixed_space_is_degenerate():
    # At w = 1 the double row collapses and the fixed space of T jumps
    # above one dimension, so the solver refuses the point.
    pt = draw_point(Random(103), 2).with_w(ONE)
    with pytest.raises(NonGenericPointError):
        solve(pt, check_w=False)


def test_transfer_at_four_s_values():
    rng = Random(107)
    from openloop import fourth_roots

    for s in fourth_roots():
        pt = draw_point(rng, 2, s=s)
        assert check_column_sums(pt)
        assert transfer_matrix(pt) == transfer_matrix_naive(pt)
