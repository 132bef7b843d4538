"""Baxterised R and K operators: unitarity, braid exchange, reflection."""

from __future__ import annotations

from random import Random

import pytest

from openloop import (
    ONE,
    Q,
    SingularParameterError,
    bracket,
    kcheck0,
    kcheckL,
    rcheck,
)
from openloop.baxter import face_weights_K0, face_weights_KL, face_weights_R
from openloop.groundstate import generic_parameters
from openloop.linkpat import SparseOperator, generator_matrix

from helpers import rational


def test_rcheck_is_affine_in_the_generator():
    length, i = 3, 2
    z = rational(5, 3)
    op = rcheck(i, z, length)
    ident = SparseOperator.identity(1 << length)
    e = generator_matrix(i, length)
    denom = bracket(Q * z)
    expected = ident.scale(bracket(Q / z) / denom) - e.scale(bracket(z) / denom)
    assert op == expected


def test_rcheck_index_bounds():
    with pytest.raises(ValueError):
        rcheck(0, rational(2), 3)
    with pytest.raises(ValueError):
        rcheck(3, rational(2), 3)


def test_unitarity():
    rng = Random(31)
    length = 3
    ident = SparseOperator.identity(1 << length)
    for _ in range(6):
        z, zeta = generic_parameters(rng, 2)
        assert rcheck(1, z, length) @ rcheck(1, z.inv(), length) == ident
        assert kcheck0(z, zeta, length) @ kcheck0(z.inv(), zeta, length) == ident
        assert kcheckL(z, zeta, length) @ kcheckL(z.inv(), zeta, length) == ident


def test_rcheck_at_unit_argument_is_identity():
    length = 2
    assert rcheck(1, ONE, length) == SparseOperator.identity(1 << length)


def test_braid_exchange():
    rng = Random(37)
    length = 3
    for _ in range(4):
        z, w = generic_parameters(rng, 2)
        lhs = rcheck(1, z, length) @ rcheck(2, z * w, length) @ rcheck(1, w, length)
        rhs = rcheck(2, w, length) @ rcheck(1, z * w, length) @ rcheck(2, z, length)
        assert lhs == rhs


def test_reflection_left():
    rng = Random(41)
    length = 2
    for _ in range(4):
        z, w, zeta = generic_parameters(rng, 3)
        lhs = (
            kcheck0(z, zeta, length)
            @ rcheck(1, z * w, length)
            @ kcheck0(w, zeta, length)
            @ rcheck(1, w / z, length)
        )
        rhs = (
            rcheck(1, w / z, length)
            @ kcheck0(w, zeta, length)
            @ rcheck(1, z * w, length)
            @ kcheck0(z, zeta, length)
        )
        assert lhs == rhs


def test_reflection_right():
    rng = Random(43)
    length = 2
    for _ in range(4):
        z, w, zeta = generic_parameters(rng, 3)
        lhs = (
            kcheckL(z, zeta, length)
            @ rcheck(length - 1, z * w, length)
            @ kcheckL(w, zeta, length)
            @ rcheck(length - 1, w / z, length)
        )
        rhs = (
            rcheck(length - 1, w / z, length)
            @ kcheckL(w, zeta, length)
            @ rcheck(length - 1, z * w, length)
            @ kcheckL(z, zeta, length)
        )
        assert lhs == rhs


def test_face_weights_are_stochastic():
    rng = Random(47)
    for _ in range(8):
        z, w, zeta = generic_parameters(rng, 3)
        fw = face_weights_R(z, w)
        assert fw.id_weight + fw.cup_weight == ONE
        for face in (face_weights_K0(w, zeta), face_weights_KL(w, zeta)):
            assert face.id_weight + face.cup_weight == ONE


def test_crossing_swaps_tile_fillings():
    rng = Random(53)
    for _ in range(8):
        z, w = generic_parameters(rng, 2)
        direct = face_weights_R(z, w)
        crossed = face_weights_R(Q * w, z)
        assert crossed.id_weight == direct.cup_weight
        assert crossed.cup_weight == direct.id_weight


def test_boundary_faces_assemble_to_kcheck():
    rng = Random(59)
    length = 1
    dim = 1 << length
    ident = SparseOperator.identity(dim)
    e0 = generator_matrix(0, length)
    eL = generator_matrix(length, length)
    for _ in range(5):
        w, zeta = generic_parameters(rng, 2)
        left = face_weights_K0(w, zeta)
        assert ident.scale(left.id_weight) + e0.scale(left.cup_weight) == kcheck0(
            Q * w, zeta, length
        )
        right = face_weights_KL(w, zeta)
        assert ident.scale(right.id_weight) + eL.scale(right.cup_weight) == kcheckL(
            w, zeta, length
        )


def test_two_row_filling_cancellation():
    # a(qu) a(u) + b(qu) b(u) + a(qu) b(u) = 0 at q + 1/q = -1: the
    # identity behind the one-per-column structure of T's rows.
    rng = Random(61)
    for _ in range(8):
        u = generic_parameters(rng, 1)[0]
        fw = face_weights_R(u, ONE)
        fw_q = face_weights_R(Q * u, ONE)
        a, b = fw.id_weight, fw.cup_weight
        aq, bq = fw_q.id_weight, fw_q.cup_weight
        assert (aq * a + bq * b + aq * b).is_zero()


def test_slab_collapse_unit_factor():
    # [q/(zw)] [q^2 z/w] = [q^2 zw] [q w/z] when q^3 = 1.
    rng = Random(67)
    for _ in range(8):
        z, w = generic_parameters(rng, 2)
        lhs = bracket(Q / (z * w)) * bracket(Q * Q * z / w)
        rhs = bracket(Q * Q * z * w) * bracket(Q * w / z)
        assert lhs == rhs


def test_tile_pole_raises():
    # [q z/w] = 0 requires (z/w)^2 = q, impossible for rational z, w;
    # force it with z/w = zeta^2.
    from openloop import ZETA

    with pytest.raises(SingularParameterError):
        face_weights_R(ZETA**2, ONE)


def test_kcheck_turn_weight_vanishes_at_unit_spectral_parameter():
    zeta = rational(2)
    length = 1
    assert kcheck0(ONE, zeta, length) == SparseOperator.identity(1 << length)
    assert kcheckL(ONE, zeta, length) == SparseOperator.identity(1 << length)
