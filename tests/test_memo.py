"""The memoized pure functions of Scalars: the tile weights of `baxter`,
`exactfield.kfun` and the staircase characters of `chars`.  A result
never depends on what their caches hold, a pole is never cached, and
every cache is bounded by `exactfield.CACHE_SIZE`."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from openloop import (
    IMAG,
    ONE,
    ZETA,
    SingularParameterError,
    closed_form_all_open,
    solve,
    transfer_matrix,
    z_product,
)
from openloop import baxter, chars, exactfield
from openloop.exactfield import CACHE_SIZE
from openloop.transfer import assert_generic

from helpers import draw_point, rational

MEMOS = (
    baxter.face_weights_R,
    baxter.face_weights_K0,
    baxter.face_weights_KL,
    exactfield.kfun,
    chars._staircase,
)

POINTS = {
    "rational": draw_point(Random(431), 3),
    "zeta_1 = 2 + zeta": replace(draw_point(Random(432), 3), zeta1=rational(2) + ZETA),
    "s = i": draw_point(Random(433), 3, s=IMAG),
}


def clear_all() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def results(pt) -> tuple:
    return transfer_matrix(pt), solve(pt).components, closed_form_all_open(pt), z_product(pt)


@pytest.mark.parametrize("name", POINTS)
def test_results_are_the_same_on_cold_and_warm_caches(name):
    pt = POINTS[name]
    clear_all()
    cold = results(pt)
    assert all(memo.cache_info().currsize for memo in MEMOS)
    assert results(pt) == cold
    for other in POINTS.values():
        results(other)
    assert results(pt) == cold
    clear_all()
    assert results(pt) == cold


def test_a_tile_pole_raises_on_every_call():
    # [q z/w] = 0 at z/w = zeta^2, and q w zeta_2 = 1 puts the right wall
    # tile on its pole: no call caches the failure.
    degenerate = POINTS["rational"].with_w((exactfield.Q * POINTS["rational"].zeta2).inv())
    for _ in range(2):
        with pytest.raises(SingularParameterError):
            baxter.face_weights_R(ZETA**2, ONE)
        with pytest.raises(SingularParameterError):
            assert_generic(degenerate)


def test_every_memo_is_bounded_by_cache_size():
    assert [memo.cache_info().maxsize for memo in MEMOS] == [CACHE_SIZE] * len(MEMOS)
