"""Double-row transfer matrix: threading vs oracle, and its exact identities."""

from __future__ import annotations

from dataclasses import replace
from hashlib import sha256
from itertools import product
from random import Random

import pytest

from openloop import (
    NAIVE_CAP,
    ONE,
    Q,
    IMAG,
    ZERO,
    ZETA,
    NonGenericPointError,
    Scalar,
    SparseOperator,
    SpectralPoint,
    check_T_recursion,
    check_interlace,
    exchange_operator,
    index_of,
    pi_point,
    reduction,
    transfer,
    transfer_apply,
    transfer_matrix,
    transfer_matrix_naive,
    transfer_times,
)
from openloop.baxter import FaceWeights
from openloop.exactfield import cleared, cleared_columns
from openloop.groundstate import generic_parameters, recursion_factor, solve
from openloop.transfer import (
    _check_embedding,
    _plan,
    _slots,
    _sweep,
    _tile_weights,
    _unpack,
    assert_generic,
)

from helpers import draw_point, mutated_sweep, ones, rational


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


def odd_everywhere(pt: SpectralPoint) -> SpectralPoint:
    """pt with an odd power of zeta added to every parameter, so that
    every tile weight has odd parts: the bulk and K_L tiles as well as
    K_0."""
    return replace(
        pt,
        z=tuple(z + ZETA for z in pt.z),
        zeta1=pt.zeta1 + ZETA,
        zeta2=pt.zeta2 - ZETA**3,
        w=pt.w + ZETA,
    )


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4])
def test_threaded_matches_naive(length):
    # Also at a field-valued zeta_1 = 2 + zeta, and with odd powers of
    # zeta in every parameter.  T does not depend on s, so the s = i
    # variant checks the same T as pt itself.
    rng = Random(100 + length)
    pt = draw_point(rng, length)
    variants = (pt, replace(pt, s=IMAG), replace(pt, zeta1=rational(2) + ZETA), odd_everywhere(pt))
    for variant in variants:
        assert transfer_matrix(variant) == transfer_matrix_naive(variant)


def test_seeded_apply_matches_matrix_apply():
    # One sweep seeded with the whole vector equals the matrix built by
    # the sweep of the whole basis, and the naive oracle where it is
    # affordable.  Zero entries exercise the skipped seeds: the zero
    # vector skips every seed, and the k-th basis vector alone reads
    # column k, so each seed lands on its pattern's plan index.  Entries
    # (k+1)/7 + zeta/(k+2) differ in denominator and carry an odd power
    # of zeta, so the integral sweep clears them to one denominator.
    for length in range(7):
        pt = draw_point(Random(71 + length), length)
        dim = 1 << length
        tmat = transfer_matrix(pt)
        naive = transfer_matrix_naive(pt) if length <= NAIVE_CAP else tmat
        for vec in (
            [Scalar.from_rational(k % 3 - 1 + k % 5) for k in range(dim)],
            [ZERO] * dim,
            *([ONE if k == j else ZERO for k in range(dim)] for j in range(dim)),
            [rational(k + 1, 7) + ZETA / rational(k + 2) for k in range(dim)],
        ):
            applied = transfer_apply(vec, pt)
            assert applied == tmat.apply(vec) == naive.apply(vec)
    with pytest.raises(ValueError):
        transfer_apply(vec + [ONE], pt)


@pytest.mark.parametrize("length", range(7))
def test_plan_holds_no_weights(length):
    # The plan cached while building T at one point serves another point
    # of the same L, in either order.  The second point has zeta_1 =
    # 2 + zeta, so its weights carry odd powers of zeta.
    rng = Random(157 + length)
    pts = [draw_point(rng, length), replace(draw_point(rng, length), zeta1=rational(2) + ZETA)]
    if length <= NAIVE_CAP:
        refs = [transfer_matrix_naive(pt) for pt in pts]
    else:
        refs = []
        for pt in pts:
            _plan.cache_clear()
            refs.append(transfer_matrix(pt))
    for order in ((0, 1), (1, 0)):
        _plan.cache_clear()
        for k in order:
            assert transfer_matrix(pts[k]) == refs[k], (order, k)


# sha256 of repr(_plan(L)): the plan's state numbering, not only the T
# it gives, is fixed.
PLAN_DIGESTS = [
    "05a80a5c347f4f539cc8fd9ae734148e058ddb6d206b7ef2c6f079081d9b69e0",
    "b002726aa94bc8b794221af4db3916d9089f852ac7b46bfdc911628d03ee23a2",
    "b78b47ec9dbf7799316a55c4c20970675d0ed1b16c0925a11f4c7ba0fcf82582",
    "1d51fde6d755280b73da471359858b244f950b5b691f6173d9bd941c15d8166f",
    "649e949613e90cdd76244dc974f20fab5b0204339b5c7eb1c3bbacff378458d0",
    "041d4c71c7aea9cd1db927c734b475b75df77f00ef9a3cb7becce9a2f47e1fe6",
    "a0229c33f74a3387934bb5a0ef7f53312fc39d0a25d3853e23a762335d72c51a",
    "72013b6f3c28f0fcda244fa13ff66a293b29a75224ddbd5ff9bbd212ace4e649",
]


@pytest.mark.parametrize("length", range(8))
def test_plan_is_pinned(length):
    assert sha256(repr(_plan(length)).encode()).hexdigest() == PLAN_DIGESTS[length]


@pytest.mark.parametrize("length", range(8))
def test_sweep_bodies_agree(length):
    # One sweep body carries both Z[omega] parts x + zeta y of an
    # amplitude, omega = zeta^2.  At a rational point every tile weight
    # and the basis lie in Z[omega], so the basis sweep has no odd parts.
    # Seeding zeta e_j instead puts each entering entry in the zeta part,
    # and the columns must be zeta times the basis columns, entry by
    # entry, over the same denominator.  zeta_1 = 2 + zeta puts odd parts
    # in the weights, and up to NAIVE_CAP the sweep matches the naive
    # oracle there.
    pt = draw_point(Random(211 + length), length)
    dim = 1 << length
    even, d_even = _sweep(pt, [{j: (1, 0, 0, 0)} for j in range(dim)], 1)
    odd, d_odd = _sweep(pt, [{j: (0, 1, 0, 0)} for j in range(dim)], 1)
    assert d_odd == d_even
    assert all(n1 == n3 == 0 for col in even for n0, n1, n2, n3 in col.values())
    times_zeta = [{r: (0, n0, 0, n2) for r, (n0, n1, n2, n3) in col.items()} for col in even]
    assert odd == times_zeta
    if length <= NAIVE_CAP:
        field = replace(pt, zeta1=rational(2) + ZETA)
        assert transfer_matrix(field) == transfer_matrix_naive(field)


def test_bulk_tiles_with_equal_arguments_share_their_weights(monkeypatch):
    # At z_i = 1 every bulk tile is face_weights_R(w, 1): one FaceWeights
    # for all 2L of them, and the memo returns it again on a later call.
    generic_pt = draw_point(Random(223), 4)
    pt = replace(generic_pt, z=(ONE,) * 4)
    tiles = [fw for slot, fw in zip(_slots(4), _tile_weights(pt)) if slot > 0]
    assert len(tiles) == 8 and all(fw is tiles[0] for fw in tiles)
    assert _tile_weights(pt)[0] is tiles[0]
    generic = [fw for slot, fw in zip(_slots(4), _tile_weights(generic_pt)) if slot > 0]
    assert len({id(fw) for fw in generic}) == 8
    # The sweep clears each distinct tile once, keyed by its FaceWeights
    # object, and hashes none: one shared bulk tile and the two walls at
    # z_i = 1, all 2L + 2 tiles at a generic point.
    refs = {p: transfer_matrix_naive(p) for p in (pt, generic_pt)}

    def unhashable(self):
        raise TypeError("the sweep hashed a FaceWeights")

    calls = []

    def spy(xs):
        calls.append(xs)
        return cleared(xs)

    monkeypatch.setattr(FaceWeights, "__hash__", unhashable)
    monkeypatch.setattr(transfer, "cleared", spy)
    for point, distinct in ((pt, 3), (generic_pt, 10)):
        calls.clear()
        assert transfer_matrix(point) == refs[point]
        assert len(calls) == distinct


def scalar_sweep(pt: SpectralPoint, vectors: list[dict]) -> list[dict]:
    """The sweep of sparse Scalar vectors, cleared to one denominator on
    the way in and read back as Scalar columns, one gcd per entry."""
    cols, den = _sweep(pt, *cleared_columns(vectors))
    return [{r: Scalar.from_integers(n, den) for r, n in col.items()} for col in cols]


def test_sweep_batch_with_different_denominators():
    # A batch is swept over one common denominator and reads back as its
    # vectors swept alone.
    pt = draw_point(Random(127), 3)
    u = {index_of("()("): rational(1, 3), index_of(")(("): rational(2) + ZETA}
    v = {index_of("()("): ZETA / rational(5) - rational(1, 7), index_of("((("): rational(3, 11)}
    assert scalar_sweep(pt, [u, v]) == scalar_sweep(pt, [u]) + scalar_sweep(pt, [v])
    # Above NAIVE_CAP, against T.apply, whose addmul products share no
    # packed slots with the sweep: a batch of ~1000-bit mixed-sign
    # numerators, a basis vector and odd powers of zeta, at three offsets,
    # at a rational point and with odd powers of zeta in every weight, so
    # the slot width also meets the omega D factors of the zeta parts.
    for length, odd_weights in product((5, 6), (False, True)):
        rng = Random(127 + length)
        pt = draw_point(rng, length)
        if odd_weights:
            pt = odd_everywhere(pt)
        dim = 1 << length
        big = {}
        for k, j in enumerate(rng.sample(range(dim), dim // 3)):
            nums = [rng.choice((-1, 1)) * rng.getrandbits(1000), 0, rng.getrandbits(999), 0]
            big[j] = Scalar.from_integers(nums, 3**k)
        odd = {j: rational(j + 1, 5) + ZETA**j for j in range(0, dim, 3)}
        batch = [big, {dim - 1: ONE}, odd]
        tmat = transfer_matrix(pt)
        for col, vec in zip(scalar_sweep(pt, batch), batch):
            applied = tmat.apply([vec.get(j, ZERO) for j in range(dim)])
            assert col == {r: x for r, x in enumerate(applied) if not x.is_zero()}


def test_transfer_recursion_fails_on_a_mutated_sweep_entry(monkeypatch):
    # Each index compares two sweeps, the embedded basis at the point and
    # the basis at the reduced point; one numerator off by one in either
    # fails that index alone.
    pt = draw_point(Random(91), 3)
    assert check_T_recursion(pt) == [True] * 4
    for target in range(8):
        calls = []
        monkeypatch.setattr(transfer, "_sweep", mutated_sweep(target, calls))
        verdicts = check_T_recursion(pt)
        assert len(calls) == 8
        assert verdicts == [i != target // 2 for i in range(4)], target


def wide_operator(rng: Random, dim: int, odd: bool) -> SparseOperator:
    """Three entries per column, over denominators that differ between
    columns, with ~1000-bit mixed-sign numerators, odd powers of zeta
    where odd is set, and one all-zero column."""
    cols = []
    for j in range(dim):
        col = {}
        for r in rng.sample(range(dim), min(dim, 3)):
            nums = [rng.choice((-1, 1)) * rng.getrandbits(1000) for _ in range(4)]
            if not odd:
                nums[1] = nums[3] = 0
            col[r] = Scalar.from_integers(nums, 3 ** (j % 5) * 7 ** (r % 2))
        cols.append(col)
    cols[rng.randrange(dim)] = {}
    return SparseOperator(dim, cols)


@pytest.mark.parametrize("length", range(7))
def test_transfer_times_matches_compose(length):
    # One sweep of the integer columns of X against the reference product
    # `compose` of the swept basis with X, at a rational point and with
    # odd powers of zeta in every weight, for X in Z[omega] and with odd
    # powers of zeta in its entries.
    rng = Random(503 + length)
    pt = draw_point(rng, length)
    dim = 1 << length
    for point in (pt, odd_everywhere(pt)):
        tmat = transfer_matrix(point)
        for odd in (False, True):
            x = wide_operator(rng, dim, odd)
            assert transfer_times(point, x) == tmat @ x, (point, odd)
    with pytest.raises(ValueError):
        transfer_times(pt, SparseOperator.identity(2 * dim))


def test_interlace_fails_on_a_mutated_sweep_entry(monkeypatch):
    # The right side of index k is the k-th sweep of check_interlace (the
    # left side is a product with the given T); one numerator off by one
    # there fails index k alone.
    pt = draw_point(Random(509), 3)
    tmat = transfer_matrix(pt)
    assert check_interlace(pt, tmat) == [True] * 4
    for target in range(4):
        calls = []
        monkeypatch.setattr(transfer, "_sweep", mutated_sweep(target, calls))
        verdicts = check_interlace(pt, tmat)
        assert calls == [pi_point(pt, i) for i in range(4)]
        assert verdicts == [i != target for i in range(4)], target


def test_interlace_builds_no_transfer_matrix(monkeypatch):
    pt = draw_point(Random(521), 3)
    tmat = transfer_matrix(pt)

    def refuse(point):
        raise AssertionError(f"check_interlace built T at {point}")

    monkeypatch.setattr(transfer, "transfer_matrix", refuse)
    assert check_interlace(pt, tmat) == [True] * 4


@pytest.mark.parametrize("width", [8, 16, 208])
def test_unpack_reads_signed_slots_up_to_the_bound(width):
    # Slots at +-(2^(width-1) - 1), 0 and mixed signs, packed as the sweep
    # packs them; shifting by width per offset step, as a merge of two
    # states does, puts zero slots below them.
    top = (1 << (width - 1)) - 1
    slots = [top, -top, 0, -1, 1, top, 0, -top, 5, -7, top]
    packed = sum(a << (width * j) for j, a in enumerate(slots))
    assert _unpack(packed, len(slots), width) == slots
    assert _unpack(packed, len(slots) + 2, width) == slots + [0, 0]
    assert _unpack(packed << (width * 3), len(slots) + 3, width) == [0] * 3 + slots
    assert _unpack(-packed, len(slots), width) == [-a for a in slots]
    assert _unpack(0, 4, width) == [0] * 4


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_zero_tile_weight_matches_naive(length):
    # w = z_1 zeroes the cup weight of the first bottom-row tile.
    pt = draw_point(Random(131 + length), length)
    pt = pt.with_w(pt.z[0])
    assert _tile_weights(pt)[0].cup_weight.is_zero()
    tmat = transfer_matrix(pt)
    assert tmat == transfer_matrix_naive(pt)
    assert ones(1 << length) @ tmat == ones(1 << length)


def test_transfer_matrix_does_not_depend_on_s():
    # No tile reads s; it enters only pi_point and exchange_coefficients.
    for length in range(6):
        pt = draw_point(Random(137 + length), length)
        tmat = transfer_matrix(pt)
        for s in (IMAG, -ONE, -IMAG):
            assert transfer_matrix(replace(pt, s=s)) == tmat


def test_naive_cap_guard():
    pt = draw_point(Random(73), NAIVE_CAP + 1)
    with pytest.raises(ValueError):
        transfer_matrix_naive(pt)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_column_sums_are_one(length):
    rng = Random(200 + length)
    for _ in range(3):
        tmat = transfer_matrix(draw_point(rng, length))
        assert ones(1 << length) @ tmat == ones(1 << length)


@pytest.mark.parametrize("length", [1, 2, 3])
def test_transfer_matrices_commute(length):
    rng = Random(300 + length)
    for _ in range(3):
        pt = draw_point(rng, length)
        w2 = generic_parameters(rng, 1, avoid=[pt.w.rational_value()])[0]
        tmat, other = transfer_matrix(pt), transfer_matrix(pt.with_w(w2))
        assert tmat @ other == other @ tmat


def test_interlace_all_positions():
    # Both walls and every bulk index, at each fourth root s: the right
    # wall operator Kcheck_L(s z_L, s zeta_2) moves z_L to 1/(s^2 z_L).
    rng = Random(83)
    for length in (1, 2, 3):
        for s in (ONE, IMAG, -ONE, -IMAG):
            pt = draw_point(rng, length, s=s)
            assert check_interlace(pt, transfer_matrix(pt)) == [True] * (length + 1)


@pytest.mark.parametrize("length", [2, 3])
def test_transfer_recursion_bulk(length):
    rng = Random(400 + length)
    pt = draw_point(rng, length)
    assert all(check_T_recursion(pt)[1:length])


def test_transfer_recursion_boundaries():
    rng = Random(89)
    pt = draw_point(rng, 3)
    left, *_, right = check_T_recursion(pt)
    assert left and right
    # The embedding tables: a strand prepended at the left wall, a small
    # link at (1, 2), a strand appended at the right wall.
    tables = {
        0: [")((", ")()", "))(", ")))"],
        1: ["()(", "())"],
        3: ["(((", "()(", ")((", "))("],
    }
    for i, embedded in tables.items():
        _, reduced, image = reduction(pt, i)
        assert image == [index_of(word) for word in embedded]
        # Unspecialised, the two sweeps differ: the comparison can fail.
        assert not _check_embedding(pt, reduced, image)


def test_index_tables_reject_out_of_range():
    pt = draw_point(Random(97), 2)
    empty = SpectralPoint(z=(), zeta1=pt.zeta1, zeta2=pt.zeta2, w=pt.w)
    for table in (pi_point, exchange_operator, reduction, recursion_factor):
        for bad in (pt, -1), (pt, 3), (empty, 0):
            with pytest.raises(ValueError):
                table(*bad)


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
    for s in (ONE, IMAG, -ONE, -IMAG):
        pt = draw_point(rng, 2, s=s)
        tmat = transfer_matrix(pt)
        assert ones(4) @ tmat == ones(4)
        assert tmat == transfer_matrix_naive(pt)
