"""Inhomogeneous double-row transfer matrix on the open strip.

The transfer matrix T_L(w; z_1..z_L; zeta_1, zeta_2) is a product of
2L + 2 Baxterised tiles glued onto a link pattern: an auxiliary strand
leaves the left wall, passes the L sites (bottom row of R tiles),
reflects off the right wall (K_L tile), passes them back (top row) and
closes at the left wall (K_0 tile).  Each tile is id_weight * 1 +
cup_weight * e on the auxiliary strand and one site or wall, where 1
crosses the two strands (at a wall it does nothing) and e is the
`linkpat` e that `apply_e` uses.  At the combinatorial point every loop
and every arc from wall to wall carries weight 1.  Tile weights (fixed
once and singled out among all argument conventions by the identity
suite and the exact L = 1, 2 groundstates), in the order the strand
meets them:

    bottom row, site j = 1..L:   face_weights_R(w, z_j),
    right wall:                  face_weights_KL(w, zeta_2),
    top row, site j = L..1:      face_weights_R(z_j w, 1),
    left wall:                   face_weights_K0(1 / w, zeta_1).

No tile reads s, so T does not depend on it: s enters only through
`pi_point` and `exchange_coefficients`.  Every product with T is one
frontier sweep, `_sweep`, which applies the tiles in that order to a
batch of sparse columns: each partial state (site j's strand end in
slot j) carries the amplitudes of the whole batch, and states of equal
connectivity merge across patterns and columns.  Where each state goes
depends only on L, so `_plan` finds it once per L and a sweep only does
arithmetic.  Columns are keyed by basis index and hold Z[zeta]
numerators over one denominator, as a `SparseOperator` does, and each
tile's two weights share another, cleared once per distinct tile and
kept outside the sweep.  Products are in Z[omega], omega = zeta^2: a
Z[zeta] amplitude is x + zeta y with x and y in Z[omega], each state
carries these two parts under one key layout, and a zero part is never
stored, so at a rational point, where every y is 0, a state keeps x
alone.  A part packs the batch's numerators into one big int per power
of omega, with a slot of fixed width per column (Kronecker
substitution), so a tile step is one Z[omega] product per part and
weight factor, run in C with no gcd.  The sweep returns columns in the
same form: `transfer_times(pt, op)` keeps them as T(pt) @ op,
`transfer_matrix` is T times the identity, and the recursion checks
compare two sweeps with `same_columns`, all with no gcd; only
`transfer_apply` clears and reads back Scalars.
`transfer_matrix_naive` expands the 2^(2L+2) planar fillings by
explicit path tracing, independently of the sweep, as its oracle: each
filling with a nonzero weight is weighed and traced through the slab
once per point, and every pattern then closes those paths.

The exchange, reflection and recursion relations are indexed by a site
i = 0..L: 0 is the left wall, 1..L-1 the bulk and L the right wall.
Their index-i data is written once, in tables that reject any other i
and L = 0: `pi_point` (the moved point pi_i), `exchange_coefficients`
(the (A, B, D) of O_i = (A - B e_i) / D, from the `baxter` triples),
which `exchange_operator` assembles, and `reduction` (the specialised
point, the reduced point and the table of the pattern embedding of the
size-lowering recursion).  `check_interlace`, `check_T_recursion` and
their groundstate counterparts return one verdict per index, left wall
first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import count
from typing import Iterable, Sequence

from .baxter import (
    FaceWeights,
    baxterised,
    face_weights_K0,
    face_weights_KL,
    face_weights_R,
    k_coefficients,
    r_coefficients,
)
from .exactfield import (
    FOURTH_ROOTS,
    ONE,
    Q,
    Scalar,
    ZERO,
    cleared,
    cleared_columns,
    same_columns,
)
from .linkpat import (
    LEFT_WALL,
    RIGHT_WALL,
    SparseOperator,
    all_patterns,
    connect,
    cup_cap,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    read_word,
    seed,
    swap,
    wall_cap,
    word_of,
)

__all__ = [
    "SpectralPoint",
    "assert_generic",
    "pi_point",
    "exchange_coefficients",
    "exchange_operator",
    "reduction",
    "transfer_matrix",
    "transfer_times",
    "transfer_apply",
    "transfer_matrix_naive",
    "check_interlace",
    "check_T_recursion",
    "NAIVE_CAP",
]

NAIVE_CAP = 4


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral data of one strip: bulk z's, boundary zetas, auxiliary w, s."""

    z: tuple[Scalar, ...]
    zeta1: Scalar
    zeta2: Scalar
    w: Scalar
    s: Scalar = ONE

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        for k, x in enumerate(self.z, start=1):
            if x.is_zero():
                raise ValueError(f"spectral parameter z_{k} must be nonzero")
        for name in ("zeta1", "zeta2", "w", "s"):
            if getattr(self, name).is_zero():
                raise ValueError(f"spectral parameter {name} must be nonzero")
        if self.s not in FOURTH_ROOTS.values():
            raise ValueError("s must be a fourth root of unity")

    @property
    def length(self) -> int:
        return len(self.z)

    def with_w(self, w: Scalar) -> SpectralPoint:
        return replace(self, w=w)

    def with_z(self, i: int, value: Scalar) -> SpectralPoint:
        """Replace z_i (1-based)."""
        zs = list(self.z)
        zs[i - 1] = value
        return replace(self, z=tuple(zs))

    def swapped(self, i: int) -> SpectralPoint:
        """Exchange z_i and z_{i+1} (1-based)."""
        zs = list(self.z)
        zs[i - 1], zs[i] = zs[i], zs[i - 1]
        return replace(self, z=tuple(zs))

    def reflected(self) -> SpectralPoint:
        """The strip read from the right wall: z_k -> 1/(s z_{L+1-k}),
        zeta_1 -> 1/(s zeta_2), zeta_2 -> s zeta_1."""
        zs = tuple((self.s * x).inv() for x in reversed(self.z))
        return replace(self, z=zs, zeta1=(self.s * self.zeta2).inv(), zeta2=self.s * self.zeta1)

    def without_sites(self, sites: Iterable[int]) -> SpectralPoint:
        drop = set(sites)
        zs = tuple(x for k, x in enumerate(self.z, start=1) if k not in drop)
        return replace(self, z=zs)


# -- index-i data: 0 the left wall, 1..L-1 the bulk, L the right wall ----


def _relation_length(pt: SpectralPoint, i: int) -> int:
    """L, after checking that i names a wall or bulk relation of pt."""
    length = pt.length
    if length == 0 or not 0 <= i <= length:
        raise ValueError(f"relation index {i} out of range 0..{length} (needs L >= 1)")
    return length


def pi_point(pt: SpectralPoint, i: int) -> SpectralPoint:
    """The moved point pi_i pt: z_1 -> 1/z_1 at the left wall, z_i and
    z_{i+1} swapped in the bulk, z_L -> 1/(s^2 z_L) at the right wall."""
    length = _relation_length(pt, i)
    if i == 0:
        return pt.with_z(1, pt.z[0].inv())
    if i == length:
        return pt.with_z(length, (pt.s * pt.s * pt.z[-1]).inv())
    return pt.swapped(i)


def exchange_coefficients(pt: SpectralPoint, i: int) -> tuple[Scalar, Scalar, Scalar]:
    """(A, B, D) of the Baxterised operator O_i = (A - B e_i) / D at pt:
    Kcheck_0(1/z_1, zeta_1) at the left wall, Rcheck_i(z_i / z_{i+1}) in
    the bulk, Kcheck_L(s z_L, s zeta_2) at the right wall."""
    length = _relation_length(pt, i)
    if i == 0:
        return k_coefficients(pt.z[0].inv(), pt.zeta1)
    if i == length:
        return k_coefficients(pt.s * pt.z[-1], pt.s * pt.zeta2)
    return r_coefficients(pt.z[i - 1] / pt.z[i])


def exchange_operator(pt: SpectralPoint, i: int) -> SparseOperator:
    """The Baxterised operator O_i at pt, from `exchange_coefficients`."""
    return baxterised(i, exchange_coefficients(pt, i), pt.length)


def reduction(pt: SpectralPoint, i: int) -> tuple[SpectralPoint, SpectralPoint, list[int]]:
    """(specialised, reduced, image) of the size-lowering recursion at i,
    where image[j] is the basis index of the embedded reduced pattern j.

    Left wall: z_1 = q zeta_1, site 1 dropped with zeta_1 advanced to
    q zeta_1, the embedding prepends a strand to the left wall.  Bulk:
    z_{i+1} = q z_i, sites i, i+1 dropped, the embedding inserts a small
    link at (i, i+1).  Right wall: z_L = zeta_2 / q, site L dropped with
    zeta_2 moved to zeta_2 / q, the embedding appends a strand to the
    right wall.
    """
    length = _relation_length(pt, i)
    if i == 0:
        specialised = pt.with_z(1, Q * pt.zeta1)
        reduced = replace(specialised.without_sites((1,)), zeta1=Q * pt.zeta1)
        embed = insert_left
    elif i == length:
        specialised = pt.with_z(length, pt.zeta2 / Q)
        reduced = replace(specialised.without_sites((length,)), zeta2=pt.zeta2 / Q)
        embed = insert_right
    else:
        specialised = pt.with_z(i + 1, Q * pt.z[i - 1])
        reduced = specialised.without_sites((i, i + 1))
        embed = partial(insert_link, i)
    return specialised, reduced, [index_of(embed(word)) for word in all_patterns(reduced.length)]


def _slots(length: int) -> list:
    """Site or wall of every tile, in the order the auxiliary strand meets
    them: the bottom row left to right, the right wall, the top row right
    to left, the left wall."""
    sites = list(range(1, length + 1))
    return sites + [RIGHT_WALL] + sites[::-1] + [LEFT_WALL]


def _tile_weights(pt: SpectralPoint) -> list[FaceWeights]:
    """The FaceWeights of every tile, in `_slots` order.  The face weights
    are memoized (`baxter`), so tiles with the same arguments share one
    FaceWeights, computed once: at z_i = 1 all 2L bulk tiles are
    face_weights_R(w, 1), and a point that moves one z reuses the rest."""
    return (
        [face_weights_R(pt.w, z) for z in pt.z]
        + [face_weights_KL(pt.w, pt.zeta2)]
        + [face_weights_R(z * pt.w, ONE) for z in reversed(pt.z)]
        + [face_weights_K0(pt.w.inv(), pt.zeta1)]
    )


def assert_generic(pt: SpectralPoint) -> None:
    """Raise SingularParameterError when any tile weight has a pole."""
    _tile_weights(pt)


@lru_cache(maxsize=None)
def _plan(length: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Where the sweep at L = length takes each state; no weight enters.
    Layer 0 holds the 2^L `seed`ed patterns in `index_of` order, each
    state keyed by tuple(st).  Site j's strand end stays in slot j for the
    whole sweep, and the seed's spare strand is the auxiliary one: it runs
    from slot 0, its start at the left wall, to its moving end in slot
    L + 1.  Entry i of each tile is the (crossing, e) pair of next-layer
    indices of state i: at a site (slot > 0) the crossing swaps its strand
    with the auxiliary one, at a wall (a negative wall code) it does
    nothing.  The last tile also closes the auxiliary strand, so its pairs
    are the rows the states read."""
    aux = length + 1
    layer = [tuple(seed(word)) for word in all_patterns(length)]
    tiles = []
    for slot in _slots(length):
        index: dict = {}
        succ = []
        for key in layer:
            cross, e = list(key), list(key)
            if slot > 0:
                swap(cross, slot, aux)
                cup_cap(e, slot, aux)
            else:
                wall_cap(e, aux, slot)
            i = index.setdefault(tuple(cross), len(index))
            succ.append((i, index.setdefault(tuple(e), len(index))))
        tiles.append(tuple(succ))
        layer = list(index)
    rows = []
    for key in layer:
        st = list(key)
        connect(st, 0, aux)
        rows.append(index_of(read_word(st, range(1, aux))))
    tiles[-1] = tuple(tuple(rows[k] for k in pair) for pair in tiles[-1])
    return tuple(tiles)


def _unpack(packed: int, span: int, width: int) -> list[int]:
    """The span signed width-bit slots of packed, lowest first; each
    must lie in (-2^(width-1), 2^(width-1)), and width is whole bytes."""
    half, size = 1 << (width - 1), width // 8
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * span, "little")  # half per slot
    buf = (packed + bias).to_bytes(span * size, "little")
    return [int.from_bytes(buf[k : k + size], "little") - half for k in range(0, len(buf), size)]


def _sweep(
    pt: SpectralPoint, cols: Sequence[dict[int, tuple[int, int, int, int]]], den: int
) -> tuple[list[dict[int, tuple[int, int, int, int]]], int]:
    """T(pt) applied to each sparse column {basis index: Z[zeta]
    numerators} over den, as one such column per input column over one
    denominator, returned with it, in a single pass that follows the
    `_plan` of L and only does the arithmetic.

    Layer 0 of the plan is the basis in index order, so column entries
    seed it directly.  The batch enters over its one denominator D = den,
    and tile t multiplies by numerators over its own d_t, so every final
    amplitude stands over c D, c = prod d_t, which is returned as it is,
    with no gcd.  Every product is taken in Z[omega],
    omega = zeta^2 with omega^2 = omega - 1: a Z[zeta] numerator is
    x + zeta y with x = (n0, n2) and y = (n1, n3) in Z[omega], its parts
    0 and 1, and state i of the plan is split into the keys i << 1 | part.
    A zero part is never stored, so at a rational point, where every y is
    0, only the even keys are.  A key holds its part's Z[omega] numerators
    for the whole batch as (off, A0, A2): slot j of A0 and of A2, W bits
    wide, is the 1 and the omega numerator of column off + j.  A weight
    C + zeta D sends (x, y) to (x C + y omega D, x D + y C), so each
    source part has a list of (is_e, target part, Z[omega] factor) with
    zero factors dropped (`_factors`), and a tile step is one Z[omega]
    product per (key, factor), sending the key's state i to
    succ[i][is_e], after which keys of different offsets add once the
    higher one is shifted left by W per offset step (`_layer`).  Each
    distinct tile is cleared once, keyed by its FaceWeights object: at
    z_i = 1 all 2L bulk tiles share one (`_tile_weights`).

    Packing is linear: a packed int is sum_j a_j 2^(W j) over its slots
    a_j, and products with weights, sums and shifts keep it so.  Only the
    read-back needs a bound: it is exact, and a packed int is 0 exactly
    when all its slots are, while every slot lies in (-2^(W-1), 2^(W-1)).
    W is chosen for that, a condition the code does not check.  Since
    |a b|_1 <= 2 |a|_1 |b|_1 in Z[omega] (omega^2 = omega - 1 has l1
    norm 2), a tile multiplies the l1 mass of one column, summed over
    keys and powers of omega, by at most g_t = 2 max_p sum_f |f|_1, the
    sum over the factors f of source part p.  With no odd weight this is
    2 (|id_t|_1 + |cup_t|_1); otherwise |omega D|_1 <= 2 |D|_1, so g_t
    is at most twice that.  Every slot, and every partial sum of slots,
    is bounded by its column's mass, hence by M = max_v |v|_1 prod_t
    g_t, and W = bits(M) + 2 rounded up to whole bytes.  So a key whose
    packed ints cancel to 0 is dropped, and the last layer, whose states
    are the rows, is read back exactly with `_unpack`, both parts of a
    row into one (n0, n1, n2, n3).
    """
    tiles: dict = {}
    steps, c, bound = [], 1, 1
    for succ, fw in zip(_plan(pt.length), _tile_weights(pt)):
        if (tile := tiles.get(id(fw))) is None:  # a shared tile is cleared once
            tile = tiles[id(fw)] = _factors(fw)
        factors, d, g = tile
        c, bound = c * d, bound * g
        steps.append((succ, factors))
    mass = max((sum(abs(x) for n in col.values() for x in n) for col in cols), default=0)
    width = -(-((mass * bound).bit_length() + 2) // 8) * 8
    states: dict = {}
    for v, col in enumerate(cols):
        for j, n in col.items():
            for part in (0, 1):
                a0, a2 = n[part], n[part + 2]
                if (prev := states.get(k := j << 1 | part)) is not None:
                    shift = width * (v - prev[0])  # v rises, so the earlier offset stays
                    states[k] = (prev[0], prev[1] + (a0 << shift), prev[2] + (a2 << shift))
                elif a0 or a2:
                    states[k] = (v, a0, a2)
    for succ, factors in steps:
        states = _layer(states, succ, factors, width)
    out: list[dict] = [{} for _ in cols]
    for k, (off, a0, a2) in states.items():
        r, part = k >> 1, k & 1
        span = len(cols) - off
        for j, x, y in zip(count(off), _unpack(a0, span, width), _unpack(a2, span, width)):
            if x or y:
                n = out[j].get(r, (0, 0, 0, 0))
                out[j][r] = (n[0], x, n[2], y) if part else (x, n[1], y, n[3])
    return out, c * den


def _factors(fw: FaceWeights) -> tuple[tuple[list, list], int, int]:
    """(factors, d, g) of a tile: its weights cleared over d, each
    C + zeta D with C = (n0, n2), D = (n1, n3) in Z[omega], as the
    (is_e, target part, b0, b2, b0 + b2) per source part, and its growth
    bound g = 2 max_p sum_f |f|_1 of `_sweep`.  x goes to x C in part 0
    and x D in part 1, y to y omega D in part 0 and y C in part 1, where
    omega D = (-n3, n1 + n3).  Zero factors are dropped, so a weight with
    no odd part sends x to part 0 alone."""
    nums, d = cleared((fw.id_weight, fw.cup_weight))
    parts: tuple[list, list] = ([], [])
    for is_e, (n0, n1, n2, n3) in enumerate(nums):
        for src, tgt, b0, b2 in ((0, 0, n0, n2), (0, 1, n1, n3), (1, 0, -n3, n1 + n3), (1, 1, n0, n2)):
            if b0 or b2:
                parts[src].append((is_e, tgt, b0, b2, b0 + b2))
    return parts, d, 2 * max(sum(abs(b0) + abs(b2) for _, _, b0, b2, _ in fs) for fs in parts)


def _layer(states: dict, succ: tuple, factors: tuple, width: int) -> dict:
    """One tile of `_sweep` on keys i << 1 | part holding (off, A0, A2)
    in Z[omega], with each (is_e, target part, b0, b2, b0 + b2) of the
    key's part: (a0 + a2 omega)(b0 + b2 omega) = (a0 b0 - a2 b2) +
    ((a0 + a2)(b0 + b2) - a0 b0) omega, as omega^2 = omega - 1: the
    Z[omega] branch of `exactfield.zmul`, written out because calling it
    slowed building T at z = 2, 3, 5, ..., zeta_1 = 2, zeta_2 = 3, w = 5/2
    from 4.5 to 5.4 ms at L = 5 and from 73 to 92 ms at L = 7 (best of
    3, Python 3.11.7, 2 shared CPUs)."""
    out: dict = {}
    while states:  # popitem frees each state once it is spent
        key, (off, a0, a2) = states.popitem()
        a02, targets = a0 + a2, succ[key >> 1]
        for is_e, part, b0, b2, b02 in factors[key & 1]:
            t = a0 * b0
            p0 = t - a2 * b2
            p2 = a02 * b02 - t
            k = targets[is_e] << 1 | part
            if (q := out.get(k)) is None:
                out[k] = (off, p0, p2)
                continue
            q0, q1, q2 = q
            if q0 == off:
                q = (off, q1 + p0, q2 + p2)
            elif q0 < off:
                s = width * (off - q0)
                q = (q0, q1 + (p0 << s), q2 + (p2 << s))
            else:
                s = width * (q0 - off)
                q = (off, (q1 << s) + p0, (q2 << s) + p2)
            if q[1] or q[2]:
                out[k] = q
            else:
                del out[k]
    return out


def transfer_times(pt: SpectralPoint, op: SparseOperator) -> SparseOperator:
    """T(pt) @ op: one sweep of the integer columns of op, whose result
    over c D is the product, with no gcd."""
    if op.dim != 1 << pt.length:
        raise ValueError("dimension mismatch")
    return SparseOperator.from_integers(*_sweep(pt, op.num_cols, op.den))


def transfer_matrix(pt: SpectralPoint) -> SparseOperator:
    """T at pt as a 2^L by 2^L operator: T times the identity."""
    return transfer_times(pt, SparseOperator.identity(1 << pt.length))


def transfer_apply(vec: Sequence[Scalar], pt: SpectralPoint) -> list[Scalar]:
    """T(pt) applied to a coefficient vector in the pattern basis: one sweep
    of its `cleared_columns`, read back as Scalars, one gcd per entry."""
    if len(vec) != 1 << pt.length:
        raise ValueError("vector length mismatch")
    seeds = {j: x for j, x in enumerate(vec) if not x.is_zero()}
    (col,), d = _sweep(pt, *cleared_columns([seeds]))
    return [Scalar.from_integers(col[r], d) if r in col else ZERO for r in range(len(vec))]


# -- naive oracle ------------------------------------------------------


def _fillings(pt: SpectralPoint) -> list[tuple[Scalar, dict]]:
    """(weight, ends) of every filled slab of nonzero weight, in the order
    of the bit masks that number them: bit t is set where tile t holds its
    e, the tiles taken as the bottom row left to right, the right wall,
    the top row left to right and the left wall.  ends maps each strand
    end of the slab, ("in", j) below or ("out", j) above site j, to the
    far end of its path, traced edge by edge through the slab: another
    strand end or a wall, "L" or "R".

    Filling A of a bulk tile pairs its (bottom, left) and (top, right)
    edges, filling B its (bottom, right) and (top, left).  The top row's
    crossing is filling A, but the auxiliary strand runs through the
    bottom row the other way, so there the fillings are crossed: the
    crossing is filling B.  A wall tile's crossing is the straight
    filling (the auxiliary strand makes a U-turn) and its e the turn-back
    of both edges into the wall.
    """
    length = pt.length
    fws = _tile_weights(pt)
    choices = []  # per tile: its FaceWeights, the edges of its crossing and of its e
    for j, fw in enumerate(fws[:length], start=1):
        s, wv, n, e = ("in", j), ("bh", j - 1), ("mid", j), ("bh", j)
        choices.append((fw, [(s, e), (n, wv)], [(s, wv), (n, e)]))
    bh, th = ("bh", length), ("th", length)
    choices.append((fws[length], [(bh, th)], [(bh, "R"), (th, "R")]))
    for j, fw in enumerate(fws[2 * length : length : -1], start=1):
        s, wv, n, e = ("mid", j), ("th", j - 1), ("out", j), ("th", j)
        choices.append((fw, [(s, wv), (n, e)], [(s, e), (n, wv)]))
    bh, th = ("bh", 0), ("th", 0)
    choices.append((fws[-1], [(bh, th)], [(bh, "L"), (th, "L")]))
    slabs = [(ONE, [])]
    for fw, crossing, e in choices:  # each tile is the next higher bit
        options = ((fw.id_weight, crossing), (fw.cup_weight, e))
        slabs = [(w * x, edges + more) for x, more in options if not x.is_zero() for w, edges in slabs]
    fillings = []
    for weight, edges in slabs:
        adj: dict = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        ends = {}
        for start in adj:
            if start[0] in ("in", "out"):  # "L"[0] and "R"[0] are neither
                prev, cur = start, adj[start][0]
                while cur[0] not in ("L", "R", "in", "out"):
                    a, b = adj[cur]
                    prev, cur = cur, b if a == prev else a
                ends[start] = cur
        fillings.append((weight, ends))
    return fillings


def _naive_column(word: str, fillings: list[tuple[Scalar, dict]]) -> dict[int, Scalar]:
    """Sum over the `_fillings` of the slab on word: the path from each
    ("out", j) runs through the slab, and through the arcs and wall
    strands of word below it, to a wall or to another ("out", k).  Below
    the slab, ("in", k) leads to ("in", seed(word)[k]) or to its wall."""
    walls = {LEFT_WALL: "L", RIGHT_WALL: "R"}
    below = {("in", k): walls.get(p, ("in", p)) for k, p in enumerate(seed(word)[1:-1], start=1)}
    column: dict[int, Scalar] = {}
    for weight, ends in fillings:
        symbols = []
        for j in range(1, len(word) + 1):
            end = ends["out", j]
            while end[0] == "in":
                end = below[end]
                end = ends.get(end, end)  # a wall ends the path
            # A path to the left wall or back to an earlier site closes.
            symbols.append(")" if end == "L" or (end != "R" and end[1] < j) else "(")
        idx = index_of("".join(symbols))
        acc = column.get(idx)
        column[idx] = weight if acc is None else acc + weight
    return {r: v for r, v in column.items() if not v.is_zero()}


def transfer_matrix_naive(pt: SpectralPoint) -> SparseOperator:
    if pt.length > NAIVE_CAP:
        raise ValueError(f"naive expansion refused for L > NAIVE_CAP = {NAIVE_CAP}")
    fillings = _fillings(pt)
    cols = [_naive_column(word_of(idx, pt.length), fillings) for idx in range(1 << pt.length)]
    return SparseOperator(1 << pt.length, cols)


# -- identity checks ---------------------------------------------------


def check_interlace(pt: SpectralPoint, tmat: SparseOperator) -> list[bool]:
    """O_i T(pt) = T(pi_i pt) O_i for i = 0..L (the exchange of
    neighbouring z's in the bulk, the reflections at both walls), given
    tmat = T(pt); the right side is one sweep of O_i, so no T is built."""
    verdicts = []
    for i in range(pt.length + 1):
        op = exchange_operator(pt, i)
        verdicts.append(op @ tmat == transfer_times(pi_point(pt, i), op))
    return verdicts


def _check_embedding(pt: SpectralPoint, reduced: SpectralPoint, image: list[int]) -> bool:
    """T(pt) o embed = embed o T(reduced), embed sending reduced pattern j
    to basis index image[j]: one sweep of the embedded basis at pt
    against one sweep of the whole basis at the reduced point, compared
    on their integer columns by `same_columns`."""
    lhs, dl = _sweep(pt, [{j: (1, 0, 0, 0)} for j in image], 1)
    rhs, dr = _sweep(reduced, [{j: (1, 0, 0, 0)} for j in range(len(image))], 1)
    return same_columns(lhs, dl, [{image[r]: n for r, n in col.items()} for col in rhs], dr)


def check_T_recursion(pt: SpectralPoint) -> list[bool]:
    """T_L o embed = embed o T_reduced, with unit factor, at each
    specialisation of `reduction(pt, i)` for i = 0..L."""
    return [_check_embedding(*reduction(pt, i)) for i in range(pt.length + 1)]
