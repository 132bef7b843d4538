"""Inhomogeneous double-row transfer matrix on the open strip.

The transfer matrix T_L(w; z_1..z_L; zeta_1, zeta_2) is a slab of
2L + 2 binary tiles glued onto a link pattern: an auxiliary strand
enters at the left wall, crosses the L bulk strands (bottom row of R
tiles), reflects off the right wall (K tile), crosses back (top row)
and closes at the left wall (second K tile).  Every tile independently
takes one of two planar fillings, so a matrix element is a sum over
2^(2L+2) filled diagrams, each reduced to a basis pattern.  At the
combinatorial point all loop and boundary closures carry weight 1, so
a diagram's weight is just the product of its tile weights.

Tile arguments (fixed here once and verified by the identity suite:
commuting family, column sums, interlacing, recursions and the exact
L = 1, 2 groundstate benchmarks, which single out this assignment
among all argument and filling conventions):

    bottom row, site j:   R weights at u = w / z_j, fillings crossed,
    top row, site j:      R weights at u = z_j * w,
    left wall:            K_0 weights at (1 / w, zeta_1),
    right wall:           K_L weights at (w, zeta_2).

"Fillings crossed" means the two arc fillings trade weights relative
to the top row, because the auxiliary strand traverses the bottom
tiles in the opposite direction; by the crossing relation this is the
same as reading the plain weights at q z_j / w.

All contractions go through one planar frontier sweep, `_sweep`, which
carries weighted partial states tile by tile and merges those of equal
connectivity.  Every reconnection it makes, and its word readout, are
the frontier-state operations of `linkpat`, the same ones `apply_e`
uses.  `transfer_matrix` seeds it with one pattern per column and
`transfer_apply` with the whole vector at once, so states from
different patterns merge as the bottom row consumes their strands.
`transfer_matrix_naive` expands the full 2^(2L+2) sum by explicit path
tracing, independently of the sweep, as its oracle.

The exchange, reflection and recursion relations are indexed by a site
i = 0..L: 0 is the left wall, 1..L-1 the bulk and L the right wall.
Their index-i data is written once, in tables that reject any other i
and L = 0: `pi_point` (the moved point pi_i), `exchange_coefficients`
(the (A, B, D) of O_i = (A - B e_i) / D, from the `baxter` triples),
which `exchange_operator` assembles, and `reduction` (the specialised
point, the reduced point and the pattern embedding of the size-lowering
recursion).  `check_interlace`, `check_T_recursion` and their
groundstate counterparts return one verdict per index, left wall first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence

from .baxter import (
    baxterised,
    face_weights_K0,
    face_weights_KL,
    face_weights_R,
    k_coefficients,
    r_coefficients,
)
from .exactfield import ONE, Q, Scalar, ZERO
from .linkpat import (
    LEFT_WALL,
    RIGHT_WALL,
    SparseOperator,
    closure,
    connect,
    extend,
    freeze,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    new_pair,
    read_word,
    seed,
    to_wall,
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
        for name in ("zeta1", "zeta2", "w", "s"):
            if getattr(self, name).is_zero():
                raise ValueError(f"spectral parameter {name} must be nonzero")
        if any(x.is_zero() for x in self.z):
            raise ValueError("bulk spectral parameters must be nonzero")
        if self.s**4 != ONE:
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


def reduction(
    pt: SpectralPoint, i: int
) -> tuple[SpectralPoint, SpectralPoint, Callable[[str], str]]:
    """(specialised, reduced, embed) of the size-lowering recursion at i.

    Left wall: z_1 = q zeta_1, site 1 dropped with zeta_1 advanced to
    q zeta_1, embed prepends a strand to the left wall.  Bulk:
    z_{i+1} = q z_i, sites i, i+1 dropped, embed inserts a small link at
    (i, i+1).  Right wall: z_L = zeta_2 / q, site L dropped with zeta_2
    moved to zeta_2 / q, embed appends a strand to the right wall.
    """
    length = _relation_length(pt, i)
    if i == 0:
        specialised = pt.with_z(1, Q * pt.zeta1)
        reduced = replace(specialised.without_sites((1,)), zeta1=Q * pt.zeta1)
        return specialised, reduced, insert_left
    if i == length:
        specialised = pt.with_z(length, pt.zeta2 / Q)
        reduced = replace(specialised.without_sites((length,)), zeta2=pt.zeta2 / Q)
        return specialised, reduced, insert_right
    specialised = pt.with_z(i + 1, Q * pt.z[i - 1])
    return specialised, specialised.without_sites((i, i + 1)), partial(insert_link, i)


def _tile_weights(pt: SpectralPoint):
    """Per-tile (filling A, filling B) weights for the slab at pt.

    Filling A of a bulk tile pairs (bottom, left) and (top, right)
    edges; filling B pairs (bottom, right) and (top, left).  For the
    wall tiles the first weight is the straight (U-turn) filling and
    the second the turn-back into the wall.
    """
    bottom = []
    top = []
    for zj in pt.z:
        fb = face_weights_R(pt.w, zj)
        bottom.append((fb.cup_weight, fb.id_weight))
        ft = face_weights_R(zj * pt.w, ONE)
        top.append((ft.id_weight, ft.cup_weight))
    k0 = face_weights_K0(pt.w.inv(), pt.zeta1)
    kL = face_weights_KL(pt.w, pt.zeta2)
    return bottom, top, (k0.id_weight, k0.cup_weight), (kL.id_weight, kL.cup_weight)


def assert_generic(pt: SpectralPoint) -> None:
    """Raise SingularParameterError when any tile weight has a pole."""
    _tile_weights(pt)


# Frontier slots.  Bulk input strands use their site number 1..L;
# the other live edges get reserved ids.
_K0B = -1
_AUX = -2


def _mid(j: int) -> int:
    return 100 + j


def _out(j: int) -> int:
    return 200 + j


def _branch(states: dict, mutate, weights: tuple[Scalar, Scalar]) -> dict:
    """Apply a two-filling tile to every partial state."""
    out: dict = {}
    for key, amp in states.items():
        for choice, wgt in zip((0, 1), weights):
            if wgt.is_zero():
                continue
            st = dict(key)
            mutate(st, choice)
            k = freeze(st)
            acc = out.get(k)
            out[k] = amp * wgt if acc is None else acc + amp * wgt
    return {k: v for k, v in out.items() if not v.is_zero()}


def _seed(word: str) -> tuple:
    """Frozen frontier state of one input pattern, before any tile."""
    if word:
        return seed(word)
    init: dict = {}
    new_pair(init, _K0B, _AUX)
    return freeze(init)


def _sweep(states: dict, length: int, weights) -> dict[int, Scalar]:
    """Carry seeded frontier states through the slab; {row: amplitude}.

    The bottom row consumes every input slot, so states seeded from
    different patterns merge as soon as their connectivities agree.
    """
    bottom, top, k0, kL = weights

    for j in range(1, length + 1):

        def bottom_tile(st: dict, choice: int, j=j) -> None:
            if choice == 0:  # filling A: (S,W), (N,E)
                if j == 1:
                    extend(st, _K0B, j)
                else:
                    connect(st, j, _AUX)
                new_pair(st, _mid(j), _AUX)
            else:  # filling B: (S,E), (N,W)
                if j == 1:
                    new_pair(st, _mid(j), _K0B)
                else:
                    extend(st, _mid(j), _AUX)
                extend(st, _AUX, j)

        states = _branch(states, bottom_tile, bottom[j - 1])

    def right_wall(st: dict, choice: int) -> None:
        if choice == 1:
            to_wall(st, _AUX, RIGHT_WALL)
            st[_AUX] = RIGHT_WALL

    states = _branch(states, right_wall, kL)

    for j in range(length, 0, -1):

        def top_tile(st: dict, choice: int, j=j) -> None:
            if choice == 0:  # filling A: (S,W), (N,E)
                extend(st, _out(j), _AUX)
                extend(st, _AUX, _mid(j))
            else:  # filling B: (S,E), (N,W)
                connect(st, _mid(j), _AUX)
                new_pair(st, _out(j), _AUX)

        states = _branch(states, top_tile, top[j - 1])

    def left_wall(st: dict, choice: int) -> None:
        if choice == 0:
            connect(st, _K0B, _AUX)
        else:
            to_wall(st, _K0B, LEFT_WALL)
            to_wall(st, _AUX, LEFT_WALL)

    states = _branch(states, left_wall, k0)

    slots = [_out(j) for j in range(1, length + 1)]
    column: dict[int, Scalar] = {}
    for key, amp in states.items():
        idx = index_of(read_word(dict(key), slots))
        acc = column.get(idx)
        column[idx] = amp if acc is None else acc + amp
    return {r: v for r, v in column.items() if not v.is_zero()}


def _column(word: str, weights) -> dict[int, Scalar]:
    """One column of T: the sweep of a single seeded pattern."""
    return _sweep({_seed(word): ONE}, len(word), weights)


def transfer_matrix(pt: SpectralPoint) -> SparseOperator:
    """T at pt as a 2^L by 2^L operator (one frontier sweep per column)."""
    weights = _tile_weights(pt)
    length = pt.length
    cols = [_column(word_of(idx, length), weights) for idx in range(1 << length)]
    return SparseOperator(1 << length, cols)


def transfer_apply(vec: Sequence[Scalar], pt: SpectralPoint) -> list[Scalar]:
    """T(pt) applied to a coefficient vector in the pattern basis, in one
    sweep seeded with every nonzero component."""
    weights = _tile_weights(pt)
    length = pt.length
    if len(vec) != 1 << length:
        raise ValueError("vector length mismatch")
    seeded = {
        _seed(word_of(idx, length)): x for idx, x in enumerate(vec) if not x.is_zero()
    }
    out = [ZERO] * (1 << length)
    for r, v in _sweep(seeded, length, weights).items():
        out[r] = v
    return out


# -- naive oracle ------------------------------------------------------


def _naive_column(word: str, weights) -> dict[int, Scalar]:
    """Sum over all 2^(2L+2) filled slabs with explicit path tracing."""
    bottom, top, k0, kL = weights
    length = len(word)
    m = closure(word)
    base_edges: list[tuple] = []
    for a, b in m.pairs:
        base_edges.append((("in", a), ("in", b)))
    for a in m.left:
        base_edges.append((("in", a), "L"))
    for a in m.right:
        base_edges.append((("in", a), "R"))

    ntiles = 2 * length + 2
    column: dict[int, Scalar] = {}
    for mask in range(1 << ntiles):
        weight = ONE
        edges = list(base_edges)
        bit = 0

        def filled(choice_weights):
            nonlocal weight, bit
            c = (mask >> bit) & 1
            bit += 1
            weight = weight * choice_weights[c]
            return c

        for j in range(1, length + 1):
            s, wv, n, e = ("in", j), ("bh", j - 1), ("mid", j), ("bh", j)
            if filled(bottom[j - 1]) == 0:
                edges += [(s, wv), (n, e)]
            else:
                edges += [(s, e), (n, wv)]
        if filled(kL) == 0:
            edges.append((("bh", length), ("th", length)))
        else:
            edges += [(("bh", length), "R"), (("th", length), "R")]
        for j in range(1, length + 1):
            s, wv, n, e = ("mid", j), ("th", j - 1), ("out", j), ("th", j)
            if filled(top[j - 1]) == 0:
                edges += [(s, wv), (n, e)]
            else:
                edges += [(s, e), (n, wv)]
        if filled(k0) == 0:
            edges.append((("bh", 0), ("th", 0)))
        else:
            edges += [(("bh", 0), "L"), (("th", 0), "L")]

        if weight.is_zero():
            continue
        adj: dict = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        symbols = []
        for j in range(1, length + 1):
            prev = ("out", j)
            cur = adj[prev][0]
            while cur not in ("L", "R") and not (isinstance(cur, tuple) and cur[0] == "out"):
                nbrs = list(adj[cur])
                nbrs.remove(prev)
                prev, cur = cur, nbrs[0]
            if cur == "L":
                symbols.append(")")
            elif cur == "R":
                symbols.append("(")
            else:
                symbols.append("(" if cur[1] > j else ")")
        idx = index_of("".join(symbols))
        acc = column.get(idx)
        column[idx] = weight if acc is None else acc + weight
    return {r: v for r, v in column.items() if not v.is_zero()}


def transfer_matrix_naive(pt: SpectralPoint) -> SparseOperator:
    if pt.length > NAIVE_CAP:
        raise ValueError(f"naive expansion refused for L > NAIVE_CAP = {NAIVE_CAP}")
    weights = _tile_weights(pt)
    length = pt.length
    cols = [_naive_column(word_of(idx, length), weights) for idx in range(1 << length)]
    return SparseOperator(1 << length, cols)


# -- identity checks ---------------------------------------------------


def check_interlace(pt: SpectralPoint, tmat: SparseOperator) -> list[bool]:
    """O_i T(pt) = T(pi_i pt) O_i for i = 0..L, given tmat = T(pt): the
    exchange of neighbouring z's in the bulk and the reflections at both
    walls."""
    verdicts = []
    for i in range(pt.length + 1):
        op = exchange_operator(pt, i)
        verdicts.append(op @ tmat == transfer_matrix(pi_point(pt, i)) @ op)
    return verdicts


def _check_embedding(pt: SpectralPoint, reduced: SpectralPoint, embed) -> bool:
    """T(pt) o embed = embed o T(reduced), compared one basis column at a time."""
    wts_big = _tile_weights(pt)
    wts_small = _tile_weights(reduced)
    small_length = reduced.length
    for idx in range(1 << small_length):
        small = word_of(idx, small_length)
        rhs = {
            index_of(embed(word_of(r, small_length))): v
            for r, v in _column(small, wts_small).items()
        }
        if _column(embed(small), wts_big) != rhs:
            return False
    return True


def check_T_recursion(pt: SpectralPoint) -> list[bool]:
    """T_L o embed = embed o T_reduced, with unit factor, at each
    specialisation of `reduction(pt, i)` for i = 0..L."""
    return [_check_embedding(*reduction(pt, i)) for i in range(pt.length + 1)]
