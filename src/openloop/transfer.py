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

All contractions go through one planar frontier sweep, `_sweep`,
which carries weighted partial states tile by tile and merges those of
equal connectivity.  `transfer_matrix` seeds it with one basis pattern
per column; `transfer_apply` seeds it with the whole vector at once, so
states from different input patterns merge as the bottom row consumes
their strands; the recursion checks compare seeded columns of T at the
specialised and at the reduced point.  `transfer_matrix_naive`
expands the full 2^(2L+2) sum with an explicit edge graph and path
tracing; it is deliberately independent of the sweep and serves as the
oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .baxter import face_weights_K0, face_weights_KL, face_weights_R
from .errors import SingularParameterError
from .exactfield import ONE, Q, Scalar, ZERO
from .linkpat import (
    SparseOperator,
    closure,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    word_of,
)

__all__ = [
    "SpectralPoint",
    "assert_generic",
    "transfer_matrix",
    "transfer_apply",
    "transfer_matrix_naive",
    "check_column_sums",
    "check_commuting",
    "check_interlace",
    "check_T_recursion",
    "check_T_boundary_recursion",
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


_BL = ("L",)
_BR = ("R",)


def _new_pair(st: dict, x: int, y: int) -> None:
    st[x] = ("P", y)
    st[y] = ("P", x)


def _extend(st: dict, new: int, old: int) -> None:
    conn = st.pop(old)
    if conn[0] == "P":
        other = conn[1]
        st[other] = ("P", new)
        st[new] = ("P", other)
    else:
        st[new] = conn


def _connect(st: dict, x: int, y: int) -> None:
    cx = st.pop(x)
    cy = st.pop(y)
    if cx == ("P", y):
        return  # closed loop, weight 1
    if cx[0] == "P" and cy[0] == "P":
        _new_pair(st, cx[1], cy[1])
    elif cx[0] == "P":
        st[cx[1]] = cy
    elif cy[0] == "P":
        st[cy[1]] = cx
    # both ends on a wall: arc dropped with weight 1


def _to_wall(st: dict, x: int, wall: tuple) -> None:
    conn = st.pop(x)
    if conn[0] == "P":
        st[conn[1]] = wall


def _freeze(st: dict) -> tuple:
    return tuple(sorted(st.items()))


def _branch(states: dict, mutate, weights: tuple[Scalar, Scalar]) -> dict:
    """Apply a two-filling tile to every partial state."""
    out: dict = {}
    for key, amp in states.items():
        for choice, wgt in zip((0, 1), weights):
            if wgt.is_zero():
                continue
            st = dict(key)
            mutate(st, choice)
            k = _freeze(st)
            acc = out.get(k)
            out[k] = amp * wgt if acc is None else acc + amp * wgt
    return {k: v for k, v in out.items() if not v.is_zero()}


def _seed(word: str) -> tuple:
    """Frozen frontier state of one input pattern, before any tile."""
    init: dict = {}
    if not word:
        _new_pair(init, _K0B, _AUX)
    else:
        m = closure(word)
        for a, b in m.pairs:
            _new_pair(init, a, b)
        for a in m.left:
            init[a] = _BL
        for a in m.right:
            init[a] = _BR
    return _freeze(init)


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
                    _extend(st, _K0B, j)
                else:
                    _connect(st, j, _AUX)
                _new_pair(st, _mid(j), _AUX)
            else:  # filling B: (S,E), (N,W)
                if j == 1:
                    _new_pair(st, _mid(j), _K0B)
                else:
                    _extend(st, _mid(j), _AUX)
                _extend(st, _AUX, j)

        states = _branch(states, bottom_tile, bottom[j - 1])

    def right_wall(st: dict, choice: int) -> None:
        if choice == 1:
            _to_wall(st, _AUX, _BR)
            st[_AUX] = _BR

    states = _branch(states, right_wall, kL)

    for j in range(length, 0, -1):

        def top_tile(st: dict, choice: int, j=j) -> None:
            if choice == 0:  # filling A: (S,W), (N,E)
                _extend(st, _out(j), _AUX)
                _extend(st, _AUX, _mid(j))
            else:  # filling B: (S,E), (N,W)
                _connect(st, _mid(j), _AUX)
                _new_pair(st, _out(j), _AUX)

        states = _branch(states, top_tile, top[j - 1])

    def left_wall(st: dict, choice: int) -> None:
        if choice == 0:
            _connect(st, _K0B, _AUX)
        else:
            _to_wall(st, _K0B, _BL)
            _to_wall(st, _AUX, _BL)

    states = _branch(states, left_wall, k0)

    column: dict[int, Scalar] = {}
    for key, amp in states.items():
        st = dict(key)
        symbols = []
        for j in range(1, length + 1):
            conn = st[_out(j)]
            if conn == _BL:
                symbols.append(")")
            elif conn == _BR:
                symbols.append("(")
            else:
                symbols.append("(" if conn[1] > _out(j) else ")")
        idx = index_of("".join(symbols))
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


def transfer_matrix_naive(pt: SpectralPoint, cap: int = NAIVE_CAP) -> SparseOperator:
    if pt.length > cap:
        raise ValueError(f"naive expansion refused for L > {cap}")
    weights = _tile_weights(pt)
    length = pt.length
    cols = [_naive_column(word_of(idx, length), weights) for idx in range(1 << length)]
    return SparseOperator(1 << length, cols)


# -- identity checks ---------------------------------------------------


def check_column_sums(pt: SpectralPoint) -> bool:
    """Every column of T sums to 1 (the all-ones covector is fixed)."""
    return all(s == ONE for s in transfer_matrix(pt).column_sums())


def check_commuting(pt: SpectralPoint, w2: Scalar) -> bool:
    """[T(w), T(w')] = 0 at equal bulk and boundary parameters."""
    t1 = transfer_matrix(pt)
    t2 = transfer_matrix(pt.with_w(w2))
    return t1 @ t2 == t2 @ t1


def check_interlace(pt: SpectralPoint, i: int) -> bool:
    """Exchange of neighbouring z's (or a reflection at i = 0, L) by
    conjugation with the Baxterised operators."""
    from .baxter import kcheck0, kcheckL, rcheck

    length = pt.length
    if i == 0:
        op = kcheck0(pt.z[0].inv(), pt.zeta1, length)
        lhs = op @ transfer_matrix(pt)
        rhs = transfer_matrix(pt.with_z(1, pt.z[0].inv())) @ op
    elif i == length:
        op = kcheckL(pt.z[-1], pt.zeta2, length)
        lhs = op @ transfer_matrix(pt)
        rhs = transfer_matrix(pt.with_z(length, pt.z[-1].inv())) @ op
    elif 1 <= i <= length - 1:
        op = rcheck(i, pt.z[i - 1] / pt.z[i], length)
        lhs = op @ transfer_matrix(pt)
        rhs = transfer_matrix(pt.swapped(i)) @ op
    else:
        raise ValueError(f"interlace index {i} out of range 0..{length}")
    return lhs == rhs


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


def check_T_recursion(pt: SpectralPoint, i: int) -> bool:
    """T_L o phi_i = phi_i o T_{L-2} at z_{i+1} = q z_i (unit factor)."""
    length = pt.length
    if not 1 <= i <= length - 1:
        raise ValueError(f"bulk recursion index {i} out of range 1..{length - 1}")
    if pt.z[i] != Q * pt.z[i - 1]:
        raise ValueError("bulk recursion needs z_{i+1} = q z_i")
    return _check_embedding(
        pt, pt.without_sites((i, i + 1)), lambda word: insert_link(i, word)
    )


def check_T_boundary_recursion(pt: SpectralPoint, side: str) -> bool:
    """Left: at z_1 = q zeta_1, T_L o phi_0 = phi_0 o T_{L-1} with the
    left parameter advanced to q zeta_1.  Right: at z_L = zeta_2 / q,
    mirrored with the right parameter moved to zeta_2 / q."""
    length = pt.length
    if side == "left":
        if pt.z[0] != Q * pt.zeta1:
            raise ValueError("left boundary recursion needs z_1 = q zeta_1")
        reduced = replace(pt.without_sites((1,)), zeta1=Q * pt.zeta1)
        return _check_embedding(pt, reduced, insert_left)
    if side == "right":
        if pt.z[-1] != pt.zeta2 / Q:
            raise ValueError("right boundary recursion needs z_L = zeta_2 / q")
        reduced = replace(pt.without_sites((length,)), zeta2=pt.zeta2 / Q)
        return _check_embedding(pt, reduced, insert_right)
    raise ValueError("side must be 'left' or 'right'")
