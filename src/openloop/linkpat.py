"""Link patterns and the two-boundary Temperley-Lieb action.

A state of the strip with L sites is a word of '(' and ')' of length
L.  Reading the word as balanced parentheses, matched pairs are little
arches between bulk sites; an unmatched ')' is a strand running to the
left boundary and an unmatched '(' one running to the right boundary.
Any of the 2^L words is a valid state.  Words are indexed by reading
'(' as bit 0 and ')' as bit 1 with site 1 as the most significant bit,
so for L = 2 the basis order is "((", "()", ")(", "))".

The boundary Temperley-Lieb generators act diagrammatically:

    e_i (1 <= i <= L-1) draws a new arch between i and i+1 and rejoins
        the former partners of i and i+1 to each other;
    e_0 pulls site 1 (and its former partner, if it has one in the
        bulk) onto the left boundary; e_L mirrors this on the right.

At the combinatorial point every closed loop carries weight
-(q + 1/q) = 1 and every arc that ends on the boundaries at both ends
carries the boundary weight b = 1, so each generator maps a basis word
to a single basis word and the matrices have exactly one unit entry
per column.

This module is the one home of strand reconnection.  A frontier state
is a list indexed by slot: entry x holds the slot at the other end of
the strand that ends at x (>= 0), or the wall that strand runs to,
LEFT_WALL = -1 or RIGHT_WALL = -2, and the state is hashed as
tuple(st).  `new_pair`, `swap`, `connect` and `to_wall` are the only
reconnection rules, and e is `cup_cap` (two strand ends) or `wall_cap`
(one end and a wall).  `apply_e` applies one e to a `seed`ed word, the
transfer sweep applies a crossing or an e per tile, and both read out
with `read_word`.  `seed` is the one parse of a word: the naive oracle
`transfer.transfer_matrix_naive` reads its input words through it too,
and traces its paths without these rules.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SingularParameterError
from .exactfield import ONE, ZERO, Scalar, addmul, cleared, cleared_columns, same_columns

__all__ = [
    "LEFT_WALL",
    "RIGHT_WALL",
    "SparseOperator",
    "all_patterns",
    "apply_e",
    "c_from_zeta",
    "connect",
    "cup_cap",
    "generator_matrix",
    "hamiltonian",
    "idempotents",
    "index_of",
    "insert_left",
    "insert_link",
    "insert_right",
    "new_pair",
    "read_word",
    "seed",
    "swap",
    "to_wall",
    "validate_pattern",
    "wall_cap",
    "word_of",
]


def validate_pattern(word: str) -> str:
    if any(ch not in "()" for ch in word):
        raise ValueError(f"link pattern may contain only parentheses: {word!r}")
    return word


def index_of(word: str) -> int:
    """Canonical basis index: '(' = 0, ')' = 1, site 1 most significant."""
    validate_pattern(word)
    idx = 0
    for ch in word:
        idx = (idx << 1) | (ch == ")")
    return idx


def word_of(index: int, length: int) -> str:
    if not 0 <= index < (1 << length):
        raise ValueError(f"index {index} out of range for {length} sites")
    return "".join(")" if (index >> (length - 1 - j)) & 1 else "(" for j in range(length))


def all_patterns(length: int) -> Iterator[str]:
    for idx in range(1 << length):
        yield word_of(idx, length)


# -- frontier states ----------------------------------------------------

LEFT_WALL = -1
RIGHT_WALL = -2


def new_pair(st: list[int], x: int, y: int) -> None:
    """Join slots x and y by a fresh strand."""
    st[x] = y
    st[y] = x


def swap(st: list[int], x: int, y: int) -> None:
    """Cross the strand ends at slots x and y: each moves to the other slot."""
    cx = st[x]
    cy = st[y]
    if cx == y:
        return  # the two ends of one strand
    st[x] = cy
    st[y] = cx
    if cy >= 0:
        st[cy] = x
    if cx >= 0:
        st[cx] = y


def connect(st: list[int], x: int, y: int) -> None:
    """Join the strand ends at x and y; both slots leave the frontier, and
    their entries are stale.  Two wall ends drop an arc with weight 1, and
    the two ends of one strand close a loop with weight 1: then the
    assignments only rewrite x and y."""
    cx = st[x]
    cy = st[y]
    if cx >= 0:
        st[cx] = cy
    if cy >= 0:
        st[cy] = cx


def to_wall(st: list[int], x: int, wall: int) -> None:
    """Tie the strand end at x into `wall`; slot x leaves the frontier,
    and its entry is stale."""
    if (far := st[x]) >= 0:
        st[far] = wall


def cup_cap(st: list[int], x: int, y: int) -> None:
    """e on slots x, y: join the strand ends there, then a fresh x-y strand."""
    connect(st, x, y)
    new_pair(st, x, y)


def wall_cap(st: list[int], x: int, wall: int) -> None:
    """e on slot x and `wall`: tie its strand end into the wall, then a
    fresh strand from the wall to x."""
    to_wall(st, x, wall)
    st[x] = wall


def seed(word: str) -> list[int]:
    """Frontier state of a word of length L in slots 0..L + 1: site k in
    slot k, and slots 0 and L + 1 joined by a spare strand, which the
    transfer sweep makes its auxiliary strand and `apply_e` leaves alone."""
    length = len(validate_pattern(word))
    st = [0] * (length + 2)
    new_pair(st, 0, length + 1)
    stack: list[int] = []
    for pos, ch in enumerate(word, start=1):
        if ch == "(":
            stack.append(pos)
        elif stack:
            new_pair(st, stack.pop(), pos)
        else:
            st[pos] = LEFT_WALL
    for pos in stack:
        st[pos] = RIGHT_WALL
    return st


def read_word(st: list[int], slots: Iterable[int]) -> str:
    """The word a state reads along `slots`, which hold every strand end:
    ')' for an end tied to the left wall or to an earlier slot."""
    return "".join(")" if st[x] == LEFT_WALL or 0 <= st[x] < x else "(" for x in slots)


def apply_e(i: int, word: str) -> str:
    """Image basis word of e_i acting on `word` (coefficient is always 1)."""
    length = len(validate_pattern(word))
    if length == 0 or not 0 <= i <= length:
        raise ValueError(f"generator index {i} out of range 0..{length} (needs L >= 1)")
    st = seed(word)
    if i == 0:
        wall_cap(st, 1, LEFT_WALL)
    elif i == length:
        wall_cap(st, length, RIGHT_WALL)
    else:
        cup_cap(st, i, i + 1)
    return read_word(st, range(1, length + 1))


class SparseOperator:
    """Column-sparse square linear operator: on the 2^L pattern basis,
    or, in `exactla.laurent_fit`, from the samples of a fit to its
    coefficients.

    It is held in integer form only: `num_cols[j]` maps each row of a
    nonzero entry of column j to its Z[zeta] numerators (n0, n1, n2, n3),
    all over the one positive denominator `den`, with no gcd taken.
    Products, sums and scalings run on those integers with `addmul`, and
    equality cross-multiplies by the denominators.  `.cols` reads the
    Scalar columns out, one gcd per entry, afresh on every read.
    """

    __slots__ = ("dim", "num_cols", "den")

    def __init__(self, dim: int, cols: Sequence[dict[int, Scalar]]):
        if len(cols) != dim:
            raise ValueError("need one column per basis state")
        nums, self.den = cleared_columns(cols)
        self.dim = dim
        self.num_cols = [{r: n for r, n in col.items() if any(n)} for col in nums]

    @classmethod
    def from_integers(cls, cols: list[dict[int, tuple]], den: int) -> SparseOperator:
        """The operator whose column j is cols[j], {row: Z[zeta]
        numerators} over den > 0, kept as given: no entry may be zero."""
        op = object.__new__(cls)
        op.dim = len(cols)
        op.num_cols = cols
        op.den = den
        return op

    @classmethod
    def identity(cls, dim: int) -> SparseOperator:
        return cls.from_column_map(dim, lambda j: j)

    @classmethod
    def from_column_map(cls, dim: int, image: Callable[[int], int]) -> SparseOperator:
        return cls.from_integers([{image(j): (1, 0, 0, 0)} for j in range(dim)], 1)

    @property
    def cols(self) -> list[dict[int, Scalar]]:
        d = self.den
        return [{r: Scalar.from_integers(n, d) for r, n in col.items()} for col in self.num_cols]

    def _times(self, cols: Iterable[dict[int, tuple]], den: int) -> tuple[list[dict], int]:
        """self applied to each sparse column {index: Z[zeta] numerators}
        over den: one `addmul` contraction per column entry, with no gcd,
        into columns over self.den * den."""
        left = self.num_cols
        out = []
        for col in cols:
            acc: dict[int, tuple[int, int, int, int]] = {}
            for k, b in col.items():
                addmul(acc, b, left[k].items())
            out.append(acc)
        return out, self.den * den

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        """self times the vector, through `_times`, read out as Scalars;
        exact, so it also certifies a fixed vector as T v == v."""
        if len(vec) != self.dim:
            raise ValueError("vector length mismatch")
        seeds = {j: x for j, x in enumerate(vec) if not x.is_zero()}
        (col,), d = self._times(*cleared_columns([seeds]))
        return [Scalar.from_integers(col[r], d) if r in col else ZERO for r in range(self.dim)]

    def compose(self, other: SparseOperator) -> SparseOperator:
        """Matrix product self @ other: `_times` of the columns of other,
        over the product of the two denominators."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SparseOperator.from_integers(
            *self._times(other.num_cols, other.den)
        )

    def __matmul__(self, other: SparseOperator) -> SparseOperator:
        return self.compose(other)

    def __add__(self, other: SparseOperator) -> SparseOperator:
        """self + other over the lcm of the two denominators."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        g = gcd(self.den, other.den)
        a, b = other.den // g, (self.den // g, 0, 0, 0)
        cols = []
        for x, y in zip(self.num_cols, other.num_cols):
            acc = dict(x) if a == 1 else {r: tuple(a * n for n in c) for r, c in x.items()}
            addmul(acc, b, y.items())
            cols.append(acc)
        return SparseOperator.from_integers(cols, self.den // g * other.den)

    def __sub__(self, other: SparseOperator) -> SparseOperator:
        return self + other.scale(-ONE)

    def scale(self, s: Scalar) -> SparseOperator:
        if s.is_zero():
            return SparseOperator.from_integers([{} for _ in range(self.dim)], 1)
        (b,), d = cleared([s])
        cols = []
        for col in self.num_cols:
            acc: dict[int, tuple[int, int, int, int]] = {}
            addmul(acc, b, col.items())
            cols.append(acc)
        return SparseOperator.from_integers(cols, self.den * d)

    def column_sums(self) -> list[Scalar]:
        """One Scalar per column: its numerators summed, then one gcd."""
        zero = (0, 0, 0, 0)
        return [
            Scalar.from_integers([sum(t) for t in zip(zero, *col.values())], self.den)
            for col in self.num_cols
        ]

    def to_rows(self) -> list[list[Scalar]]:
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][j] = v
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and same_columns(
            self.num_cols, self.den, other.num_cols, other.den
        )

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.num_cols)
        return f"SparseOperator(dim={self.dim}, nnz={nnz})"


@lru_cache(maxsize=None)
def _generator_image(i: int, length: int) -> tuple[int, ...]:
    """The basis index e_i sends each basis index of length sites to."""
    return tuple(index_of(apply_e(i, word_of(j, length))) for j in range(1 << length))


def generator_matrix(i: int, length: int) -> SparseOperator:
    """Matrix of e_i on the 2^length basis (one unit entry per column):
    a fresh operator on each call, from the image map kept per (i, L)."""
    return SparseOperator.from_column_map(1 << length, _generator_image(i, length).__getitem__)


def idempotents(length: int) -> tuple[SparseOperator, SparseOperator]:
    """The alternating products I1, I2 entering the double quotient.

    I1 multiplies the odd-index generators, I2 the even-index ones;
    which boundary generators join depends on the parity of L.  All
    factors inside each product commute, so the order is immaterial.
    """
    if length < 1:
        raise ValueError("idempotents need at least one site")
    odd = list(range(1, length, 2))
    even = list(range(0, length + 1, 2))
    if length % 2 == 1:
        odd.append(length)
    # For even L the even list already ends at L.
    dim = 1 << length
    i1 = SparseOperator.identity(dim)
    for i in odd:
        i1 = i1 @ generator_matrix(i, length)
    i2 = SparseOperator.identity(dim)
    for i in even:
        i2 = i2 @ generator_matrix(i, length)
    return i1, i2


def c_from_zeta(zeta: Scalar) -> Scalar:
    """Boundary coupling 3 / (1 + zeta^2 + 1/zeta^2) = -3 / k(1, zeta),
    as q + 1/q = -1.  So the pole of c_1 is the zero of the factor
    k(1, zeta_1) of the all-open anchor at z_i = 1: `check_hamiltonian`
    and `solve_homogeneous` both fail at zeta_1 = zeta12^2."""
    denom = ONE + zeta * zeta + (zeta * zeta).inv()
    if denom.is_zero():
        raise SingularParameterError("boundary coupling pole: 1 + zeta^2 + zeta^-2 = 0")
    return Scalar.from_rational(3) / denom


def hamiltonian(length: int, c1: Scalar, c2: Scalar) -> SparseOperator:
    """H = c1 (1 - e_0) + c2 (1 - e_L) + sum_j (1 - e_j)."""
    dim = 1 << length
    ident = SparseOperator.identity(dim)
    h = (ident - generator_matrix(0, length)).scale(c1)
    h = h + (ident - generator_matrix(length, length)).scale(c2)
    for j in range(1, length):
        h = h + (ident - generator_matrix(j, length))
    return h


def insert_link(i: int, word: str) -> str:
    """Insert a new arch at sites i, i+1, shifting later sites by two.

    The index refers to the enlarged pattern: valid positions are
    1 .. len(word)+1, and the result has '(' at site i, ')' at i+1.
    """
    validate_pattern(word)
    if not 1 <= i <= len(word) + 1:
        raise ValueError(f"insertion position {i} out of range 1..{len(word) + 1}")
    return word[: i - 1] + "()" + word[i - 1 :]


def insert_left(word: str) -> str:
    """Prepend a strand tied to the left boundary."""
    return ")" + validate_pattern(word)


def insert_right(word: str) -> str:
    """Append a strand tied to the right boundary."""
    return validate_pattern(word) + "("
