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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import SingularParameterError
from .exactfield import ONE, ZERO, Scalar, bracket

__all__ = [
    "Matching",
    "SparseOperator",
    "all_patterns",
    "apply_e",
    "c_from_zeta",
    "closure",
    "generator_matrix",
    "hamiltonian",
    "idempotents",
    "index_of",
    "insert_left",
    "insert_link",
    "insert_right",
    "validate_pattern",
    "word_of",
    "word_from_matching",
]

LEFT = "left"
RIGHT = "right"


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


@dataclass(frozen=True)
class Matching:
    """Connectivity of a word: bulk arches plus boundary strands."""

    length: int
    pairs: frozenset[tuple[int, int]]
    left: frozenset[int]
    right: frozenset[int]

    def partner(self, site: int):
        """The site paired with `site`, or LEFT / RIGHT for boundary strands."""
        for a, b in self.pairs:
            if a == site:
                return b
            if b == site:
                return a
        if site in self.left:
            return LEFT
        if site in self.right:
            return RIGHT
        raise ValueError(f"site {site} not in 1..{self.length}")


def closure(word: str) -> Matching:
    """Match parentheses; leftovers become boundary strands."""
    validate_pattern(word)
    stack: list[int] = []
    pairs = set()
    left = set()
    for pos, ch in enumerate(word, start=1):
        if ch == "(":
            stack.append(pos)
        elif stack:
            pairs.add((stack.pop(), pos))
        else:
            left.add(pos)
    return Matching(len(word), frozenset(pairs), frozenset(left), frozenset(stack))


def word_from_matching(m: Matching) -> str:
    symbols = [""] * m.length
    for a, b in m.pairs:
        symbols[a - 1] = "("
        symbols[b - 1] = ")"
    for a in m.left:
        symbols[a - 1] = ")"
    for a in m.right:
        symbols[a - 1] = "("
    if "" in symbols:
        raise ValueError("matching does not cover every site")
    return "".join(symbols)


def apply_e(i: int, word: str) -> str:
    """Image basis word of e_i acting on `word` (coefficient is always 1)."""
    length = len(validate_pattern(word))
    if not 0 <= i <= length:
        raise ValueError(f"generator index {i} out of range 0..{length}")
    if i == 0:
        if word[0] == ")":
            return word
        m = closure(word)
        partner = m.partner(1)
        chars = list(word)
        chars[0] = ")"
        if partner != RIGHT:
            chars[partner - 1] = ")"
        return "".join(chars)
    if i == length:
        if word[-1] == "(":
            return word
        m = closure(word)
        partner = m.partner(length)
        chars = list(word)
        chars[-1] = "("
        if partner != LEFT:
            chars[partner - 1] = "("
        return "".join(chars)
    m = closure(word)
    pk = m.partner(i)
    pl = m.partner(i + 1)
    if pk == i + 1:
        return word  # closed loop of weight 1, pattern unchanged
    pairs = {p for p in m.pairs if i not in p and i + 1 not in p}
    left = set(m.left) - {i, i + 1}
    right = set(m.right) - {i, i + 1}
    pairs.add((i, i + 1))
    if isinstance(pk, int) and isinstance(pl, int):
        pairs.add((min(pk, pl), max(pk, pl)))
    elif isinstance(pk, int):
        (left if pl == LEFT else right).add(pk)
    elif isinstance(pl, int):
        (left if pk == LEFT else right).add(pl)
    # both on a boundary: the rejoining arc is dropped with weight 1
    return word_from_matching(Matching(length, frozenset(pairs), frozenset(left), frozenset(right)))


class SparseOperator:
    """Column-sparse linear operator on the 2^L pattern basis."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: Sequence[dict[int, Scalar]]):
        if len(cols) != dim:
            raise ValueError("need one column per basis state")
        self.dim = dim
        self.cols = [
            {r: v for r, v in col.items() if not v.is_zero()} for col in cols
        ]

    @classmethod
    def identity(cls, dim: int) -> SparseOperator:
        return cls(dim, [{j: ONE} for j in range(dim)])

    @classmethod
    def zero(cls, dim: int) -> SparseOperator:
        return cls(dim, [{} for _ in range(dim)])

    @classmethod
    def from_column_map(cls, dim: int, image: Callable[[int], int]) -> SparseOperator:
        return cls(dim, [{image(j): ONE} for j in range(dim)])

    def apply(self, vec: Sequence[Scalar]) -> list[Scalar]:
        if len(vec) != self.dim:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.dim
        for j, col in enumerate(self.cols):
            x = vec[j]
            if x.is_zero():
                continue
            for r, v in col.items():
                out[r] = out[r] + v * x
        return out

    def compose(self, other: SparseOperator) -> SparseOperator:
        """Matrix product self @ other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols: list[dict[int, Scalar]] = []
        for col in other.cols:
            acc: dict[int, Scalar] = {}
            for k, w in col.items():
                for r, v in self.cols[k].items():
                    acc[r] = acc.get(r, ZERO) + v * w
            cols.append(acc)
        return SparseOperator(self.dim, cols)

    def __matmul__(self, other: SparseOperator) -> SparseOperator:
        return self.compose(other)

    def __add__(self, other: SparseOperator) -> SparseOperator:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = []
        for a, b in zip(self.cols, other.cols):
            acc = dict(a)
            for r, v in b.items():
                acc[r] = acc.get(r, ZERO) + v
            cols.append(acc)
        return SparseOperator(self.dim, cols)

    def __sub__(self, other: SparseOperator) -> SparseOperator:
        return self + other.scale(-ONE)

    def scale(self, s: Scalar) -> SparseOperator:
        return SparseOperator(self.dim, [{r: v * s for r, v in col.items()} for col in self.cols])

    def entry(self, row: int, col: int) -> Scalar:
        return self.cols[col].get(row, ZERO)

    def column_sums(self) -> list[Scalar]:
        return [sum(col.values(), ZERO) for col in self.cols]

    def to_rows(self) -> list[list[Scalar]]:
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for j, col in enumerate(self.cols):
            for r, v in col.items():
                rows[r][j] = v
        return rows

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.cols)
        return f"SparseOperator(dim={self.dim}, nnz={nnz})"


def generator_matrix(i: int, length: int) -> SparseOperator:
    """Matrix of e_i on the 2^length basis (one unit entry per column)."""
    dim = 1 << length
    return SparseOperator.from_column_map(
        dim, lambda j: index_of(apply_e(i, word_of(j, length)))
    )


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
    """Boundary coupling 3 / (1 + zeta^2 + 1/zeta^2)."""
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
