"""Exact linear algebra helpers over the cyclotomic field.

The linear algebra shared by the character and groundstate modules:

- one Gauss-Jordan pass over Q(zeta12), behind `det` and the reduced
  row echelon `kernel_basis`, which decides the dimension where no
  prime has the generic rank and is the oracle the lifting is tested
  against;
- one Gaussian elimination mod p on packed rows, each row one big int
  (Kronecker substitution), behind Dixon's p-adic lifting of the one
  ray of the kernel of a `SparseOperator`; its triangular solves and
  its exact residual are packed too.  Its residual updates and its
  anchored reading multiply with `exactfield.zmul`, the one Z[zeta]
  product rule, whose l1 bound sizes the packed slots, and its
  certificate A v == 0 contracts the operator's Z[zeta] integer columns
  with `exactfield.addmul`.  Given an anchor (an entry or the entries' sum,
  its value and a multiple of the anchored vector's denominator, which
  `groundstate.solve` predicts from the point), the lifting reads the
  anchored vector's numerators over that hint after each step, in
  about half the steps that Wang's rational reconstruction needs to
  find a denominator of its own; Wang's reconstruction stays as the
  fallback, scaled to the anchor, so a wrong hint costs steps and never
  changes the vector.  Only this module scales to an anchor;
- the Laurent fit `laurent_fit`, which builds one interpolation map per
  set of nodes as a `SparseOperator`, applies it to any number of value
  columns, and returns the interpolated groundstate components as
  `LaurentPoly` results.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import ConsistencyError, NonGenericPointError
from .exactfield import ONE, ZERO, Scalar, addmul, cleared, ring_degree, zmul
from .linkpat import SparseOperator

__all__ = [
    "PRIMES",
    "LaurentPoly",
    "anchor_entry",
    "det",
    "kernel_basis",
    "kernel_vector",
    "laurent_fit",
]


def _scalar_size(x: Scalar) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in x.coeffs)


class LaurentPoly:
    """Laurent polynomial in one variable over Q(zeta12), as a fitted
    result: coefficients by exponent, read and evaluated, never combined."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        self._c = {e: c for e, c in (coeffs or {}).items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        return min(self._c)

    @property
    def max_exp(self) -> int:
        return max(self._c)

    def eval_at(self, x: Scalar) -> Scalar:
        return self.eval_powers({e: x**e for e in self._c})

    def eval_powers(self, powers: dict[int, Scalar]) -> Scalar:
        """The value at a point x, given powers[e] = x**e for every
        exponent e of self, so that many fits share one point's powers."""
        return sum((v * powers[e] for e, v in self._c.items()), ZERO)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        parts = [f"({v!r})*t^{e}" for e, v in sorted(self._c.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def _gauss_jordan(rows: Sequence[Sequence[Scalar]], ncols: int):
    """Gauss-Jordan elimination of a Scalar matrix over Q(zeta12).

    Pivots are chosen smallest-first (by coefficient bit size) to tame
    intermediate growth, and the pass stops once every row has a pivot.
    Returns the reduced rows, the (row, column) pivots, and the product
    of the pivots, each taken before its row is scaled to 1 and negated
    at every row swap: the determinant of a square matrix of full rank.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    factor = ONE
    for col in range(ncols):
        rank = len(pivots)
        cands = [i for i in range(rank, nrows) if not m[i][col].is_zero()]
        if not cands:
            continue
        piv = min(cands, key=lambda i: _scalar_size(m[i][col]))
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            factor = -factor
        factor = factor * m[rank][col]
        inv = m[rank][col].inv()
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nrows):
            if i != rank and not m[i][col].is_zero():
                f = m[i][col]
                row_i, row_p = m[i], m[rank]
                m[i] = [a - f * b for a, b in zip(row_i, row_p)]
        pivots.append((rank, col))
        if rank + 1 == nrows:
            break
    return m, pivots, factor


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square Scalar matrix: the pivot product of one
    `_gauss_jordan` pass, or zero when some column has no pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, factor = _gauss_jordan(rows, n)
    return factor if len(pivots) == n else ZERO


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel of a Scalar matrix, read off the reduced
    rows of one `_gauss_jordan` pass.

    The returned vectors have a 1 in their free column and are otherwise
    supported on pivot columns.
    """
    m, pivots, _ = _gauss_jordan(rows, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, c in pivots:
            v[c] = -m[r][free]
        basis.append(v)
    return basis


# -- kernel vector by p-adic lifting ------------------------------------

# Primes p = 1 (mod 12), so that F_p holds the primitive 12th roots of
# unity and Z[zeta] / p splits into four copies of F_p.  A prime at
# which the operator has the wrong rank is skipped for the next one.
PRIMES = ((1 << 125) - 415, (1 << 125) - 1291, (1 << 125) - 1483)

# Bits by which the reconstruction bounds stay below Wang's sqrt(m / 2).
_MARGIN = 16

# The embeddings zeta -> r^e of Z[zeta] into F_p, for r a primitive 12th
# root of unity mod p.  The lifting runs in Z[zeta] with all d = 4, in
# Z[zeta^2] with the first d = 2 when no entry has an odd power of zeta
# (then zeta -> r and -r agree), or in Z with d = 1 when no entry has a
# zeta^2 part either; its ring basis is zeta^(4j/d), j < d.
_EXPS = (1, 5, 7, 11)


def _width(p: int, n: int, bound: int) -> int:
    """The slot width, in whole bytes, that holds 2 p bound + (n + 1) p^2:
    `_lift` shows that no slot of a packed lifting mod p over n rows
    grows past that when the slots start below 2 p bound or below p^2."""
    return -(-(2 * p * bound + (n + 1) * p * p).bit_length() // 8) * 8


def _packed(values: Iterable[int], width: int) -> int:
    """sum_i values[i] 2^(width i), for values in [0, 2^width)."""
    wb = width // 8
    return int.from_bytes(b"".join(v.to_bytes(wb, "little") for v in values), "little")


class _PackedLU:
    """Gaussian elimination mod p of packed rows, column by column,
    pivoting on the first live row whose current entry is nonzero mod p.

    Slot j of rows[i], width bits wide, holds entry (i, j) up to a
    multiple of p, nonnegative; the list is the work space.  A step
    reduces and unpacks its pivot row P once.  Every other live row
    gains (p - f) P, with f its multiplier, which makes its current slot
    0 mod p, and then every live row shifts right by width, so that the
    next column is slot 0.  A slot gains less than p^2 per step, for
    which `_width` leaves room; a pivot row that outgrows its slots
    raises ConsistencyError.

    `steps` holds (pivot row, column, inverse pivot).  `lower[k]` is
    column k of L, packed in natural row order: slot i holds row i's
    multiplier at step k.  `upper[k]` is column k of U, packed from the
    pivot of step k up: slot m holds the entry of step k - m's pivot row
    in step k's column.  The pivot rows and columns index a nonsingular
    block, which `solve` solves."""

    __slots__ = ("p", "width", "ncols", "steps", "lower", "upper")

    def __init__(self, rows: list[int], ncols: int, p: int, width: int):
        self.p, self.width, self.ncols = p, width, ncols
        wb, mask = width // 8, (1 << width) - 1
        live = list(range(len(rows)))
        self.steps, self.lower, pivots = [], [], []
        for col in range(ncols):
            piv = next((i for i in live if (rows[i] & mask) % p), None)
            if piv is None:
                for i in live:
                    rows[i] >>= width
                continue
            live.remove(piv)
            size = (ncols - col) * wb
            try:
                raw = rows[piv].to_bytes(size, "little")
            except OverflowError:  # only where width is below `_width`
                raise ConsistencyError(f"a packed slot outgrew its {width} bits") from None
            rows[piv] = 0
            prow = b"".join(
                (int.from_bytes(raw[k : k + wb], "little") % p).to_bytes(wb, "little")
                for k in range(0, size, wb)
            )
            inv = pow(int.from_bytes(prow[:wb], "little"), -1, p)
            pivot = int.from_bytes(prow, "little")
            multipliers = bytearray(len(rows) * wb)
            for i in live:
                row = rows[i]
                if f := (row & mask) * inv % p:
                    row += (p - f) * pivot
                    multipliers[i * wb : (i + 1) * wb] = f.to_bytes(wb, "little")
                rows[i] = row >> width
            self.steps.append((piv, col, inv))
            self.lower.append(int.from_bytes(multipliers, "little"))
            pivots.append(prow)
        self.upper = []
        for k, (_, col, _) in enumerate(self.steps):
            entries = (
                prow[(col - c) * wb : (col - c + 1) * wb]
                for prow, (_, c, _) in zip(pivots[k::-1], self.steps[k::-1])
            )
            self.upper.append(int.from_bytes(b"".join(entries), "little"))

    def solve(self, rhs: int) -> list[int]:
        """x with A x = rhs mod p on the pivot block, indexed by column and
        zero off the pivot columns.  Slot i of rhs, a nonnegative packed
        int, is row i's entry up to a multiple of p.

        Forward substitution reads slot `row_k` of rhs as y_k and adds
        (p - y_k) L_k; back substitution packs y from its last entry down,
        reads x_k off slot 0, adds (p - x_k) U_k and shifts right by
        width.  Each slot gains less than p^2 per step."""
        p, width = self.p, self.width
        mask = (1 << width) - 1
        ys = []
        for (row, _, _), col_l in zip(self.steps, self.lower):
            if y := (rhs >> width * row & mask) % p:
                rhs += (p - y) * col_l
            ys.append(y)
        y = _packed(reversed(ys), width)
        x = [0] * self.ncols
        for (_, col, inv), col_u in zip(reversed(self.steps), reversed(self.upper)):
            if xk := (y & mask) * inv % p:
                y += (p - xk) * col_u
                x[col] = xk
            y >>= width
        return x


@lru_cache(maxsize=None)
def _embeddings(p: int, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """The images r_k^t of zeta^t, t = 0..3, under the first d embeddings
    zeta -> r_k = r^e of `_EXPS`, and the inverse mod p of the Vandermonde
    matrix of those embeddings on the ring basis zeta^(4j/d)."""
    for g in range(2, p):
        r = pow(g, (p - 1) // 12, p)
        if pow(r, 4, p) != 1 and pow(r, 6, p) != 1:  # order exactly 12
            break
    powers = [[pow(r, e * t, p) for t in range(4)] for e in _EXPS[:d]]
    width = _width(p, d, 0)
    lu = _PackedLU([_packed(pw[:: 4 // d], width) for pw in powers], d, p, width)
    cols = [lu.solve(1 << width * k) for k in range(d)]
    return powers, [list(row) for row in zip(*cols)]


def _reconstruct(residues: Sequence[int], m: int) -> tuple[list[int], int] | None:
    """Integers a_q and one den > 0 with a_q / den = residues[q] (mod m),
    |a_q| and den below Wang's bound sqrt(m / 2) less _MARGIN bits, or
    None.  Each residue that den does not yet clear refines den by the
    denominator Wang's half-extended Euclid finds for it."""
    bound = isqrt(m >> 1) >> _MARGIN
    den = 1
    for u in residues:
        t = den * u % m
        if t <= bound or m - t <= bound:
            continue
        r0, r1, t0, t1 = m, t, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > bound or gcd(r1, t1) != 1:
            return None
    nums = [den * u % m for u in residues]
    nums = [a - m if a > m >> 1 else a for a in nums]
    if any(abs(a) > bound for a in nums):
        return None
    return nums, den


def _pack(cols: Sequence[dict], g: int, powers: list[list[int]], width: int, pad: int):
    """One pass over the operator's Z[zeta] integer columns cols {row:
    numerators}, which divides each entry's d ring parts by the content
    g and packs them width bits a slot, then embeds each column.

    Returns, for each column, its Z[zeta] numerators, each packed over
    the rows with signed slots below 2^(width - 1) in size (a part off
    the ring basis zeta^(4j/d), j < d, is 0); and for each of the d
    embeddings, whose images of zeta^t are powers[e], the n rows: entry
    (i, j) is slot i of column j's `_embedded` image, so it is
    nonnegative and right mod p."""
    n, d = len(cols), len(powers)
    step, wb = 4 // d, width // 8
    half = 1 << (width - 1)  # offsets a signed slot into [0, 2^width)
    blank = half.to_bytes(wb, "little") * n
    offset = int.from_bytes(blank, "little")
    rows = [[bytearray(n * wb) for _ in range(n)] for _ in powers]
    columns = []
    try:
        for j, col in enumerate(cols):
            parts = [bytearray(blank) for _ in range(d)]
            for i, c in col.items():
                a = c[::step] if g == 1 else [x // g for x in c[::step]]
                for x, buf in zip(a, parts):
                    if x:
                        buf[i * wb : (i + 1) * wb] = (x + half).to_bytes(wb, "little")
            column = _quad([int.from_bytes(buf, "little") - offset for buf in parts], d, 0)
            for pw, embedded in zip(powers, rows):
                raw = _embedded(pw, column, pad).to_bytes(n * wb, "little")
                for i in col:
                    embedded[i][j * wb : (j + 1) * wb] = raw[i * wb : (i + 1) * wb]
            columns.append(column)
    except OverflowError:  # only where width is below `_width`
        raise ConsistencyError(f"a packed slot outgrew its {width} bits") from None
    for embedded in rows:
        for i, buf in enumerate(embedded):
            embedded[i] = int.from_bytes(buf, "little")
    return columns, rows


def _embedded(image: Sequence[int], parts: Sequence[int], pad: int) -> int:
    """sum_t image[t] parts[t] + pad: the image under one embedding,
    image[t] that of zeta^t, of a packed vector with Z[zeta] parts, pad a
    multiple of p in every slot that keeps the slots nonnegative."""
    return sum(map(mul, image, parts)) + pad


def _quad(flat: Sequence[int], d: int, j: int) -> tuple[int, int, int, int]:
    """Entry j of a vector held as d ring coordinates per entry, on the
    basis zeta^(4t/d), as Z[zeta] numerators."""
    b = [0, 0, 0, 0]
    b[:: 4 // d] = flat[d * j : d * j + d]
    return tuple(b)


def anchor_entry(vec: Sequence[Scalar], index: int | None) -> Scalar:
    """The entry of vec that an anchor pins: vec[index], or the sum of
    every entry where index is None."""
    return sum(vec, ZERO) if index is None else vec[index]


def _anchored(acc: Sequence[int], d: int, index: int | None, scaled: Scalar, m: int):
    """The numerators over the hint of the vector v whose `anchor_entry`
    u is the anchor value, from v mod m and scaled = hint * value: the
    symmetric residues of c v_j mod m, c = scaled / u, on the ring basis
    zeta^(4t/d) as `_reconstruct` returns them; or None unless c lies in
    the ring and every residue is below m / 2^(2 _MARGIN + 1).

    1 / u mod m is its conjugate over its norm (`Scalar.inv`), read mod
    m, where p does not divide that norm.  The products c v_j are
    `zmul`'s, so one body serves every d.  The free column's v_j is
    1, so its residues are c's own and are tested first: a step that is
    still too short costs one inverse."""
    if index is None:
        x = _quad([sum(acc[t::d]) % m for t in range(d)], d, 0)
    else:
        x = _quad(acc, d, index)
    if not any(x):
        return None
    (c,), den = cleared([scaled * Scalar.from_integers(x, 1).inv()])
    ring = c[:: 4 // d]
    if _quad(ring, d, 0) != c:
        return None
    try:
        e = pow(den, -1, m)
    except ValueError:  # p divides the norm of v_index
        return None
    bound, half = m >> (2 * _MARGIN + 1), m >> 1
    factor = [a * e % m for a in ring]
    if any(bound < a < m - bound for a in factor):
        return None
    c = _quad(factor, d, 0)
    nums = []
    for j in range(len(acc) // d):
        for a in zmul(c, _quad(acc, d, j))[:: 4 // d]:
            a %= m
            if bound < a < m - bound:
                return None
            nums.append(a - m if a > half else a)
    return nums


def _certified(cols: Sequence[dict], nums: Sequence[int], d: int, den: int):
    """The vector nums / den, its d ring coordinates per entry, if it is
    nonzero and the `addmul` contraction of cols with its numerators
    vanishes; else None.  The numerators are contracted over their gcd
    with den, which a hint above the true denominator leaves behind."""
    if not any(nums):
        return None
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [a // g for a in nums], den // g
    full = [_quad(nums, d, j) for j in range(len(cols))]
    check: dict = {}
    for col, b in zip(cols, full):
        if any(b):
            addmul(check, b, col.items())
    return None if check else [Scalar.from_integers(b, den) for b in full]


def _lift(cols: Sequence[dict], g: int, d: int, p: int, anchor: tuple | None):
    """The kernel vector of the operator whose Z[zeta] integer columns cols
    {row: numerators} have content g, lifted in the first d embeddings
    mod p; None if p does not show the rank n - 1.  A reconstruction v is
    returned only once the `addmul` contraction of cols with v vanishes.
    With an anchor (index, value, hint), each step first reads v scaled
    so that its `anchor_entry` is value, over the denominator hint
    (`_anchored`).  Where that reading does not fit, Wang's
    reconstruction runs as it does without an anchor, and returns v with
    its free column at 1: a wrong hint costs steps, never a wrong
    vector, and the caller scales whichever vector comes back.

    Everything from the columns to that certificate is packed
    (Kronecker substitution): a row, a column of L or U, a right-hand
    side, or one Z[zeta] part of the residual over the rows is one int
    sum_i a_i 2^(W i), and a factorisation step, a substitution step or
    a residual update is a few big-int operations.  One W, from
    `_width`, serves the whole lifting.  Let N be the largest l1 norm of
    a row of cols / g, over its entries and their ring parts, and let
    B = 2 d N.
    - Residual: r starts as minus the free column, so |r_i|_1 <= N <= B.
      A step subtracts the `zmul` product of each digit x, d coordinates
      in [0, p), with its packed column, and by `zmul`'s l1 bound
      |(A x)_i|_1 <= 2 d (p - 1) N, so (r - A x) / p keeps |r_i|_1 <= B.
    - Embedding e sends a packed vector with parts R_t to sum_t rho_e^t
      R_t + p B (`_embedded`), with rho_e^t in [0, p), so its slots lie
      in [0, 2 p B).  The right-hand sides are such images, and so are
      the matrix rows, read off the embedded columns.  Elimination and
      substitution add less than p^2 per step to a slot, and back
      substitution starts below p, so every slot stays below
      2 p B + (n + 1) p^2 < 2^W.
    - The residual's slots are signed, and packing is linear: where
      every slot of r - A x is divisible by p, so is the packed int, and
      one divmod gives the packing of the slots' quotients.  A packed
      int that outgrows its slots raises ConsistencyError, so a W too
      narrow costs an error or this prime, never a wrong vector.
    The first embedding's dep row rides along in the residual unread:
    where the operator has a kernel, the block's solution satisfies that
    row too, so its slot stays divisible by p.  A nonzero remainder means
    that it has none, although its rank mod p is n - 1 (its determinant
    divisible by p in that embedding): p does not show the rank, and None
    hands the operator to the next prime.
    """
    powers, vinv = _embeddings(p, d)
    n = len(cols)
    l1, norms = [0] * n, [0] * n
    for col in cols:
        for i, c in col.items():
            s = sum(map(abs, c))
            l1[i] += s
            norms[i] += s * s
    bound = 2 * d * (max(l1, default=0) // g)
    width = _width(p, n, bound)
    pad = p * bound * _packed([1] * n, width)
    parts, rows = _pack(cols, g, powers, width, pad)
    first = _PackedLU(rows[0], n, p, width)
    if len(first.steps) != n - 1:
        return None
    (dep,) = set(range(n)).difference(row for row, _, _ in first.steps)
    (free,) = set(range(n)).difference(col for _, col, _ in first.steps)
    # Hadamard: every conjugate of det A and of its Cramer numerators is
    # at most H = prod_i |row i|, with 2^hadamard >= H^2.  The solution's
    # coefficients are (numerator) / N(det A), both below 2 H^d, and
    # reconstruction needs m > 2 (2^_MARGIN 2 H^d)^2.
    hadamard = sum((x // (g * g)).bit_length() for i, x in enumerate(norms) if i != dep)
    budget = -(-(d * hadamard + 2 * _MARGIN + 3) // (p.bit_length() - 1)) + 1
    # Solve A x = -(column free) on the other rows and columns, v_free = 1:
    # the first embedding's dep row and free column leave the one block
    # that every other embedding factors too.
    keep = ~(((1 << width) - 1) << width * free)
    factors = [first]
    for embedded in rows[1:]:
        for i, row in enumerate(embedded):
            embedded[i] = 0 if i == dep else row & keep
        lu = _PackedLU(embedded, n, p, width)
        if len(lu.steps) != n - 1:
            return None
        factors.append(lu)
    del rows
    if anchor is not None:
        index, value, hint = anchor
        scaled = value * Scalar.from_integers((hint, 0, 0, 0), 1)
    res = tuple(-c for c in parts[free])
    # v mod p^k on the ring basis, d coordinates per entry; no digit
    # touches the free column, which stays 1.
    acc = [0] * (d * n)
    acc[d * free] = 1
    pk = 1
    for _ in range(budget):
        xs = [lu.solve(_embedded(pw, res, pad)) for lu, pw in zip(factors, powers)]
        for j, y in enumerate(zip(*xs)):
            if any(y):
                digit = [sum(map(mul, row, y)) % p for row in vinv]
                res = tuple(map(sub, res, zmul(_quad(digit, d, 0), parts[j])))
                for t, x in enumerate(digit, d * j):
                    acc[t] += x * pk
        res, rems = zip(*(divmod(r, p) for r in res))
        if any(rems):
            return None
        pk *= p
        if anchor is not None and (nums := _anchored(acc, d, index, scaled, pk)):
            if vec := _certified(cols, nums, d, hint):
                return vec
        found = _reconstruct(acc, pk)
        if found is None:
            continue
        nums, den = found
        if vec := _certified(cols, nums, d, den):
            return vec
    raise ConsistencyError(
        f"p-adic lifting found no certified kernel vector within {budget} steps"
    )


def kernel_vector(
    op: SparseOperator, anchor: tuple[int | None, Scalar, int] | None = None
) -> list[Scalar]:
    """The one ray of the kernel of the square operator op, scaled so
    that its last nonzero entry is 1, or, with an anchor (index, value,
    hint), so that its `anchor_entry` is value; an anchored entry that is
    zero raises ConsistencyError.  hint is a multiple of the anchored
    vector's common denominator as the caller predicts it
    (`groundstate.solve` reads one off the point), or any positive
    integer: it picks how the lifting reads the vector, never which
    vector comes out, for the vector of Wang's reconstruction is scaled
    to the anchor too.  The lifting reads op's Z[zeta] integer columns
    `num_cols` and not its denominator, which does not change the kernel,
    and divides out their integer content g, with which its integers
    would only grow, as it packs them (`_pack`).

    Dixon's method: the rank profile is found mod a prime p of PRIMES,
    one pivot block is factored in each embedding of Z[zeta] into F_p,
    and the solution is lifted p-adically with exact residual updates
    (r - A x) / p, all on packed big ints (`_lift`).  After each step
    the anchored vector's numerators over the hint are read off first,
    which a right hint allows after about half the steps that Wang's
    rational reconstruction needs to find a denominator of its own; then
    Wang's reconstruction over one common denominator.  Either is
    returned only once it satisfies A v == 0, contracted with the same
    columns in Z[zeta] integers by `addmul`.  A wrong reconstruction
    costs one more lifting step, never a wrong vector.  With the rank
    n - 1 mod p that proves v spans the kernel.  A prime that does not
    show the rank n - 1 is skipped: one with any other rank, or one
    whose residual stops being divisible by p, which an operator with
    no kernel shows where its rank mod p is n - 1.  When every prime is
    skipped, the exact `kernel_basis` of `op.to_rows()` decides, and a
    kernel that is not a line raises NonGenericPointError.  The last
    nonzero entry is the free column of `kernel_basis`'s RREF, so both
    give the same vector.
    """
    cols = op.num_cols
    g = gcd(*(a for col in cols for c in col.values() for a in c)) or 1
    d = ring_degree(c for col in cols for c in col.values())
    for p in PRIMES:
        vec = _lift(cols, g, d, p, anchor)
        if vec is not None:
            break
    else:
        basis = kernel_basis(op.to_rows(), op.dim)
        if len(basis) != 1:
            raise NonGenericPointError(f"kernel has dimension {len(basis)}, expected 1")
        vec = basis[0]
    if anchor is None:
        scale = next(x for x in reversed(vec) if x).inv()
    elif entry := anchor_entry(vec, anchor[0]):
        scale = anchor[1] / entry
    else:
        pinned = "the sum of its entries" if anchor[0] is None else f"its entry {anchor[0]}"
        raise ConsistencyError(f"the kernel vector cannot be anchored: {pinned} is zero")
    return vec if scale == ONE else [x * scale for x in vec]


def laurent_fit(
    xs: Sequence[Scalar], columns: Sequence[Sequence[Scalar]], min_exp: int, max_exp: int
) -> list[LaurentPoly]:
    """Fit one Laurent polynomial with support in [min_exp, max_exp] to
    each column of values at the nodes xs.

    Needs exactly n = max_exp - min_exp + 1 distinct nonzero nodes and n
    values per column; the caller is responsible for holdout
    verification.  The n by n map from values to coefficients, the
    inverse Vandermonde matrix of xs times diag(x^(-min_exp)), is built
    once in Scalars: its column i holds the coefficients of the Lagrange
    polynomial prod_{k != i} (t - x_k) / (x_i - x_k), read off the
    quotient of prod_k (t - x_k) by t - x_i.  It is held as one
    `SparseOperator` and applied to each column of values.
    """
    n = max_exp - min_exp + 1
    if n < 1 or len(xs) != n or any(len(ys) != n for ys in columns):
        raise ValueError(f"need exactly {n} samples for this exponent window")
    master = [ONE]  # prod_k (t - x_k), master[e] the coefficient of t^e
    for x in xs:
        master = [a - x * b for a, b in zip([ZERO] + master, master + [ZERO])]
    cols = []
    for i, x in enumerate(xs):
        quotient = [master[n]]  # by t - x, from the top coefficient down
        for a in master[n - 1 : 0 : -1]:
            quotient.append(a + x * quotient[-1])
        denom = ONE
        for k, other in enumerate(xs):
            if k != i:
                denom = denom * (x - other)
        scale = x ** (-min_exp) / denom
        cols.append({e: c * scale for e, c in enumerate(reversed(quotient))})
    fit = SparseOperator(n, cols)
    return [LaurentPoly(dict(enumerate(fit.apply(ys), min_exp))) for ys in columns]
