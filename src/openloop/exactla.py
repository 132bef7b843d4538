"""Exact linear algebra helpers over the cyclotomic field.

The linear algebra shared by the character and groundstate modules:

- one Gauss-Jordan pass over Q(zeta12), behind `det` and the reduced
  row echelon `kernel_basis`, the oracle the lifting is tested against;
- one Gaussian elimination mod p on packed rows, each row one big int
  (Kronecker substitution), behind Dixon's p-adic lifting of the kernel
  of a `SparseOperator`, one vector per free column mod p, which gives
  its dimension exactly and its one ray where that is 1; its triangular
  solves and its exact residual are packed too.  Its ring degree d
  counts the embeddings into F_p; every other value of the lifting is a
  Z[zeta] 4-tuple.  Its residual updates and its anchored reading
  multiply with `exactfield.zmul`, the one Z[zeta] product rule, whose
  l1 bound sizes the packed slots, and its certificate A v == 0
  contracts the operator's Z[zeta] integer columns with
  `exactfield.addmul`.  One reader, `_reconstruct`, reads every residue
  vector whose residual is not yet exactly zero: Wang's rational
  reconstruction under a denominator bound.
  Given an anchor (an entry or the entries' sum, its value and a
  multiple of the anchored vector's denominator, which
  `groundstate.solve` predicts from the point), the lifting reads
  nothing before the anchored entry's own numerators fit, in about half
  the steps the balanced bounds need, and then reads the anchored
  vector's numerators over that hint at the denominator bound 1; the
  balanced reading stays as the fallback, scaled to the anchor, so a
  wrong hint costs steps and never changes the vector.  Only this
  module scales to an anchor;
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


def _reconstruct(
    residues: Sequence[int], m: int, den_bound: int | None = None
) -> tuple[list[int], int] | None:
    """Integers a_q and one den > 0 with a_q / den = residues[q] (mod m),
    or None: the lifting's one reader.  den is at most den_bound and
    every |a_q| at most m / 2^(2 _MARGIN + 1) over den_bound, so
    den_bound = 1 reads the symmetric residues themselves, as the
    anchored reading over its hint does.  Without a den_bound both
    bounds are Wang's balanced one, sqrt(m / 2) less _MARGIN bits.  Each
    residue that den does not yet clear refines den by the denominator,
    at least 2, that Wang's half-extended Euclid finds for it, so where
    2 den passes den_bound the residues are refused first."""
    if den_bound is None:
        bound = den_bound = isqrt(m >> 1) >> _MARGIN
    else:
        bound = (m >> 2 * _MARGIN + 1) // den_bound
    den = 1
    for u in residues:
        t = den * u % m
        if t <= bound or m - t <= bound:
            continue
        if 2 * den > den_bound:
            return None
        r0, r1, t0, t1 = m, t, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        den *= abs(t1)
        if den > den_bound or gcd(r1, t1) != 1:
            return None
    nums = [den * u % m for u in residues]
    nums = [a - m if a > m >> 1 else a for a in nums]
    if any(abs(a) > bound for a in nums):
        return None
    return nums, den


def _pack(cols: Sequence[dict], g: int, powers: list[list[int]], width: int, pad: int):
    """One pass over the operator's Z[zeta] integer columns cols {row:
    numerators}, which divides each entry's parts on the ring basis
    zeta^(4j/d), j < d, by the content g and packs them width bits a
    slot, then embeds each column in the d = len(powers) embeddings.

    Returns, for each column, its Z[zeta] 4-tuple of parts, each packed
    over the rows with signed slots below 2^(width - 1) in size (a part
    off the ring basis is 0); and for each embedding, whose images of
    zeta^t are powers[e], the n rows: entry (i, j) is slot i of column
    j's `_embedded` image, so it is nonnegative and right mod p."""
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
            column = [0, 0, 0, 0]
            column[::step] = [int.from_bytes(buf, "little") - offset for buf in parts]
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


def anchor_entry(vec: Sequence[Scalar], index: int | None) -> Scalar:
    """The entry of vec that an anchor pins: vec[index], or the sum of
    every entry where index is None."""
    return sum(vec, ZERO) if index is None else vec[index]


def _anchored(acc: Sequence[int], index: int | None, scaled: Scalar, m: int):
    """The residues mod m of c v, four per entry, for the vector v whose
    `anchor_entry` u is the anchor value, from v mod m, a Z[zeta] 4-tuple
    per entry, and scaled = hint * value: c = scaled / u, so that c v
    holds the anchored vector's numerators over the hint once m is large
    enough.  None where u is 0 mod m or p divides its norm.

    1 / u mod m is its conjugate over its norm (`Scalar.inv`), read mod
    m.  The products c v_j are `zmul`'s; a c off the operator's ring
    gives a kernel vector too."""
    if index is None:
        x = [sum(acc[t::4]) % m for t in range(4)]
    else:
        x = acc[4 * index : 4 * index + 4]
    if not any(x):
        return None
    (c,), den = cleared([scaled * Scalar.from_integers(x, 1).inv()])
    try:
        e = pow(den, -1, m)
    except ValueError:  # p divides the norm of v_index
        return None
    c = [a * e % m for a in c]
    return [a for j in range(0, len(acc), 4) for a in zmul(c, acc[j : j + 4])]


def _certified(cols: Sequence[dict], nums: Sequence[int], den: int):
    """The vector nums / den as (four Z[zeta] numerators per entry, den),
    if it is nonzero and the `addmul` contraction of cols with its
    numerators vanishes; else None.  The numerators are contracted over
    their gcd with den, which a hint above the true denominator leaves
    behind."""
    if not any(nums):
        return None
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [a // g for a in nums], den // g
    full = [nums[t : t + 4] for t in range(0, len(nums), 4)]
    check: dict = {}
    for col, b in zip(cols, full):
        if any(b):
            addmul(check, b, col.items())
    return None if check else (full, den)


def _lift(cols: Sequence[dict], g: int, d: int, p: int, anchor: tuple | None):
    """A basis of the kernel of the operator whose Z[zeta] integer columns
    cols {row: numerators} have content g, lifted in the first d
    embeddings mod p, each vector as (Z[zeta] numerators per entry, den);
    None if p does not decide the kernel's dimension.  d counts
    embeddings only: every other value, v mod p^k included, is a Z[zeta]
    4-tuple, with zero parts off the ring basis zeta^(4j/d), j < d.

    The first embedding's rank profile at p names its dep rows and its
    k = n - rank free columns.  Every other embedding factors the same
    block, with those rows and columns masked, or p is skipped.  One
    vector is lifted per free column f, on the same factorisations: it
    solves A x = -(column f) on the block, with v_f = 1 and the other
    free columns 0, and is kept only once the `addmul` contraction of
    cols with it vanishes.  Rank mod p bounds the rank from below (a
    nonzero minor mod p lifts to a nonzero minor), so the kernel has
    dimension at most k; k certified vectors, each nonzero on its own
    free column only, are independent, so it has dimension exactly k,
    and k = 0 needs no lifting.  The dep rows ride along in the residual
    unread: where column f has a kernel vector, the block's solution
    satisfies those rows too, so their slots stay divisible by p, and
    the budget of steps suffices to read it.  A nonzero remainder, or a
    budget spent with no certified vector, means that it has none,
    although the rank mod p says so: p shows a rank too low, and None
    hands the operator to the next prime, so a prime whose rank is too
    low costs that prime, never a wrong dimension.

    Each step keeps p^k r_k = -A acc, where acc = e_f + sum_i x_i p^i is
    v mod p^k (the digits x_i) and r_k the residual, so a residual that
    is exactly zero has shown A acc = 0: acc over 1 goes to the
    certificate at once, with no reading.

    Otherwise each step hands v mod p^k to the one reader,
    `_reconstruct`, at most twice.  With an anchor (index, value, hint),
    it first reads v scaled so that its `anchor_entry` is value, over
    the denominator hint (`_anchored`), at the denominator bound 1.  A
    certified anchored entry's numerators are those of value * hint, so
    the gate, decided once, lifts an anchor as none where value * hint
    is off Z[zeta] or past that bound (n bounds for a sum of n entries)
    at the budget's last step, and otherwise reads nothing before they
    fit.  Where the anchored reading is not certified, the reader runs
    at Wang's balanced bounds, as at every step without an anchor, and
    reads v with its free column at 1, which the caller scales.

    Everything from the columns to that certificate is packed
    (Kronecker substitution): a row, a column of L or U, a right-hand
    side, or one Z[zeta] part of the residual over the rows is one int
    sum_i a_i 2^(W i), and a factorisation step, a substitution step or
    a residual update is a few big-int operations.  One W, from
    `_width`, serves the whole lifting.  Let N be the largest l1 norm of
    a row of cols / g, over its entries and their ring parts, and let
    B = 2 d N.
    - Residual: r starts as minus the free column, so |r_i|_1 <= N <= B.
      A step subtracts the `zmul` product of each digit x, d parts in
      [0, p), with its packed column, and by `zmul`'s l1 bound
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
    deps = set(range(n)).difference(row for row, _, _ in first.steps)
    frees = sorted(set(range(n)).difference(col for _, col, _ in first.steps))
    if not frees:
        return []
    # Hadamard: every conjugate of the block's determinant and of its
    # Cramer numerators is at most H = prod_i |row i| over the block's
    # rows, with 2^hadamard >= H^2.  A kernel vector's coefficients are
    # (numerator) / N(det), both below 2 H^d, and reconstruction needs
    # m > 2 (2^_MARGIN 2 H^d)^2.
    hadamard = sum((x // (g * g)).bit_length() for i, x in enumerate(norms) if i not in deps)
    budget = -(-(d * hadamard + 2 * _MARGIN + 3) // (p.bit_length() - 1)) + 1
    # The first embedding's dep rows and free columns leave the one block
    # that every other embedding factors too.
    keep = ~sum(((1 << width) - 1) << width * f for f in frees)
    factors = [first]
    for embedded in rows[1:]:
        for i, row in enumerate(embedded):
            embedded[i] = 0 if i in deps else row & keep
        lu = _PackedLU(embedded, n, p, width)
        if len(lu.steps) != len(first.steps):
            return None
        factors.append(lu)
    del rows
    if anchor is not None:
        index, value, hint = anchor
        scaled = value * Scalar.from_integers((hint, 0, 0, 0), 1)
        (own,), over = cleared([scaled])
        top, reach = max(map(abs, own)), n if index is None else 1
        if over > 1 or top > reach * (p**budget >> 2 * _MARGIN + 1):
            anchor = None  # no anchored reading can be certified
    basis = []
    for free in frees:
        res = tuple(-c for c in parts[free])
        # v mod p^k, a Z[zeta] 4-tuple per entry; no digit touches a free
        # column, so this one stays 1 and the others 0.
        acc = [0] * (4 * n)
        acc[4 * free] = 1
        digit = [0, 0, 0, 0]
        pk = 1
        for _ in range(budget):
            xs = [lu.solve(_embedded(pw, res, pad)) for lu, pw in zip(factors, powers)]
            for j, y in enumerate(zip(*xs)):
                if any(y):
                    digit[:: 4 // d] = [sum(map(mul, row, y)) % p for row in vinv]
                    res = tuple(map(sub, res, zmul(digit, parts[j])))
                    for t, x in enumerate(digit, 4 * j):
                        acc[t] += x * pk
            res, rems = zip(*(divmod(r, p) for r in res))
            if any(rems):
                return None
            pk *= p
            if not any(res) and (vec := _certified(cols, acc, 1)):
                break  # p^k r = -A acc = 0: acc itself is a kernel vector
            if anchor is not None:
                if top > reach * (pk >> 2 * _MARGIN + 1):
                    continue
                if (fitted := _anchored(acc, index, scaled, pk)) is not None:
                    found = _reconstruct(fitted, pk, den_bound=1)
                    if found and (vec := _certified(cols, found[0], hint)):
                        break
            found = _reconstruct(acc, pk)  # Wang's, over a denominator of its own
            if found and (vec := _certified(cols, *found)):
                break
        else:
            return None  # by the budget above, this column has no kernel vector
        basis.append(vec)
    return basis


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
    and one solution per free column is lifted p-adically with exact
    residual updates (r - A x) / p, all on packed big ints (`_lift`).
    One reader, `_reconstruct`, reads v mod p^k at most twice a step:
    the anchored vector's numerators over the hint, at the denominator
    bound 1, and then Wang's balanced reading over one common
    denominator, from the step that `_lift`'s gate picks: for a right
    hint, about half the steps that the balanced bounds need.  Either
    reading is kept only once it satisfies A v == 0, contracted with the
    same columns in Z[zeta] integers by `addmul`, so a wrong
    reconstruction costs one more lifting step, never a wrong vector.
    The rank mod p bounds the kernel's dimension from above and the
    certified vectors bound it from below (`_lift`), so the first prime
    that decides gives it exactly: dimension 1 returns its one vector,
    which is then read out as Scalars, and any other raises
    NonGenericPointError.  A prime is skipped where another embedding
    shows another rank, a residual stops being divisible by p, or a
    vector is not certified within the lifting's budget; where no prime
    of PRIMES decides, ConsistencyError is raised.  The last
    nonzero entry is the free column, as in `kernel_basis`'s RREF, so
    both give the same vector.
    """
    cols = op.num_cols
    g = gcd(*(a for col in cols for c in col.values() for a in c)) or 1
    d = ring_degree(c for col in cols for c in col.values())
    for p in PRIMES:
        basis = _lift(cols, g, d, p, anchor)
        if basis is not None:
            break
    else:
        raise ConsistencyError("no prime of PRIMES decides the kernel's dimension")
    if len(basis) != 1:
        raise NonGenericPointError(f"kernel has dimension {len(basis)}, expected 1")
    ((full, den),) = basis
    vec = [Scalar.from_integers(b, den) for b in full]
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
