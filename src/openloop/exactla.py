"""Exact linear algebra helpers over the cyclotomic field.

The linear algebra shared by the character and groundstate modules:

- one Gauss-Jordan pass over Q(zeta12), behind `det` and the reduced
  row echelon `kernel_basis`, which decides the dimension where no
  prime has the generic rank and is the oracle the lifting is tested
  against;
- one Gaussian elimination mod p, behind Dixon's p-adic lifting of the
  one ray of the kernel of a `SparseOperator`, whose exact residual and
  certificate A v == 0 contract its Z[zeta] integer columns with
  `exactfield.addmul`;
- the Laurent fit `laurent_fit`, which builds one interpolation map per
  set of nodes as a `SparseOperator`, applies it to any number of value
  columns, and returns the interpolated groundstate components as
  `LaurentPoly` results.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .errors import ConsistencyError, NonGenericPointError
from .exactfield import ONE, ZERO, Scalar, addmul, ring_degree
from .linkpat import SparseOperator

__all__ = [
    "PRIMES",
    "LaurentPoly",
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


def _eliminate(rows: list[list[int]], p: int):
    """Gaussian elimination mod p, column by column, pivoting on the first
    remaining row with a nonzero entry.

    Returns the steps as (pivot row, column, inverse pivot), the
    multipliers each row was reduced by, one per earlier step, and the
    reduced rows.  The pivot rows and columns index a nonsingular block,
    which `_solve` solves with this factorisation."""
    work = [[a % p for a in row] for row in rows]
    live = list(range(len(work)))
    lower: list[list[int]] = [[] for _ in work]
    steps = []
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in live if work[i][col]), None)
        if piv is None:
            continue
        live.remove(piv)
        inv = pow(work[piv][col], -1, p)
        prow = work[piv][col:]
        for i in live:
            row = work[i]
            f = row[col] * inv % p
            lower[i].append(f)
            if f:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], prow)]
        steps.append((piv, col, inv))
    return steps, lower, work


def _solve(factor, rhs: Sequence[int], p: int) -> list[int]:
    """x with A x = rhs mod p on the pivot block of an `_eliminate`
    factorisation, indexed by column and zero off the pivot columns."""
    steps, lower, upper = factor
    y: list[int] = []
    for row, _, _ in steps:
        y.append((rhs[row] - sum(map(mul, lower[row], y))) % p)
    x = [0] * len(upper[0])
    for k in range(len(steps) - 1, -1, -1):
        row, col, inv = steps[k]
        x[col] = (y[k] - sum(map(mul, upper[row], x))) * inv % p
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
    factor = _eliminate([pw[:: 4 // d] for pw in powers], p)
    cols = [_solve(factor, [int(i == k) for i in range(d)], p) for k in range(d)]
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


def _lift(cols: Sequence[Sequence[tuple]], d: int, p: int):
    """The kernel vector, with its free column at 1, of the operator whose
    sparse columns of (row, Z[zeta] numerators) pairs are cols; None if
    its rank mod p is not n - 1.  A reconstruction v is returned only
    once the `addmul` contraction of cols with v vanishes."""
    powers, vinv = _embeddings(p, d)
    n = len(cols)

    def embedded(pw: list[int], cols: Sequence[Sequence[tuple]]) -> list[list[int]]:
        """Dense rows of the columns' image under zeta^t -> pw[t]."""
        rows = [[0] * n for _ in range(n)]
        for j, col in enumerate(cols):
            for i, c in col:
                rows[i][j] = sum(map(mul, c, pw))
        return rows

    factor = _eliminate(embedded(powers[0], cols), p)
    if len(factor[0]) != n - 1:
        return None
    (dep,) = set(range(n)).difference(row for row, _, _ in factor[0])
    (free,) = set(range(n)).difference(col for _, col, _ in factor[0])
    # Hadamard: every conjugate of det A and of its Cramer numerators is
    # at most H = prod_i |row i|, with 2^hadamard >= H^2.  The solution's
    # coefficients are (numerator) / N(det A), both below 2 H^d, and
    # reconstruction needs m > 2 (2^_MARGIN 2 H^d)^2.
    norms = [0] * n
    for col in cols:
        for i, c in col:
            norms[i] += sum(map(abs, c)) ** 2
    hadamard = sum(x.bit_length() for i, x in enumerate(norms) if i != dep)
    budget = -(-(d * hadamard + 2 * _MARGIN + 3) // (p.bit_length() - 1)) + 1
    # Solve A x = -(column free) on the other rows and columns, v_free = 1:
    # the first embedding's dep row and free column leave the one block
    # that every other embedding factors too.
    block = [[(i, c) for i, c in col if i != dep] for col in cols]
    res: dict = {}
    addmul(res, (-1, 0, 0, 0), block[free])
    block[free] = []
    factors = [factor]
    for pw in powers[1:]:
        factor = _eliminate(embedded(pw, block), p)
        if len(factor[0]) != n - 1:
            return None
        factors.append(factor)
    zero = (0, 0, 0, 0)
    acc = [0] * (4 * n)
    pk = 1
    for _ in range(budget):
        ys = [
            _solve(f, [sum(map(mul, res.get(i, zero), pw)) % p for i in range(n)], p)
            for f, pw in zip(factors, powers)
        ]
        for j, y in enumerate(zip(*ys)):
            if any(y):
                digit = [0, 0, 0, 0]
                digit[:: 4 // d] = [sum(map(mul, row, y)) % p for row in vinv]
                addmul(res, [-x for x in digit], block[j])
                for t, x in enumerate(digit, 4 * j):
                    acc[t] += x * pk
        res = {i: tuple(a // p for a in c) for i, c in res.items()}
        pk *= p
        found = _reconstruct(acc, pk)
        if found is None:
            continue
        nums, den = found
        nums[4 * free] = den
        full = [tuple(nums[t : t + 4]) for t in range(0, 4 * n, 4)]
        check: dict = {}
        for col, b in zip(cols, full):
            if any(b):
                addmul(check, b, col)
        if not check:
            return [Scalar.from_integers(b, den) for b in full]
    raise ConsistencyError(
        f"p-adic lifting found no certified kernel vector within {budget} steps"
    )


def kernel_vector(op: SparseOperator) -> list[Scalar]:
    """The one ray of the kernel of the square operator op, scaled so
    that its last nonzero entry is 1.  The lifting reads op's Z[zeta]
    integer columns `num_cols` and not its denominator, which does not
    change the kernel, and first divides out their integer content,
    with which its integers would only grow.

    Dixon's method: the rank profile is found mod a prime p of PRIMES,
    one pivot block is factored in each embedding of Z[zeta] into F_p,
    and the solution is lifted p-adically with exact residual updates
    (r - A x) / p, one `addmul` per nonzero digit column, until a
    rational reconstruction over one common denominator satisfies
    A v == 0, contracted with the same columns in Z[zeta] integers.  A
    wrong reconstruction costs one more lifting step, never a wrong
    vector.  With the rank n - 1 mod p that proves v spans the kernel.
    A prime with any other rank is skipped; when every one is, the exact
    `kernel_basis` of `op.to_rows()` decides, and a kernel that is not
    a line raises NonGenericPointError.  The last nonzero entry is the
    free column of `kernel_basis`'s RREF, so both give the same vector.
    """
    g = gcd(*(a for col in op.num_cols for c in col.values() for a in c))
    cols = [[(i, tuple(a // g for a in c)) for i, c in col.items()] for col in op.num_cols]
    d = ring_degree(c for col in cols for _, c in col)
    for p in PRIMES:
        vec = _lift(cols, d, p)
        if vec is not None:
            inv = next(x for x in reversed(vec) if x).inv()
            return vec if inv == ONE else [x * inv for x in vec]
    basis = kernel_basis(op.to_rows(), op.dim)
    if len(basis) != 1:
        raise NonGenericPointError(f"kernel has dimension {len(basis)}, expected 1")
    return basis[0]


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
