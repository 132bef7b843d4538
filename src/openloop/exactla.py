"""Exact linear algebra helpers over the cyclotomic field.

The linear algebra shared by the character and groundstate modules:

- one Gauss-Jordan pass over Q(zeta12), behind `det` and the reduced
  row echelon `kernel_basis`, which decides the dimension where no
  prime has the generic rank and is the oracle the lifting is tested
  against;
- one Gaussian elimination mod p, behind Dixon's p-adic lifting of the
  fixed vector of a transfer matrix, certified exactly as T v == v by
  `SparseOperator.apply` in Z[zeta] integers;
- the Laurent fits `newton_interpolate` and `laurent_fit`, which return
  the interpolated groundstate components as `LaurentPoly` results.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .errors import ConsistencyError, NonGenericPointError
from .exactfield import ONE, ZERO, Scalar, cleared
from .linkpat import SparseOperator

__all__ = [
    "PRIMES",
    "LaurentPoly",
    "det",
    "fixed_vector",
    "kernel_basis",
    "newton_interpolate",
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

    def coeff(self, exp: int) -> Scalar:
        return self._c.get(exp, ZERO)

    def eval_at(self, x: Scalar) -> Scalar:
        total = ZERO
        for e, v in self._c.items():
            total = total + v * x**e
        return total

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


# -- fixed vector by p-adic lifting -------------------------------------

# Primes p = 1 (mod 12), so that F_p holds the primitive 12th roots of
# unity and Z[zeta] / p splits into four copies of F_p.  A prime at
# which T - 1 has the wrong rank is skipped for the next one.
PRIMES = ((1 << 125) - 415, (1 << 125) - 1291, (1 << 125) - 1483)

# Bits by which the reconstruction bounds stay below Wang's sqrt(m / 2).
_MARGIN = 16

# The ring in which the lifting runs: Z[zeta] in the basis zeta^0..3, or
# Z[zeta^2] in the basis 1, zeta^2 when no entry has an odd power of
# zeta (then the embeddings zeta -> r and -r agree, and two suffice).
# Each entry: positions of the basis in a Scalar's coefficients, the
# minimal polynomial x^d + m_{d-1} x^{d-1} + ... + m_0 of the generator
# as (m_0, .., m_{d-1}), and the exponents e with generator -> r^e for a
# primitive 12th root of unity r mod p.
_RINGS = {
    4: ((0, 1, 2, 3), (1, 0, -1, 0), (1, 5, 7, 11)),
    2: ((0, 2), (1, -1), (2, 10)),
}


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
    """The Vandermonde matrix V[k][j] = r_k^j of the d embeddings
    generator -> r_k of `_RINGS[d]` into F_p, and its inverse mod p."""
    _, _, exps = _RINGS[d]
    for g in range(2, p):
        r = pow(g, (p - 1) // 12, p)
        if pow(r, 4, p) != 1 and pow(r, 6, p) != 1:  # order exactly 12
            break
    vander = [[pow(r, e * j, p) for j in range(d)] for e in exps]
    factor = _eliminate(vander, p)
    cols = [_solve(factor, [int(i == k) for i in range(d)], p) for k in range(d)]
    return vander, [list(row) for row in zip(*cols)]


def _regular(c: tuple[int, ...], minpoly: Sequence[int]) -> list[tuple[int, ...]]:
    """Rows of the integer matrix of multiplication by c in the ring basis:
    column s holds c times generator^s, reduced by the minimal polynomial."""
    cols = [list(c)]
    for _ in range(len(c) - 1):
        prev = cols[-1]
        cols.append([(prev[t - 1] if t else 0) - prev[-1] * m for t, m in enumerate(minpoly)])
    return list(zip(*cols))


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


def _lift(tmat: SparseOperator, ints: list[list[tuple[int, ...]]], d: int, p: int):
    """The certified fixed vector of T = tmat, lifted from the prime p with
    the cleared rows ints of T - 1, with its free column at 1; None if
    T - 1 does not have rank n - 1 mod p.  A reconstruction is returned
    only if tmat.apply(v) == v, computed in Z[zeta] integers."""
    positions, minpoly, _ = _RINGS[d]
    vander, vinv = _embeddings(p, d)
    n = len(ints)
    a = [[tuple(c[t] for t in positions) for c in row] for row in ints]
    factor = _eliminate([[sum(map(mul, c, vander[0])) for c in row] for row in a], p)
    if len(factor[0]) != n - 1:
        return None
    (dep,) = set(range(n)).difference(row for row, _, _ in factor[0])
    (free,) = set(range(n)).difference(col for _, col, _ in factor[0])
    # Hadamard: every conjugate of det A and of its Cramer numerators is
    # at most H = prod_i |row i|, with 2^hadamard >= H^2.  The solution's
    # coefficients are (numerator) / N(det A), both below 2 H^d, and
    # reconstruction needs m > 2 (2^_MARGIN 2 H^d)^2.
    hadamard = sum(
        sum(sum(map(abs, c)) ** 2 for c in row).bit_length()
        for i, row in enumerate(a)
        if i != dep
    )
    budget = -(-(d * hadamard + 2 * _MARGIN + 3) // (p.bit_length() - 1)) + 1
    # Solve A x = -(column free) on the other rows and columns, v_free = 1.
    rhs = [tuple(-c for c in row[free]) for row in a]
    zero = (0,) * d
    rhs[dep] = zero
    a[dep] = [zero] * n
    for row in a:
        row[free] = zero
    factors = [factor]
    for pw in vander[1:]:
        factor = _eliminate([[sum(map(mul, c, pw)) for c in row] for row in a], p)
        if len(factor[0]) != n - 1:
            return None
        factors.append(factor)
    flat = []
    for row in a:
        regs = [_regular(c, minpoly) for c in row]
        flat.extend([x for reg in regs for x in reg[t]] for t in range(d))
    res = [c for row in rhs for c in row]
    acc = [0] * (n * d)
    pk = 1
    for _ in range(budget):
        ys = [
            _solve(f, [sum(map(mul, res[i * d : i * d + d], pw)) % p for i in range(n)], p)
            for f, pw in zip(factors, vander)
        ]
        digit = [sum(map(mul, row, y)) % p for y in zip(*ys) for row in vinv]
        res = [(r - sum(map(mul, brow, digit))) // p for r, brow in zip(res, flat)]
        acc = [s + x * pk for s, x in zip(acc, digit)]
        pk *= p
        found = _reconstruct(acc, pk)
        if found is None:
            continue
        nums, den = found
        full = [[0, 0, 0, 0] for _ in range(n)]
        for k, c in enumerate(nums):
            full[k // d][positions[k % d]] = c
        full[free] = [den, 0, 0, 0]
        vec = [Scalar.from_integers(c, den) for c in full]
        if tmat.apply(vec) == vec:
            return vec
    raise ConsistencyError(
        f"p-adic lifting found no certified fixed vector within {budget} steps"
    )


def fixed_vector(tmat: SparseOperator) -> list[Scalar]:
    """The fixed vector of T, scaled so that its last nonzero entry is 1.

    Dixon's method: the rows of T - 1 are cleared of denominators, the
    rank profile is found mod a prime p of PRIMES, the pivot block is
    factored once in each embedding of Z[zeta] into F_p, and the solution
    is lifted p-adically with exact residual updates (r - A x) / p until
    a rational reconstruction over one common denominator satisfies
    tmat.apply(v) == v, which `SparseOperator.apply` computes in Z[zeta]
    integers.  A wrong reconstruction costs one more lifting step, never
    a wrong vector.  With the rank n - 1 mod p that proves v spans the
    fixed space.  A prime with any other rank is skipped; when every one
    is, the exact `kernel_basis` decides, and a fixed space that is not a
    line raises NonGenericPointError.  The last nonzero entry is the free
    column of `kernel_basis`'s RREF, so both give the same vector.
    """
    n = tmat.dim
    rows = tmat.to_rows()
    for i in range(n):
        rows[i][i] = rows[i][i] - ONE
    ints = [cleared(row)[0] for row in rows]
    d = 4 if any(c[1] or c[3] for row in ints for c in row) else 2
    for p in PRIMES:
        vec = _lift(tmat, ints, d, p)
        if vec is not None:
            last = next(x for x in reversed(vec) if not x.is_zero())
            if last != ONE:
                inv = last.inv()
                vec = [x * inv for x in vec]
            return vec
    basis = kernel_basis(rows, n)
    if len(basis) != 1:
        raise NonGenericPointError(
            f"fixed space of the transfer matrix has dimension {len(basis)}, expected 1"
        )
    return basis[0]


def newton_interpolate(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> LaurentPoly:
    """The unique degree < len(xs) polynomial through (xs, ys)."""
    n = len(xs)
    if n != len(ys) or n == 0:
        raise ValueError("need equally many sample points and values")
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    # Horner on the Newton form: poly <- poly * (t - xs[k]) + coef[k],
    # with poly[e] the coefficient of t^e.
    poly = [coef[n - 1]]
    for k in range(n - 2, -1, -1):
        x = xs[k]
        poly = [coef[k] - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:] + [ZERO])]
    return LaurentPoly(dict(enumerate(poly)))


def laurent_fit(
    xs: Sequence[Scalar], ys: Sequence[Scalar], min_exp: int, max_exp: int
) -> LaurentPoly:
    """Fit a Laurent polynomial with support in [min_exp, max_exp].

    Needs exactly max_exp - min_exp + 1 samples at distinct nonzero
    points; the caller is responsible for holdout verification.
    """
    width = max_exp - min_exp + 1
    if len(xs) != width or len(ys) != width:
        raise ValueError(f"need exactly {width} samples for this exponent window")
    lifted = [y * x ** (-min_exp) for x, y in zip(xs, ys)]
    poly = newton_interpolate(xs, lifted)
    return LaurentPoly({e + min_exp: c for e, c in poly._c.items()})
