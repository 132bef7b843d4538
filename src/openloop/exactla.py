"""Exact linear algebra helpers over the cyclotomic field.

Three pieces of plumbing shared by the character and groundstate
modules: fraction-free (Bareiss) determinants of Scalar matrices,
reduced row echelon kernels, and univariate Laurent polynomials with
Scalar coefficients, in which `newton_interpolate` and `laurent_fit`
return the interpolated groundstate components.
"""

from __future__ import annotations

from typing import Sequence

from .exactfield import ONE, ZERO, Scalar

__all__ = ["LaurentPoly", "det", "kernel_basis", "newton_interpolate", "laurent_fit"]


def _scalar_size(x: Scalar) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in x.coeffs)


class LaurentPoly:
    """Laurent polynomial in one variable over Q(zeta12)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        self._c = {e: c for e, c in (coeffs or {}).items() if not c.is_zero()}

    @classmethod
    def from_scalar(cls, s: Scalar) -> LaurentPoly:
        return cls({0: s})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = ONE) -> LaurentPoly:
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self._c

    def support(self) -> list[int]:
        return sorted(self._c)

    @property
    def min_exp(self) -> int:
        return min(self._c)

    @property
    def max_exp(self) -> int:
        return max(self._c)

    def coeff(self, exp: int) -> Scalar:
        return self._c.get(exp, ZERO)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, ZERO) + v
        return LaurentPoly(c)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        c: dict[int, Scalar] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, ZERO) + v1 * v2
        return LaurentPoly(c)

    def scale(self, s: Scalar) -> LaurentPoly:
        return LaurentPoly({e: v * s for e, v in self._c.items()})

    def eval_at(self, x: Scalar) -> Scalar:
        total = ZERO
        for e, v in self._c.items():
            total = total + v * x**e
        return total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        parts = [f"({v!r})*t^{e}" for e, v in sorted(self._c.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Fraction-free determinant (Bareiss) with size-biased pivoting;
    every interior division is exact by the Sylvester identity."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = ONE
    for k in range(n - 1):
        cands = [i for i in range(k, n) if not m[i][k].is_zero()]
        if not cands:
            return ZERO
        piv = min(cands, key=lambda i: _scalar_size(m[i][k]))
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = ZERO
        prev = m[k][k]
    result = m[n - 1][n - 1]
    if sign < 0:
        result = -result
    return result


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel of a Scalar matrix, via exact RREF.

    Pivots are chosen smallest-first (by coefficient bit size) to tame
    intermediate growth.  The returned vectors have a 1 in their free
    column and are otherwise supported on pivot columns.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []  # (row, col)
    rank = 0
    for col in range(ncols):
        cands = [i for i in range(rank, nrows) if not m[i][col].is_zero()]
        if not cands:
            continue
        piv = min(cands, key=lambda i: _scalar_size(m[i][col]))
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inv()
        m[rank] = [v * inv for v in m[rank]]
        for i in range(nrows):
            if i != rank and not m[i][col].is_zero():
                f = m[i][col]
                row_i, row_p = m[i], m[rank]
                m[i] = [a - f * b for a, b in zip(row_i, row_p)]
        pivots.append((rank, col))
        rank += 1
        if rank == nrows:
            break
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


def newton_interpolate(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> LaurentPoly:
    """The unique degree < len(xs) polynomial through (xs, ys)."""
    n = len(xs)
    if n != len(ys) or n == 0:
        raise ValueError("need equally many sample points and values")
    coef = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = LaurentPoly.from_scalar(coef[n - 1])
    x = LaurentPoly.monomial(1)
    for k in range(n - 2, -1, -1):
        shifted = x - LaurentPoly.from_scalar(xs[k])
        poly = poly * shifted + LaurentPoly.from_scalar(coef[k])
    return poly


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
    return LaurentPoly({e + min_exp: poly.coeff(e) for e in poly.support()})
