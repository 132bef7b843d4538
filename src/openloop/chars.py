"""Symplectic characters and the partition data of the loop model.

The character of the irreducible sp(2n) representation labelled by a
partition lam = (lam_1 >= ... >= lam_n >= 0) is the Weyl ratio

    chi_lam(x_1..x_n) = det[ x_i^(e_j) - x_i^(-e_j) ]
                      / det[ x_i^(d_j) - x_i^(-d_j) ],

with e_j = lam_j + n - j + 1 and d_j = n - j + 1.  The ratio is
symmetric in the x_i and invariant under every inversion x_i -> 1/x_i;
its denominator vanishes at confluent argument lists (repeated values,
inverse pairs, or values with x^2 = 1).

`character_auto` evaluates every argument list, confluent or not, with
the Koike-Terada determinant, which has no denominator (Koike and
Terada, J. Algebra 107 (1987); Fulton and Harris, Representation
Theory, section 24.2):

    chi_lam(x) = det[ h_(lam_i - i + 1) | h_(lam_i - i + j) + h_(lam_i - i - j + 2) ],

over 1 <= i, j <= l(lam), the first column holding h_(lam_i - i + 1)
alone.  Here h_k is the complete homogeneous polynomial in the 2n
variables x_1^(+-1)..x_n^(+-1), and h_k = 0 for k < 0.  The Weyl ratio
stays as `symplectic_character`, an independent oracle that refuses
confluent arguments with NonGenericPointError.

The groundstate normalisation uses the staircase-halves

    lambda(L)_j = floor((L - j) / 2).

Its staircase characters S_n = chi_{lambda(n)} at the squares of the
arguments (`s_character`) are memoized on the argument tuple, in a
`functools.lru_cache` of at most `exactfield.CACHE_SIZE` entries: a
character is a pure function of immutable Scalars, and the four of
`z_product` share their arguments with the closed forms of a solve and
with its sum-rule check.  An exception is never cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import NonGenericPointError
from .exactfield import CACHE_SIZE, ONE, Q, ZERO, Scalar, kfun
from .exactla import det

__all__ = [
    "PART_CAP",
    "lambda_partition",
    "symplectic_character",
    "character_auto",
    "s_character",
    "z_product",
    "check_char_recursion",
]


def lambda_partition(length: int) -> tuple[int, ...]:
    """lambda(L)_j = floor((L - j)/2) for j = 1..L."""
    if length < 0:
        raise ValueError("partition size must be nonnegative")
    return tuple((length - j) // 2 for j in range(1, length + 1))


# The largest partition part evaluated: time and memory grow with it, as
# 0.8 / 1.8 / 3.1 s and 29 / 37 / 46 MB at lam_1 = 8000 / 10000 / 12000, x = 2.
PART_CAP = 10_000


def _padded(lam: Sequence[int], xs: Sequence[Scalar]) -> tuple[int, ...]:
    """lam checked and padded to len(xs) parts; every x must be nonzero."""
    lam, n = tuple(lam), len(xs)
    if any(not 0 <= a <= PART_CAP for a in lam):
        raise ValueError(f"partition parts must lie in 0..PART_CAP = {PART_CAP}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("partition parts must be non-increasing")
    if len(lam) > n and any(a != 0 for a in lam[n:]):
        raise ValueError(f"partition has more than {n} nonzero parts")
    if any(x.is_zero() for x in xs):
        raise ValueError("character arguments must be nonzero")
    return (lam + (0,) * n)[:n]


def _collides(xs: Sequence[Scalar]) -> bool:
    """True when the Weyl denominator vanishes: some x^2 = 1, or some
    pair of arguments is equal or inverse."""
    n = len(xs)
    return any(x * x == ONE for x in xs) or any(
        xs[i] == xs[j] or xs[i] * xs[j] == ONE for i in range(n) for j in range(i + 1, n)
    )


def symplectic_character(lam: Sequence[int], xs: Sequence[Scalar]) -> Scalar:
    """chi_lam at pairwise generic arguments; raises NonGenericPointError
    when the Weyl denominator vanishes."""
    n = len(xs)
    lam = _padded(lam, xs)
    if n == 0:
        return ONE
    if _collides(xs):
        raise NonGenericPointError("character arguments collide; use character_auto")
    num = [[xs[i] ** e - xs[i] ** (-e) for e in _exponents(lam, n)] for i in range(n)]
    den = [[xs[i] ** d - xs[i] ** (-d) for d in _exponents([0] * n, n)] for i in range(n)]
    return det(num) / det(den)


def _exponents(lam: Sequence[int], n: int) -> list[int]:
    return [lam[j] + n - j for j in range(n)]  # j is 0-based: lam_j + n - j + 1 - 1 + 1


def _complete_homogeneous(xs: Sequence[Scalar], top: int) -> list[Scalar]:
    """h_0..h_top in the variables x_1^(+-1)..x_n^(+-1), adding one
    variable v at a time by h_k += v h_(k-1)."""
    h = [ONE] + [ZERO] * top
    for x in xs:
        for v in (x, x.inv()):
            for k in range(1, top + 1):
                h[k] = h[k] + v * h[k - 1]
    return h


def character_auto(lam: Sequence[int], xs: Sequence[Scalar]) -> Scalar:
    """chi_lam at any nonzero arguments, confluent or not, as the
    Koike-Terada determinant."""
    lam = [a for a in _padded(lam, xs) if a]
    if not lam:
        return ONE
    ell = len(lam)
    hs = _complete_homogeneous(xs, lam[0] + ell - 1)

    def h(k: int) -> Scalar:
        return hs[k] if k >= 0 else ZERO

    # 0-based i, j: entry h_(lam_i - i + j), plus h_(lam_i - i - j) for j > 0.
    return det([
        [h(lam[i] - i + j) + (h(lam[i] - i - j) if j else ZERO) for j in range(ell)]
        for i in range(ell)
    ])


def s_character(ys: Sequence[Scalar]) -> Scalar:
    """S_n(y_1..y_n) = chi_{lambda(n)} evaluated at the squares y_i^2,
    memoized on tuple(ys) (`_staircase`)."""
    return _staircase(tuple(ys))


@lru_cache(maxsize=CACHE_SIZE)
def _staircase(ys: tuple[Scalar, ...]) -> Scalar:
    return character_auto(lambda_partition(len(ys)), [y * y for y in ys])


def z_product(pt) -> Scalar:
    """Product of four staircase characters equal to the component sum.

    Takes any object with attributes z (sequence of Scalars), zeta1 and
    zeta2; returns S_{L+2}(zeta1, z, zeta2) S_{L+1}(zeta1, z)
    S_{L+1}(z, zeta2) S_L(z).
    """
    zs = list(pt.z)
    return (
        s_character([pt.zeta1] + zs + [pt.zeta2])
        * s_character([pt.zeta1] + zs)
        * s_character(zs + [pt.zeta2])
        * s_character(zs)
    )


def check_char_recursion(zs: Sequence[Scalar], j: int) -> bool:
    """Staircase character recursion under z_{j+1} = q z_j.

    S_L(z)| = (-1)^L prod_{i != j, j+1} k(z_j, z_i) S_{L-2}(remaining z),

    with S_n of `s_character`.
    """
    length = len(zs)
    if not 1 <= j <= length - 1:
        raise ValueError("specialised pair out of range")
    if zs[j] != Q * zs[j - 1]:
        raise ValueError("recursion needs z_{j+1} = q z_j")
    rest = [zs[i] for i in range(length) if i not in (j - 1, j)]
    factor = ONE if length % 2 == 0 else -ONE
    for other in rest:
        factor = factor * kfun(zs[j - 1], other)
    return s_character(zs) == factor * s_character(rest)
