"""Symplectic characters and the partition data of the loop model.

The character of the irreducible sp(2n) representation labelled by a
partition lam = (lam_1 >= ... >= lam_n >= 0) is the Weyl ratio

    chi_lam(x_1..x_n) = det[ x_i^(e_j) - x_i^(-e_j) ]
                      / det[ x_i^(d_j) - x_i^(-d_j) ],

with e_j = lam_j + n - j + 1 and d_j = n - j + 1.  Both determinants
are evaluated exactly; the ratio is symmetric in the x_i and invariant
under every inversion x_i -> 1/x_i.

At confluent argument lists (repeated values, inverse pairs, or values
with x^2 = 1) the two determinants vanish; the ratio is then computed
by substituting x_i -> x_i t^(c_i) with distinct positive exponents
c_i on the colliding arguments, dividing the two Laurent polynomials
in t exactly, and evaluating the quotient at t = 1.  No limits and no
floating point are involved.

The groundstate normalisation uses the staircase-halves

    lambda(L)_j = floor((L - j) / 2),     mu(L)_j = 2L + 1 - 2j,

which satisfy mu(L) = lambda(L) + 2 lambda(L+1) + lambda(L+2) and
|mu(L)| = L^2.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ConfluentPointError, ConsistencyError
from .exactfield import ONE, Q, Scalar, kfun
from .exactla import LaurentPoly, det

__all__ = [
    "lambda_partition",
    "mu_partition",
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


def mu_partition(length: int) -> tuple[int, ...]:
    """Odd staircase mu(L)_j = 2L + 1 - 2j, with its defining identities."""
    mu = tuple(2 * length + 1 - 2 * j for j in range(1, length + 1))
    lam0 = lambda_partition(length)
    lam1 = lambda_partition(length + 1)[:length]
    lam2 = lambda_partition(length + 2)[:length]
    if any(m != a + 2 * b + c for m, a, b, c in zip(mu, lam0, lam1, lam2)):
        raise ConsistencyError("mu(L) != lambda(L) + 2 lambda(L+1) + lambda(L+2)")
    if sum(mu) != length * length:
        raise ConsistencyError("|mu(L)| != L^2")
    return mu


def _padded(lam: Sequence[int], n: int) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(a < 0 for a in lam):
        raise ValueError("partition parts must be nonnegative")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("partition parts must be non-increasing")
    if len(lam) > n and any(a != 0 for a in lam[n:]):
        raise ValueError(f"partition has more than {n} nonzero parts")
    return (lam + (0,) * n)[:n]


def _colliding(xs: Sequence[Scalar]) -> set[int]:
    """Indices of arguments that make the Weyl denominator vanish: those
    with x^2 = 1 and both members of any equal or inverse pair."""
    n = len(xs)
    colliding = set()
    for i in range(n):
        if xs[i] * xs[i] == ONE:
            colliding.add(i)
        for j in range(i + 1, n):
            if xs[i] == xs[j] or xs[i] * xs[j] == ONE:
                colliding.update((i, j))
    return colliding


def symplectic_character(lam: Sequence[int], xs: Sequence[Scalar]) -> Scalar:
    """chi_lam at pairwise generic arguments; raises ConfluentPointError
    when the Weyl denominator vanishes."""
    n = len(xs)
    lam = _padded(lam, n)
    if any(x.is_zero() for x in xs):
        raise ValueError("character arguments must be nonzero")
    if n == 0:
        return ONE
    if _colliding(xs):
        raise ConfluentPointError(
            "character arguments collide; use character_auto"
        )
    num = [[xs[i] ** e - xs[i] ** (-e) for e in _exponents(lam, n)] for i in range(n)]
    den = [[xs[i] ** d - xs[i] ** (-d) for d in _exponents([0] * n, n)] for i in range(n)]
    return det(num) / det(den)


def _exponents(lam: Sequence[int], n: int) -> list[int]:
    return [lam[j] + n - j for j in range(n)]  # j is 0-based: lam_j + n - j + 1 - 1 + 1


def _character_substituted(
    lam: Sequence[int], xs: Sequence[Scalar], colliding: set[int]
) -> Scalar:
    """Evaluate the Weyl ratio with t-power substitutions on the colliding args."""
    n = len(xs)
    powers = {}
    nxt = 1
    for i in sorted(colliding):
        powers[i] = nxt
        nxt += 1

    def row(i: int, exps: list[int]) -> list[LaurentPoly]:
        c = powers.get(i, 0)
        out = []
        for e in exps:
            plus = LaurentPoly.monomial(c * e, xs[i] ** e)
            minus = LaurentPoly.monomial(-c * e, xs[i] ** (-e))
            out.append(plus - minus)
        return out

    num = [row(i, _exponents(lam, n)) for i in range(n)]
    den = [row(i, _exponents([0] * n, n)) for i in range(n)]
    dnum = det(num)
    dden = det(den)
    if dden.is_zero():
        raise ConfluentPointError("denominator vanishes identically after substitution")
    return (dnum / dden).eval_one()


def character_auto(lam: Sequence[int], xs: Sequence[Scalar]) -> Scalar:
    """chi_lam at any nonzero arguments, confluent or not."""
    n = len(xs)
    lam = _padded(lam, n)
    if any(x.is_zero() for x in xs):
        raise ValueError("character arguments must be nonzero")
    if n == 0:
        return ONE
    colliding = _colliding(xs)
    if colliding:
        return _character_substituted(lam, xs, colliding)
    return symplectic_character(lam, xs)


def s_character(ys: Sequence[Scalar]) -> Scalar:
    """S_n(y_1..y_n) = chi_{lambda(n)} evaluated at the squares y_i^2."""
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

    chi_{lambda(L)}(z^2)| = (-1)^L prod_{i != j, j+1} k(z_j, z_i)
                            * chi_{lambda(L-2)}(remaining z^2).
    """
    length = len(zs)
    if not 1 <= j <= length - 1:
        raise ValueError("specialised pair out of range")
    if zs[j] != Q * zs[j - 1]:
        raise ValueError("recursion needs z_{j+1} = q z_j")
    lhs = character_auto(lambda_partition(length), [z * z for z in zs])
    rest = [zs[i] for i in range(length) if i not in (j - 1, j)]
    factor = ONE if length % 2 == 0 else -ONE
    for other in rest:
        factor = factor * kfun(zs[j - 1], other)
    rhs = factor * character_auto(lambda_partition(length - 2), [z * z for z in rest])
    return lhs == rhs
