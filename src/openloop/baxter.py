"""Baxterised bulk and boundary operators and their face weights.

With [z] = z - 1/z, q = exp(2 pi i / 3) and the boundary function
k(z, zeta) = [z/(q zeta)] [z zeta / q], every local operator has the
form O_i = (A - B e_i) / D.  This module is the one home of the
coefficient triples (A, B, D):

    Rcheck_i(u):         r_coefficients(u)       = ([q/u], [u], [q u]),
    Kcheck_0/L(z, zeta): k_coefficients(z, zeta) = (k(z, zeta), [q][z^2], k(1/z, zeta)).

Everything else derives from them: `rcheck`, `kcheck0` and `kcheckL`
assemble (A Id - B e_i) / D, the face weights are (A/D, -B/D), and
`transfer.exchange_coefficients` and the qKZ multiplier -A/B read the
same triples.  The operators are unital at z = 1, satisfy unitarity
O(z) O(1/z) = 1, and obey the braid-limit Yang-Baxter and reflection
equations checked in the test suite.

Inside the double-row transfer matrix a bulk tile carries two fillings
(strands passing, weight a; strands bouncing, weight b) and a boundary
tile a straight filling (the travelling strand makes a U-turn) and a
turn-back filling (both strand ends leave into the boundary).
`face_weights_R` reads r_coefficients at u = z/w; the wall tiles read
k_coefficients at (q w, zeta) and (w, zeta), so the one-site assembled
tile equals Kcheck, which pins every sign.

The three face-weight functions are memoized on their arguments, each
in a `functools.lru_cache` of at most `exactfield.CACHE_SIZE` entries:
they are pure functions of immutable Scalars, so the nodes of a Laurent
window, where only one z moves, reuse every tile that did not, and
equal arguments give the very same FaceWeights.  A pole raises
SingularParameterError on every call, for lru_cache keeps no exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SingularParameterError
from .exactfield import CACHE_SIZE, Q, Scalar, bracket, kfun
from .linkpat import SparseOperator, generator_matrix

__all__ = [
    "FaceWeights",
    "baxterised",
    "face_weights_K0",
    "face_weights_KL",
    "face_weights_R",
    "k_coefficients",
    "kcheck0",
    "kcheckL",
    "r_coefficients",
    "rcheck",
]


@dataclass(frozen=True)
class FaceWeights:
    """Pair of tile weights: id_weight for the passing filling, cup_weight
    for the bouncing (or boundary turn-back) filling."""

    id_weight: Scalar
    cup_weight: Scalar


def r_coefficients(u: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """(A, B, D) = ([q/u], [u], [q u]) of Rcheck(u)."""
    return bracket(Q / u), bracket(u), bracket(Q * u)


def k_coefficients(z: Scalar, zeta: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """(A, B, D) = (k(z, zeta), [q][z^2], k(1/z, zeta)) of Kcheck(z, zeta)."""
    return kfun(z, zeta), bracket(Q) * bracket(z * z), kfun(z.inv(), zeta)


def _ratios(coeffs: tuple[Scalar, Scalar, Scalar], pole: str) -> tuple[Scalar, Scalar]:
    """(A/D, B/D), raising SingularParameterError(pole) where D = 0."""
    a, b, d = coeffs
    if d.is_zero():
        raise SingularParameterError(pole)
    inv = d.inv()
    return a * inv, b * inv


def baxterised(i: int, coeffs: tuple[Scalar, Scalar, Scalar], length: int) -> SparseOperator:
    """(A Id - B e_i) / D on the 2^length basis, for coeffs = (A, B, D)."""
    a, b = _ratios(coeffs, f"pole of the operator at i = {i}: D = 0")
    ident = SparseOperator.identity(1 << length)
    return ident.scale(a) - generator_matrix(i, length).scale(b)


def rcheck(i: int, z: Scalar, length: int) -> SparseOperator:
    """Rcheck_i(z) acting on the 2^length basis; needs 1 <= i <= length-1."""
    if not 1 <= i <= length - 1:
        raise ValueError(f"bulk operator index {i} out of range 1..{length - 1}")
    return baxterised(i, r_coefficients(z), length)


def kcheck0(z: Scalar, zeta: Scalar, length: int) -> SparseOperator:
    """Left boundary operator Kcheck_0(z, zeta)."""
    return baxterised(0, k_coefficients(z, zeta), length)


def kcheckL(z: Scalar, zeta: Scalar, length: int) -> SparseOperator:
    """Right boundary operator Kcheck_L(z, zeta)."""
    return baxterised(length, k_coefficients(z, zeta), length)


@lru_cache(maxsize=CACHE_SIZE)
def face_weights_R(z: Scalar, w: Scalar) -> FaceWeights:
    """Bulk tile weights of R(z, w): a = [q w/z]/[q z/w], b = -[z/w]/[q z/w]."""
    a, b = _ratios(r_coefficients(z / w), "R tile pole: [q z/w] = 0")
    return FaceWeights(a, -b)


@lru_cache(maxsize=CACHE_SIZE)
def face_weights_K0(w: Scalar, zeta: Scalar) -> FaceWeights:
    """Left boundary tile of K_0(w, zeta).

    Assembled on one site (straight * Id + turn * e_0) this equals
    Kcheck_0(q w, zeta): the travelling strand meets the left wall
    with its argument shifted by one crossing.
    """
    a, b = _ratios(k_coefficients(Q * w, zeta), "K_0 tile pole: k(1/(q w), zeta) = 0")
    return FaceWeights(a, -b)


@lru_cache(maxsize=CACHE_SIZE)
def face_weights_KL(w: Scalar, zeta: Scalar) -> FaceWeights:
    """Right boundary tile of K_L(w, zeta); assembles to Kcheck_L(w, zeta)."""
    a, b = _ratios(k_coefficients(w, zeta), "K_L tile pole: k(1/w, zeta) = 0")
    return FaceWeights(a, -b)
