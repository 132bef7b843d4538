"""Exact groundstate of the double-row transfer matrix.

The transfer matrix at a generic spectral point fixes a unique ray;
`solve` computes it as the kernel of T - 1 by p-adic lifting
(`exactla.kernel_vector`), certified by an exact (T - 1) v == 0, and
pins the scale to closed-form anchor components so that different
points share one global polynomial normalization.  On top of the
solver this module carries the full identity apparatus: the extremal
closed forms, the component sum rule, the exchange and reflection
equations satisfied by the eigenvector, the size-lowering recursions
with their explicit proportionality factors, degree bounds via exact
interpolation, the vanishing conditions at specialization points, the
homogeneous-point Hamiltonian (its kernel, by the same lifting, is the
ray T fixes), and the partial reconstruction of the L = 3 vector from
its extremal components.

The per-index identities follow the convention of `transfer`: index
i = 0 is the left wall, 1..L-1 the bulk, L the right wall, and the
index-i data comes from its tables `pi_point`, `exchange_operator` and
`reduction`, with the recursion factors r_0, p and r_L in the one table
`recursion_factor`.  `check_qkz`, `check_recursion` and
`check_vanishing` each return one verdict per index i = 0..L.

Sign bookkeeping follows the anchor constant A_0 = 1, A_L = (-1)^L
A_{L-1}, so A_L = (-1)^{L(L+1)/2}.  With this choice the component sum
equals the four-character product of `chars.z_product` with no stray
sign, and exchange relations hold as exact equalities rather than
projective statements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .chars import character_auto, lambda_partition, z_product
from .errors import (
    ConsistencyError,
    DegreeBoundError,
    NonGenericPointError,
    SingularParameterError,
)
from .exactfield import ONE, Scalar, ZERO, kfun
from .exactla import LaurentPoly, kernel_vector, laurent_fit
from .linkpat import SparseOperator, all_patterns, c_from_zeta, hamiltonian, index_of, word_of
from .transfer import (
    SpectralPoint,
    _relation_length,
    assert_generic,
    exchange_coefficients,
    exchange_operator,
    pi_point,
    reduction,
    transfer_apply,
    transfer_matrix,
)

__all__ = [
    "SOLVE_CAP",
    "ComponentEvaluator",
    "GroundstateVector",
    "ReconstructionL3",
    "a_const",
    "check_hamiltonian",
    "check_qkz",
    "check_recursion",
    "check_sum_rule",
    "check_vanishing",
    "closed_form_all_close",
    "closed_form_all_open",
    "eval_a",
    "eval_s",
    "generic_parameters",
    "interpolate_all",
    "reconstruct_partial_L3",
    "recursion_factor",
    "solve",
    "solve_homogeneous",
    "sum_components",
]

SOLVE_CAP = 8

ComponentEvaluator = Callable[[SpectralPoint], Scalar]


@dataclass(frozen=True)
class GroundstateVector:
    """Fixed vector of T at one point, with the normalization used.

    normalization is one of "all_open", "all_close", "sum" (anchored to
    the matching closed form) or "raw" (last nonzero component 1).
    """

    point: SpectralPoint
    normalization: str
    components: tuple[Scalar, ...]

    def __getitem__(self, key: int | str) -> Scalar:
        if isinstance(key, str):
            if len(key) != self.point.length:
                raise ValueError(f"pattern {key!r} does not have L = {self.point.length} sites")
            return self.components[index_of(key)]
        return self.components[key]

    def words(self) -> list[str]:
        return [word_of(i, self.point.length) for i in range(len(self.components))]

    def as_dict(self) -> dict[str, Scalar]:
        return dict(zip(self.words(), self.components))


def sum_components(gs: GroundstateVector) -> Scalar:
    return sum(gs.components, ZERO)


def generic_parameters(
    rng: random.Random, count: int, avoid: Iterable[Fraction] = ()
) -> list[Scalar]:
    """Draw small nonzero rationals generic for every construction here.

    Rejects 0 and +-1, and any candidate whose product or ratio with an
    already chosen value (or an `avoid` value) is +-1.  Such draws keep
    all tile weights finite, the bracket [w^2] nonzero, character
    arguments collision-free, and the fixed space one-dimensional.

    Candidates are p/q with |p|, q <= 9.  Only once that pool holds no
    admissible value does the range widen, in steps of 9 up to 99, so a
    seed that never exhausts the pool draws the same values as ever;
    beyond 99 NonGenericPointError is raised.
    """
    excluded = {Fraction(0), Fraction(1), Fraction(-1)}

    def take(g: Fraction) -> None:
        excluded.update((g, -g, 1 / g, -1 / g))

    for g in avoid:
        take(Fraction(g))
    out: list[Scalar] = []
    bound = 9
    while len(out) < count:
        while all(
            Fraction(p, q) in excluded
            for q in range(1, bound + 1)
            for p in range(-bound, bound + 1)
        ):
            if bound >= 99:
                raise NonGenericPointError("no admissible parameter with |p|, q <= 99 left")
            bound += 9
        f = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if f in excluded:
            continue
        take(f)
        out.append(Scalar.from_rational(f))
    return out


def a_const(length: int) -> Scalar:
    """Anchor constant A_L = (-1)^{L(L+1)/2}; A_0 = 1, A_L = (-1)^L A_{L-1}."""
    return -ONE if (length * (length + 1) // 2) % 2 else ONE


def closed_form_all_open(pt: SpectralPoint) -> Scalar:
    """Component of the pattern with every site opening to the right.

    Product of k(z_j, z_i) over 0 <= i < j <= L with z_0 = zeta_1,
    times A_L chi_{lambda(L+1)}(z^2, zeta_2^2) chi_{lambda(L)}(z^2).
    """
    length = pt.length
    zs = (pt.zeta1,) + pt.z
    total = a_const(length)
    for i in range(length + 1):
        for j in range(i + 1, length + 1):
            total = total * kfun(zs[j], zs[i])
    sq = [x * x for x in pt.z]
    total = total * character_auto(lambda_partition(length + 1), sq + [pt.zeta2 * pt.zeta2])
    total = total * character_auto(lambda_partition(length), sq)
    return total


def closed_form_all_close(pt: SpectralPoint) -> Scalar:
    """Component of the pattern with every site closing to the left:
    (s^2)^L times the all-open closed form of the reflected strip,
    whatever fourth root of unity s is."""
    return (pt.s * pt.s) ** pt.length * closed_form_all_open(pt.reflected())


def _generic_w(pt: SpectralPoint, candidates: Iterable[Scalar]) -> SpectralPoint:
    """pt moved to the first candidate w, other than 0 and +-1, at which
    no tile weight has a pole."""
    for cand in candidates:
        if cand.is_zero() or cand == ONE or cand == -ONE:
            continue
        trial = pt.with_w(cand)
        try:
            assert_generic(trial)
        except SingularParameterError:
            continue
        return trial
    raise NonGenericPointError("no generic auxiliary parameter found")


def _anchor_target(pt: SpectralPoint, name: str, vec: Sequence[Scalar]):
    if name == "all_open":
        return closed_form_all_open(pt), vec[0]
    if name == "all_close":
        return closed_form_all_close(pt), vec[-1]
    if name == "sum":
        return z_product(pt), sum(vec, ZERO)
    raise ValueError(f"unknown normalization {name!r}")


def _normalize(pt, vec, mode) -> tuple[str, tuple[Scalar, ...]]:
    if mode == "raw":
        return "raw", tuple(vec)
    names = ("all_open", "all_close", "sum") if mode == "auto" else (mode,)
    for name in names:
        target, comp = _anchor_target(pt, name, vec)
        if target.is_zero() != comp.is_zero():
            raise ConsistencyError(
                f"{name} anchor contradicts the solved vector: closed form "
                f"{'vanishes' if target.is_zero() else 'is nonzero'} but the "
                f"component does not agree"
            )
        if not comp.is_zero():
            scale = target / comp
            return name, tuple(x * scale for x in vec)
    if mode == "auto":
        return "raw", tuple(vec)
    raise NonGenericPointError(f"{mode} anchor vanishes at this point")


def solve(
    pt: SpectralPoint,
    normalization: str = "auto",
    check_w: bool = True,
) -> GroundstateVector:
    """Exact fixed vector of T(pt).

    T(pt) is built once and its fixed vector found as the kernel of
    T(pt) - 1 by Dixon's p-adic lifting (`exactla.kernel_vector`): one
    elimination mod a prime that shows the rank n - 1, exact residual
    updates, and a rational reconstruction returned only once
    (T(pt) - 1) v == 0 holds exactly, which with that rank proves the
    fixed space is this one ray.  Where no prime has that rank, the
    exact elimination decides, and a fixed space that is not
    one-dimensional raises NonGenericPointError, whose message gives the
    dimension of the kernel.  With check_w the vector is re-verified
    against T at an independently shifted auxiliary parameter, which
    must fix it too, or ConsistencyError is raised.  The scale is then
    pinned to the first available closed-form anchor (all_open, then
    all_close, then the component sum), falling back to the raw scale
    (last nonzero component 1) when every anchor vanishes; an explicitly
    requested anchor that vanishes raises NonGenericPointError instead.
    """
    if pt.length > SOLVE_CAP:
        raise ValueError(f"refusing exact solve beyond L = SOLVE_CAP = {SOLVE_CAP}")
    vec = kernel_vector(transfer_matrix(pt) - SparseOperator.identity(1 << pt.length))
    if check_w:
        second = _generic_w(pt, [pt.w + Scalar.from_rational(d) for d in (2, 3, 5, 7, 11)])
        if transfer_apply(vec, second) != vec:
            raise ConsistencyError(
                "fixed vector is not independent of the auxiliary parameter"
            )
    name, comps = _normalize(pt, vec, normalization)
    return GroundstateVector(pt, name, comps)


def check_sum_rule(pt: SpectralPoint) -> bool:
    """Sum of components equals the four-character product, exactly."""
    gs = solve(pt, normalization="all_open", check_w=False)
    return sum_components(gs) == z_product(pt)


# -- qKZ operators on component evaluators -----------------------------


def eval_a(i: int, f: ComponentEvaluator, pt: SpectralPoint) -> Scalar:
    """(a_i f)(pt) = g(pi_i pt) f(pi_i pt) + g(pt) f(pt), where g = -A/B
    for the (A, B, D) of `exchange_coefficients`."""
    total = ZERO
    for p in (pi_point(pt, i), pt):
        a, b, _ = exchange_coefficients(p, i)
        if b.is_zero():
            raise SingularParameterError(f"multiplier pole at i = {i}: B = 0")
        total = total + (-a / b) * f(p)
    return total


def eval_s(i: int, f: ComponentEvaluator, pt: SpectralPoint) -> Scalar:
    """(s_i f)(pt) with s_i = -1 - a_i."""
    return -f(pt) - eval_a(i, f, pt)


def check_qkz(pt: SpectralPoint) -> list[bool]:
    """O_i psi(pt) = psi(pi_i pt) for i = 0..L: the exchange relations in
    the bulk and the reflection relations at both walls.  psi(pt) is
    solved once for all indices."""
    base = list(solve(pt, check_w=False).components)
    return [
        exchange_operator(pt, i).apply(base)
        == list(solve(pi_point(pt, i), check_w=False).components)
        for i in range(pt.length + 1)
    ]


# -- size-lowering recursions ------------------------------------------


def recursion_factor(pt: SpectralPoint, i: int) -> Scalar:
    """Factor of the size-lowering recursion at `reduction(pt, i)`, i = 0..L.

    Left wall (z_1 = q zeta_1), r_0 =
    (-1)^{L+1} (A_L/A_{L-1}) k(zeta_1,zeta_2) prod_{j>=2} k(zeta_1,z_j)^2.
    Bulk (z_{i+1} = q z_i), p = -(A_L/A_{L-2}) k(z_i,zeta_1)^2
    k(z_i,zeta_2)^2 prod_{j != i,i+1} k(z_i,z_j)^4, the same function of
    the surviving parameters for every i.  Right wall (z_L = zeta_2 / q),
    r_L = s^2 r_0 of `pt.reflected()`.  None of them reads the specialised
    coordinate, so pt may be the generic or the specialised point."""
    length = _relation_length(pt, i)
    if i == length:
        return pt.s * pt.s * recursion_factor(pt.reflected(), 0)
    if i > 0:
        zi = pt.z[i - 1]
        total = -(a_const(length) / a_const(length - 2))
        total = total * kfun(zi, pt.zeta1) ** 2 * kfun(zi, pt.zeta2) ** 2
        for j, zj in enumerate(pt.z, start=1):
            if j not in (i, i + 1):
                total = total * kfun(zi, zj) ** 4
        return total
    sign = -ONE if (length + 1) % 2 else ONE
    total = sign * (a_const(length) / a_const(length - 1)) * kfun(pt.zeta1, pt.zeta2)
    for zj in pt.z[1:]:
        total = total * kfun(pt.zeta1, zj) ** 2
    return total


def check_recursion(pt: SpectralPoint) -> list[bool]:
    """At each specialisation of `reduction(pt, i)`, i = 0..L, the vector
    is the embedded size-reduced vector times its factor (r_0 at the left
    wall, p in the bulk, r_L at the right wall), so every component off
    the image of the embedding vanishes.  The specialised vector is taken
    in the sum normalization, the global one, because extremal anchors
    vanish at these points; the reduced one in the all-open one."""
    verdicts = []
    for i in range(pt.length + 1):
        specialised, reduced, embed = reduction(pt, i)
        big = solve(specialised, normalization="sum", check_w=False)
        small = solve(reduced, normalization="all_open", check_w=False)
        factor = recursion_factor(specialised, i)
        expected = [ZERO] * len(big.components)
        for word, value in small.as_dict().items():
            expected[index_of(embed(word))] = factor * value
        verdicts.append(list(big.components) == expected)
    return verdicts


# -- vanishing conditions at specialization points ---------------------


def check_vanishing(pt: SpectralPoint) -> list[bool]:
    """Components off the image of the embedding of `reduction(pt, i)`
    vanish at its specialisation, i = 0..L.  At a wall this is also
    checked with that wall's parameter inverted, which T does not see
    (its wall weights depend on zeta only through k(., zeta)): the zeros
    z_1 = q zeta_1^{+-1} and z_L = zeta_2^{+-1} / q.  Normalization
    free: tested on the raw null-space vector."""
    length = pt.length
    mirrored = replace(pt, zeta1=pt.zeta1.inv(), zeta2=pt.zeta2.inv())
    verdicts = []
    for i in range(length + 1):
        ok = True
        for base in (pt, mirrored) if i in (0, length) else (pt,):
            specialised, reduced, embed = reduction(base, i)
            image = {index_of(embed(word)) for word in all_patterns(reduced.length)}
            gs = solve(specialised, normalization="raw", check_w=False)
            ok = ok and all(
                comp.is_zero() for idx, comp in enumerate(gs.components) if idx not in image
            )
        verdicts.append(ok)
    return verdicts


# -- homogeneous point --------------------------------------------------


def _homogeneous_point(length: int, zeta1: Scalar, zeta2: Scalar) -> SpectralPoint:
    """z_i = 1 at the first generic auxiliary parameter of one fixed list."""
    ws = [Scalar.from_rational(Fraction(f)) for f in ("2", "3", "5/2", "7/2", "7/3", "9/4")]
    return _generic_w(SpectralPoint((ONE,) * length, zeta1, zeta2, ONE), ws)


def solve_homogeneous(length: int, zeta1: Scalar, zeta2: Scalar) -> GroundstateVector:
    """Groundstate at z_i = 1, anchored to the all-open closed form.

    The auxiliary parameter is chosen deterministically.  A degenerate
    fixed space or a vanishing all-open anchor raises
    NonGenericPointError, as in `solve`.
    """
    return solve(_homogeneous_point(length, zeta1, zeta2), normalization="all_open")


def check_hamiltonian(length: int, zeta1: Scalar, zeta2: Scalar) -> bool:
    """The one ray of ker H(c_1, c_2), c_i = 3 / (1 + zeta_i^2 + zeta_i^-2),
    by `exactla.kernel_vector`, is fixed by T at the z_i = 1 point of
    `solve_homogeneous`.  A kernel that is not a line raises
    NonGenericPointError, a pole of c_i SingularParameterError."""
    vec = kernel_vector(hamiltonian(length, c_from_zeta(zeta1), c_from_zeta(zeta2)))
    return transfer_apply(vec, _homogeneous_point(length, zeta1, zeta2)) == vec


# -- degree bounds via interpolation ------------------------------------


def interpolate_all(
    var_index: int,
    pt: SpectralPoint,
    rng: random.Random | None = None,
) -> dict[str, LaurentPoly]:
    """Every component as an exact Laurent polynomial in z_{var_index}^2.

    The top degree of any component in each z_i^2 is 2L - 1 and the
    Weyl-orbit structure allows the mirrored negative exponents, so the
    support window is [-(2L-1), 2L-1]: 4L - 1 samples determine the
    polynomial and two more are holdout verification.
    Raises DegreeBoundError if a holdout sample disagrees with a fit,
    i.e. if some true degree exceeds the window.  One solve per sample
    covers all 2^L components at once.
    """
    length = pt.length
    if not 1 <= var_index <= length:
        raise ValueError(f"variable index {var_index} out of range 1..{length}")
    width = 4 * length - 1
    rng = rng if rng is not None else random.Random(23)
    avoid: list[Fraction] = []
    xs: list[Scalar] = []
    cols: list[tuple[Scalar, ...]] = []
    while len(xs) < width + 2:
        (cand,) = generic_parameters(rng, 1, avoid=avoid)
        avoid.append(cand.rational_value())
        try:
            gs = solve(pt.with_z(var_index, cand), normalization="all_open", check_w=False)
        except (NonGenericPointError, SingularParameterError):
            continue
        xs.append(cand * cand)
        cols.append(gs.components)
    out: dict[str, LaurentPoly] = {}
    for idx in range(1 << length):
        values = [c[idx] for c in cols]
        poly = laurent_fit(xs[:width], values[:width], -(2 * length - 1), 2 * length - 1)
        for x, val in zip(xs[width:], values[width:]):
            if poly.eval_at(x) != val:
                raise DegreeBoundError(
                    f"component {word_of(idx, length)} exceeds the degree window "
                    f"in z_{var_index}^2"
                )
        out[word_of(idx, length)] = poly
    return out


# -- partial reconstruction at L = 3 ------------------------------------


@dataclass(frozen=True)
class ReconstructionL3:
    """Components of the L = 3 vector reachable from the extremal ones.

    At the combinatorial point the two chains determine six of the
    eight components and the sum of the remaining two; the pair listed
    in `undetermined` cannot be separated by the chain relations alone.
    """

    point: SpectralPoint
    determined: dict[str, Scalar]
    undetermined: tuple[str, str]
    pair_sum: Scalar
    obstruction_residual: Scalar


def reconstruct_partial_L3(
    psi_open: ComponentEvaluator,
    psi_close: ComponentEvaluator,
    pt: SpectralPoint,
) -> ReconstructionL3:
    """Rebuild L = 3 components from the extremal evaluators.

    Chain one starts at the all-open component: s_3 produces "(()",
    then s_2 minus the start produces "()(", then s_3 again produces
    "())".  Chain two starts at the all-close component and runs the
    mirror path through s_0 and s_1.  The chains overlap on "(()" and
    "())" and must agree there; disagreement raises ConsistencyError
    since it signals a closed-form or convention error.  The components
    ")((" and "))(" stay undetermined: only their sum follows from the
    relations, and the residual of the would-be separating identity
    (s_3 s_2 s_1 - s_1 + 1) applied to "())" is returned so callers can
    confirm it vanishes identically.
    """
    if pt.length != 3:
        raise ValueError("reconstruction chains are specific to L = 3")

    f2 = lambda p: eval_s(3, psi_open, p)
    f3 = lambda p: eval_s(2, f2, p) - psi_open(p)
    f4 = lambda p: eval_s(3, f3, p)
    g4 = lambda p: eval_s(0, psi_close, p)
    g6 = lambda p: eval_s(1, g4, p) - psi_close(p)
    g2 = lambda p: eval_s(0, g6, p)

    v2, v2b = f2(pt), g2(pt)
    v4, v4b = f4(pt), g4(pt)
    if v2 != v2b or v4 != v4b:
        raise ConsistencyError("the two reconstruction chains disagree")

    pair_sum = eval_s(1, f3, pt) - psi_open(pt) - v2
    s1f4 = lambda p: eval_s(1, f4, p)
    s21 = lambda p: eval_s(2, s1f4, p)
    residual = eval_s(3, s21, pt) - s1f4(pt) + f4(pt)

    determined = {
        "(((": psi_open(pt),
        "(()": v2,
        "()(": f3(pt),
        "())": v4,
        ")()": g6(pt),
        ")))": psi_close(pt),
    }
    return ReconstructionL3(
        point=pt,
        determined=determined,
        undetermined=(")((", "))("),
        pair_sum=pair_sum,
        obstruction_residual=residual,
    )
