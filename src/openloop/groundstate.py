"""Exact groundstate of the double-row transfer matrix.

The transfer matrix at a generic spectral point fixes a unique ray;
`solve` computes it by exact null-space elimination and pins the scale
to closed-form anchor components so that different points share one
global polynomial normalization.  On top of the solver this module
carries the full identity apparatus: the extremal closed forms, the
component sum rule, the exchange and reflection equations satisfied by
the eigenvector, the size-lowering recursions with their explicit
proportionality factors, degree bounds via exact interpolation, the
vanishing conditions at specialization points, the homogeneous-point
Hamiltonian annihilation, and the partial reconstruction of the L = 3
vector from its extremal components.

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
    ConventionError,
    DegreeBoundError,
    NonGenericPointError,
    SingularParameterError,
)
from .exactfield import ONE, Q, Scalar, ZERO, bracket, kfun
from .exactla import LaurentPoly, kernel_basis, laurent_fit
from .linkpat import (
    closure,
    c_from_zeta,
    hamiltonian,
    index_of,
    insert_left,
    insert_link,
    insert_right,
    word_of,
)
from .transfer import SpectralPoint, assert_generic, transfer_apply, transfer_matrix

__all__ = [
    "SOLVE_CAP",
    "ComponentEvaluator",
    "GroundstateVector",
    "ReconstructionL3",
    "a_const",
    "bulk_recursion_factor",
    "check_boundary_recursion",
    "check_bulk_recursion",
    "check_hamiltonian",
    "check_qkz_boundary",
    "check_qkz_exchange",
    "check_sum_rule",
    "check_vanishing_bulk",
    "check_vanishing_left",
    "check_vanishing_right",
    "closed_form_all_close",
    "closed_form_all_open",
    "eval_a",
    "eval_s",
    "generic_parameters",
    "interpolate_all",
    "left_recursion_factor",
    "pi_point",
    "reconstruct_partial_L3",
    "right_recursion_factor",
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
    the matching closed form) or "raw" (null-space scale as computed).
    """

    point: SpectralPoint
    normalization: str
    components: tuple[Scalar, ...]

    def __getitem__(self, key: int | str) -> Scalar:
        if isinstance(key, str):
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
    """Component of the pattern with every site closing to the left.

    Product of k(1/(s z_i), s z_j) over 1 <= i < j <= L+1 with
    z_{L+1} = zeta_2, times A_L (s^2)^L
    chi_{lambda(L+1)}(s^2 zeta_1^2, s^2 z^2) chi_{lambda(L)}(s^2 z^2).
    The value is independent of which fourth root of unity s is.
    """
    length = pt.length
    s = pt.s
    s2 = s * s
    zs = [s * x for x in pt.z] + [s * pt.zeta2]
    total = a_const(length) * s2**length
    for i in range(length + 1):
        for j in range(i + 1, length + 1):
            total = total * kfun(zs[i].inv(), zs[j])
    sq = [s2 * x * x for x in pt.z]
    total = total * character_auto(
        lambda_partition(length + 1), [s2 * pt.zeta1 * pt.zeta1] + sq
    )
    total = total * character_auto(lambda_partition(length), sq)
    return total


def _second_w(pt: SpectralPoint) -> Scalar:
    for delta in (2, 3, 5, 7, 11):
        cand = pt.w + Scalar.from_rational(Fraction(delta))
        if cand.is_zero() or cand == ONE or cand == -ONE or cand == pt.w:
            continue
        trial = pt.with_w(cand)
        try:
            assert_generic(trial)
        except SingularParameterError:
            continue
        return cand
    raise NonGenericPointError("no generic second auxiliary parameter found")


def _anchor_target(pt: SpectralPoint, name: str, vec: Sequence[Scalar]):
    if name == "all_open":
        return closed_form_all_open(pt), vec[0]
    if name == "all_close":
        return closed_form_all_close(pt), vec[-1]
    if name == "sum":
        total = ZERO
        for x in vec:
            total = total + x
        return z_product(pt), total
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
    cap: int = SOLVE_CAP,
) -> GroundstateVector:
    """Exact fixed vector of T(pt).

    Computes the null space of T - Id by fraction-free elimination and
    requires it to be exactly one-dimensional; with check_w the vector
    is re-verified against T at an independently shifted auxiliary
    parameter, which must fix it too.  The scale is then pinned to the
    first available closed-form anchor (all_open, then all_close, then
    the component sum), falling back to the raw elimination scale when
    every anchor vanishes; an explicitly requested anchor that vanishes
    raises NonGenericPointError instead.
    """
    if pt.length > cap:
        raise ValueError(f"refusing exact solve beyond L = {cap}; raise cap explicitly")
    tmat = transfer_matrix(pt)
    rows = tmat.to_rows()
    for i in range(tmat.dim):
        rows[i][i] = rows[i][i] - ONE
    basis = kernel_basis(rows, tmat.dim)
    if len(basis) != 1:
        raise NonGenericPointError(
            f"fixed space of the transfer matrix has dimension {len(basis)}, expected 1"
        )
    vec = basis[0]
    if check_w:
        if transfer_apply(vec, pt.with_w(_second_w(pt))) != vec:
            raise ConventionError(
                "fixed vector is not independent of the auxiliary parameter"
            )
    name, comps = _normalize(pt, vec, normalization)
    return GroundstateVector(pt, name, comps)


def check_sum_rule(pt: SpectralPoint) -> bool:
    """Sum of components equals the four-character product, exactly."""
    gs = solve(pt, normalization="all_open", check_w=False)
    return sum_components(gs) == z_product(pt)


# -- qKZ operators on component evaluators -----------------------------


def pi_point(pt: SpectralPoint, i: int) -> SpectralPoint:
    """Argument transformation of the i-th coefficient-side operator:
    swap z_i, z_{i+1} in the bulk; z_1 -> 1/z_1 at the left wall;
    z_L -> 1/(s^2 z_L) at the right wall."""
    length = pt.length
    if i == 0:
        return pt.with_z(1, pt.z[0].inv())
    if i == length:
        s2 = pt.s * pt.s
        return pt.with_z(length, (s2 * pt.z[-1]).inv())
    if 1 <= i <= length - 1:
        return pt.swapped(i)
    raise ValueError(f"operator index {i} out of range 0..{length}")


def _qkz_multiplier(pt: SpectralPoint, i: int) -> Scalar:
    length = pt.length
    if i == 0:
        den = bracket(Q) * bracket(pt.z[0] * pt.z[0])
        if den.is_zero():
            raise SingularParameterError("multiplier pole: z_1^4 = 1")
        return kfun(pt.z[0].inv(), pt.zeta1) / den
    if i == length:
        s = pt.s
        den = bracket(Q) * bracket(s * s * pt.z[-1] * pt.z[-1])
        if den.is_zero():
            raise SingularParameterError("multiplier pole: (s z_L)^4 = 1")
        return -(kfun(s * pt.z[-1], s * pt.zeta2)) / den
    zi, zj = pt.z[i - 1], pt.z[i]
    den = bracket(zi / zj)
    if den.is_zero():
        raise SingularParameterError("multiplier pole: z_i = +-z_{i+1}")
    return bracket(zi / (Q * zj)) / den


def eval_a(i: int, f: ComponentEvaluator, pt: SpectralPoint) -> Scalar:
    """(a_i f)(pt) = g(pi_i pt) f(pi_i pt) + g(pt) f(pt)."""
    moved = pi_point(pt, i)
    return _qkz_multiplier(moved, i) * f(moved) + _qkz_multiplier(pt, i) * f(pt)


def eval_s(i: int, f: ComponentEvaluator, pt: SpectralPoint) -> Scalar:
    """(s_i f)(pt) with s_i = -1 - a_i."""
    return -f(pt) - eval_a(i, f, pt)


def check_qkz_exchange(pt: SpectralPoint, i: int) -> bool:
    """Exchange relation: the Baxterised crossing operator applied to
    the eigenvector equals the eigenvector at swapped z_i, z_{i+1}."""
    from .baxter import rcheck

    if not 1 <= i <= pt.length - 1:
        raise ValueError(f"exchange index {i} out of range 1..{pt.length - 1}")
    lhs = rcheck(i, pt.z[i - 1] / pt.z[i], pt.length).apply(
        list(solve(pt, check_w=False).components)
    )
    rhs = solve(pt.swapped(i), check_w=False)
    return lhs == list(rhs.components)


def check_qkz_boundary(pt: SpectralPoint) -> bool:
    """Both wall relations: K_0 at 1/z_1 sends the eigenvector to its
    value at z_1 -> 1/z_1, and K_L at s z_L to the value at
    z_L -> 1/(s^2 z_L)."""
    from .baxter import kcheck0, kcheckL

    length = pt.length
    base = list(solve(pt, check_w=False).components)
    lhs0 = kcheck0(pt.z[0].inv(), pt.zeta1, length).apply(base)
    rhs0 = solve(pi_point(pt, 0), check_w=False)
    if lhs0 != list(rhs0.components):
        return False
    s = pt.s
    lhsL = kcheckL(s * pt.z[-1], s * pt.zeta2, length).apply(base)
    rhsL = solve(pi_point(pt, length), check_w=False)
    return lhsL == list(rhsL.components)


# -- size-lowering recursions ------------------------------------------


def bulk_recursion_factor(pt: SpectralPoint, i: int) -> Scalar:
    """Factor p relating the vector at z_{i+1} = q z_i to size L - 2:
    -(A_L/A_{L-2}) k(z_i,zeta_1)^2 k(z_i,zeta_2)^2 prod_{j != i,i+1}
    k(z_i,z_j)^4.  The same function of the surviving parameters for
    every i."""
    length = pt.length
    if not 1 <= i <= length - 1:
        raise ValueError(f"bulk index {i} out of range 1..{length - 1}")
    zi = pt.z[i - 1]
    total = -(a_const(length) / a_const(length - 2))
    total = total * kfun(zi, pt.zeta1) ** 2 * kfun(zi, pt.zeta2) ** 2
    for j, zj in enumerate(pt.z, start=1):
        if j not in (i, i + 1):
            total = total * kfun(zi, zj) ** 4
    return total


def left_recursion_factor(pt: SpectralPoint) -> Scalar:
    """Factor r_0 at z_1 = q zeta_1:
    (-1)^{L+1} (A_L/A_{L-1}) k(zeta_1,zeta_2) prod_{i>=2} k(zeta_1,z_i)^2."""
    length = pt.length
    sign = -ONE if (length + 1) % 2 else ONE
    total = sign * (a_const(length) / a_const(length - 1)) * kfun(pt.zeta1, pt.zeta2)
    for zj in pt.z[1:]:
        total = total * kfun(pt.zeta1, zj) ** 2
    return total


def right_recursion_factor(pt: SpectralPoint) -> Scalar:
    """Factor r_L at z_L = zeta_2 / q:
    (-1)^{L+1} s^2 (A_L/A_{L-1}) k(1/(s zeta_2), s zeta_1)
    prod_{i<=L-1} k(1/(s zeta_2), s z_i)^2.  s-independent."""
    length = pt.length
    s = pt.s
    sign = -ONE if (length + 1) % 2 else ONE
    total = sign * s * s * (a_const(length) / a_const(length - 1))
    total = total * kfun((s * pt.zeta2).inv(), s * pt.zeta1)
    for zj in pt.z[:-1]:
        total = total * kfun((s * pt.zeta2).inv(), s * zj) ** 2
    return total


def _has_link(word: str, i: int) -> bool:
    return (i, i + 1) in closure(word).pairs


def check_bulk_recursion(pt: SpectralPoint, i: int) -> bool:
    """At z_{i+1} = q z_i the vector collapses onto patterns with a
    small link at (i, i+1): the embedded components reproduce the
    size L - 2 vector times the factor p, and all others vanish."""
    length = pt.length
    if pt.z[i] != Q * pt.z[i - 1]:
        raise ValueError("bulk recursion needs z_{i+1} = q z_i")
    big = solve(pt, normalization="sum", check_w=False)
    small = solve(pt.without_sites((i, i + 1)), normalization="all_open", check_w=False)
    factor = bulk_recursion_factor(pt, i)
    for idx, value in enumerate(small.components):
        if big[insert_link(i, word_of(idx, length - 2))] != factor * value:
            return False
    for idx in range(1 << length):
        word = word_of(idx, length)
        if not _has_link(word, i) and not big.components[idx].is_zero():
            return False
    return True


def check_boundary_recursion(pt: SpectralPoint, side: str) -> bool:
    """Left: at z_1 = q zeta_1 the vector collapses onto patterns whose
    first site closes to the wall, reproducing the size L - 1 vector at
    boundary parameter q zeta_1 times r_0.  Right: mirrored at
    z_L = zeta_2 / q with parameter zeta_2 / q and factor r_L."""
    length = pt.length
    if side == "left":
        if pt.z[0] != Q * pt.zeta1:
            raise ValueError("left boundary recursion needs z_1 = q zeta_1")
        big = solve(pt, normalization="all_close", check_w=False)
        reduced = replace(pt.without_sites((1,)), zeta1=Q * pt.zeta1)
        factor = left_recursion_factor(pt)
        embed = insert_left
        survives = lambda word: word[0] == ")"
    elif side == "right":
        if pt.z[-1] != pt.zeta2 / Q:
            raise ValueError("right boundary recursion needs z_L = zeta_2 / q")
        big = solve(pt, normalization="all_open", check_w=False)
        reduced = replace(pt.without_sites((length,)), zeta2=pt.zeta2 / Q)
        factor = right_recursion_factor(pt)
        embed = insert_right
        survives = lambda word: word[-1] == "("
    else:
        raise ValueError("side must be 'left' or 'right'")
    small = solve(reduced, normalization="all_open", check_w=False)
    for idx, value in enumerate(small.components):
        if big[embed(word_of(idx, length - 1))] != factor * value:
            return False
    for idx in range(1 << length):
        word = word_of(idx, length)
        if not survives(word) and not big.components[idx].is_zero():
            return False
    return True


# -- vanishing conditions at specialization points ---------------------


def check_vanishing_left(pt: SpectralPoint) -> bool:
    """Components whose first site does not close to the left wall
    vanish at z_1 = q zeta_1 and at z_1 = q / zeta_1.  Normalization
    free: tested on the raw null-space vector."""
    length = pt.length
    for value in (Q * pt.zeta1, Q / pt.zeta1):
        gs = solve(pt.with_z(1, value), normalization="raw", check_w=False)
        for idx, comp in enumerate(gs.components):
            site_open = 1 not in closure(word_of(idx, length)).left
            if site_open and not comp.is_zero():
                return False
    return True


def check_vanishing_right(pt: SpectralPoint) -> bool:
    """Components whose last site does not open to the right wall
    vanish at z_L = zeta_2 / q and at z_L = 1/(q s^2 zeta_2)."""
    length = pt.length
    s2 = pt.s * pt.s
    for value in (pt.zeta2 / Q, (Q * s2 * pt.zeta2).inv()):
        gs = solve(pt.with_z(length, value), normalization="raw", check_w=False)
        for idx, comp in enumerate(gs.components):
            site_open = length not in closure(word_of(idx, length)).right
            if site_open and not comp.is_zero():
                return False
    return True


def check_vanishing_bulk(pt: SpectralPoint, i: int) -> bool:
    """Components without a small link at (i, i+1) vanish at
    z_{i+1} = q z_i."""
    length = pt.length
    gs = solve(pt.with_z(i + 1, Q * pt.z[i - 1]), normalization="raw", check_w=False)
    for idx, comp in enumerate(gs.components):
        if not _has_link(word_of(idx, length), i) and not comp.is_zero():
            return False
    return True


# -- homogeneous point --------------------------------------------------


def _generic_w(build) -> SpectralPoint:
    for num, den in ((2, 1), (3, 1), (5, 2), (7, 2), (7, 3), (9, 4)):
        cand = Scalar.from_rational(Fraction(num, den))
        pt = build(cand)
        try:
            assert_generic(pt)
        except SingularParameterError:
            continue
        return pt
    raise NonGenericPointError("no generic auxiliary parameter found")


def solve_homogeneous(length: int, zeta1: Scalar, zeta2: Scalar) -> GroundstateVector:
    """Groundstate at z_i = 1, anchored to the all-open closed form.

    The auxiliary parameter is chosen deterministically.  A degenerate
    fixed space or a vanishing all-open anchor raises
    NonGenericPointError, as in `solve`.
    """
    pt = _generic_w(lambda w: SpectralPoint((ONE,) * length, zeta1, zeta2, w))
    return solve(pt, normalization="all_open")


def check_hamiltonian(length: int, zeta1: Scalar, zeta2: Scalar) -> bool:
    """H(c_1, c_2) annihilates the groundstate at z_i = 1, with
    c_i = 3 / (1 + zeta_i^2 + zeta_i^{-2})."""
    gs = solve_homogeneous(length, zeta1, zeta2)
    ham = hamiltonian(length, c_from_zeta(zeta1), c_from_zeta(zeta2))
    return all(x.is_zero() for x in ham.apply(list(gs.components)))


# -- degree bounds via interpolation ------------------------------------


def interpolate_all(
    var_index: int,
    pt: SpectralPoint,
    sample_count: int | None = None,
    rng: random.Random | None = None,
) -> dict[str, LaurentPoly]:
    """Every component as an exact Laurent polynomial in z_{var_index}^2.

    The top degree of any component in each z_i^2 is 2L - 1 and the
    Weyl-orbit structure allows the mirrored negative exponents, so the
    support window is [-(2L-1), 2L-1]: 4L - 1 samples determine the
    polynomial and every further sample is holdout verification.
    Raises DegreeBoundError if a holdout sample disagrees with a fit,
    i.e. if some true degree exceeds the window.  One solve per sample
    covers all 2^L components at once.
    """
    length = pt.length
    if not 1 <= var_index <= length:
        raise ValueError(f"variable index {var_index} out of range 1..{length}")
    width = 4 * length - 1
    if sample_count is None:
        sample_count = width + 2
    if sample_count < width:
        raise ValueError(f"need at least {width} samples for the degree window")
    rng = rng if rng is not None else random.Random(23)
    avoid: list[Fraction] = []
    xs: list[Scalar] = []
    cols: list[tuple[Scalar, ...]] = []
    while len(xs) < sample_count:
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
