"""Exact groundstate of the double-row transfer matrix.

The transfer matrix at a generic spectral point fixes a unique ray;
`solve` computes it as the kernel of the operator T - 1 by p-adic
lifting (`exactla.kernel_vector`), certified by an exact
(T - 1) v == 0.  Its scale is pinned to a closed-form anchor component
(or the component sum) so that different points share one global
polynomial normalization: `solve` only picks the anchor, and the
lifting reads the vector anchored to it directly, over a denominator
predicted from the point (`_denominator_hint`).
On top of the solver this module carries the full identity apparatus:
the extremal closed forms, the component sum rule, the exchange and
reflection equations satisfied by the eigenvector, the size-lowering
recursions with their explicit proportionality factors, degree bounds
via exact interpolation, the vanishing conditions at specialization
points, the homogeneous-point Hamiltonian (its kernel, by the same
lifting, is the ray T fixes), and the components that one qKZ
propagation rule fixes from the two extremal closed forms at any L
(`qkz_components`, with `reconstruct_partial_L3` as its L = 3 view).

The per-index identities follow the convention of `transfer`: index
i = 0 is the left wall, 1..L-1 the bulk, L the right wall, and the
index-i data comes from its tables `pi_point`, `exchange_operator` and
`reduction`, with the recursion factors r_0, p and r_L in the one table
`recursion_factor`.  `check_qkz`, `check_recursion` and
`check_vanishing` each return one verdict per index i = 0..L.

Sign bookkeeping follows the anchor constant A_0 = 1, A_L = (-1)^L
A_{L-1}, so A_L = (-1)^{L(L+1)/2}.  With this choice the component sum
equals the four-character product of `chars.z_product` with no stray
sign, exchange relations hold as exact equalities rather than
projective statements, and the recursion factors carry fixed signs
(A_L/A_{L-2} = -1 and A_L/A_{L-1} = (-1)^L at every L).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator

from .chars import s_character, z_product
from .errors import (
    ConsistencyError,
    DegreeBoundError,
    NonGenericPointError,
    SingularParameterError,
)
from .exactfield import ONE, Scalar, ZERO, cleared, kfun
from .exactla import LaurentPoly, anchor_entry, kernel_vector, laurent_fit
from .linkpat import (
    SparseOperator, all_patterns, apply_e, c_from_zeta, hamiltonian, index_of, word_of
)
from .transfer import (
    SpectralPoint,
    _relation_length,
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
    "eval_s",
    "generic_parameters",
    "interpolate_all",
    "qkz_components",
    "reconstruct_partial_L3",
    "recursion_factor",
    "solve",
    "solve_homogeneous",
    "sum_components",
]

SOLVE_CAP = 9

# Forward references: typing caches every subscripted Callable, and a
# cached alias that held the classes would keep this module, and every
# module their functions reach, alive after the package is unloaded.
ComponentEvaluator = Callable[["SpectralPoint"], "Scalar"]


@dataclass(frozen=True)
class GroundstateVector:
    """Fixed vector of T at one point, with the normalization used.

    normalization is one of "all_open", "all_close" (the extremal
    component equals its closed form), "sum" (the component sum equals
    `chars.z_product`) or "raw" (last nonzero component 1).
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
    beyond 99 NonGenericPointError is raised.  These are the first count
    values of `_draws`.
    """
    return [Scalar.from_rational(f) for f in islice(_draws(rng, avoid), count)]


def _draws(rng: random.Random, avoid: Iterable[Fraction] = ()) -> Iterator[Fraction]:
    """The values of `generic_parameters`, one at a time: each draw
    excludes itself, its negative and their inverses from every later
    one, so a caller that needs one value at a time draws from one
    stream and carries no list of its own."""
    excluded = {Fraction(0), Fraction(1), Fraction(-1)}

    def take(g: Fraction) -> None:
        excluded.update((g, -g, 1 / g, -1 / g))

    for g in avoid:
        take(Fraction(g))
    bound = 9
    while True:
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
        yield f


def a_const(length: int) -> Scalar:
    """Anchor constant A_L = (-1)^{L(L+1)/2}; A_0 = 1, A_L = (-1)^L A_{L-1}."""
    return -ONE if (length * (length + 1) // 2) % 2 else ONE


def closed_form_all_open(pt: SpectralPoint) -> Scalar:
    """Component of the pattern with every site opening to the right.

    Product of k(z_j, z_i) over 0 <= i < j <= L with z_0 = zeta_1,
    times A_L S_{L+1}(z, zeta_2) S_L(z), two of the four staircase
    characters of `chars.z_product` (S_n of `chars.s_character`).
    """
    length = pt.length
    zs = (pt.zeta1,) + pt.z
    total = a_const(length)
    for i in range(length + 1):
        for j in range(i + 1, length + 1):
            total = total * kfun(zs[j], zs[i])
    return total * s_character(pt.z + (pt.zeta2,)) * s_character(pt.z)


def closed_form_all_close(pt: SpectralPoint) -> Scalar:
    """Component of the pattern with every site closing to the left:
    (s^2)^L times the all-open closed form of the reflected strip,
    whatever fourth root of unity s is."""
    return (pt.s * pt.s) ** pt.length * closed_form_all_open(pt.reflected())


def _at_generic_w(pt: SpectralPoint, candidates: Iterable[Scalar], run: Callable):
    """run(pt moved to w) at the first candidate w, other than 0 and +-1,
    at which no tile weight has a pole: the SingularParameterError that run
    raises at a pole moves on to the next candidate."""
    for cand in candidates:
        if cand.is_zero() or cand == ONE or cand == -ONE:
            continue
        try:
            return run(pt.with_w(cand))
        except SingularParameterError:
            continue
    raise NonGenericPointError("no generic auxiliary parameter found")


def _z_window(length: int) -> int:
    """The top exponent 2L - 1 of the window [-(2L - 1), 2L - 1] that holds
    every component, as a Laurent polynomial in each z_i^2: `interpolate_all`
    fits that window, so the degree suite checks it, and `solve` reads its
    denominator hint off it."""
    return 2 * length - 1


def _denominator_hint(pt: SpectralPoint) -> int:
    """A multiple of the common denominator of the vector anchored to any
    closed form of `solve`, at any point of Q(zeta).

    In that one polynomial normalisation every component is a Laurent
    polynomial in each z_i^2 with exponents in the `_z_window`, and in
    each zeta^2 in [-L, L] (measured at L = 1..5, not derived), with
    integral coefficients.  So for each parameter x with window top,
    (den(x) den(1/x))^(2 top) clears x^(2e), |e| <= top, den(x) the
    denominator of x; at x = a/b that is |a b|^(2 top).  w does not enter
    the vector.  A hint that falls short costs the lifting steps of
    Wang's reconstruction (`exactla._lift`), never a wrong vector.
    """
    tops = (_z_window(pt.length),) * pt.length + (pt.length, pt.length)
    hint = 1
    for x, top in zip(pt.z + (pt.zeta1, pt.zeta2), tops):
        hint *= (cleared([x])[1] * cleared([x.inv()])[1]) ** (2 * top)
    return hint


# The closed form that each anchor of `solve` evaluates, and the chain of
# anchors that each normalization tries in turn.
_CLOSED_FORMS = {
    "all_open": closed_form_all_open,
    "all_close": closed_form_all_close,
    "sum": z_product,
}
_CHAINS = {name: (name,) for name in _CLOSED_FORMS}
_CHAINS.update(auto=tuple(_CLOSED_FORMS), raw=())


def solve(
    pt: SpectralPoint,
    normalization: str = "auto",
    check_w: bool = True,
) -> GroundstateVector:
    """Exact fixed vector of T(pt).

    The fixed vector is the kernel of T(pt) - 1, lifted p-adically and
    certified exactly by `exactla.kernel_vector`; a fixed space that is
    not one ray raises NonGenericPointError, whose message gives the
    dimension of the kernel.

    The scale is picked before T is built: the first closed form of the
    normalization's chain that does not vanish (auto tries all_open,
    entry 0; all_close, entry n - 1; sum, the component sum, whose closed
    form is `chars.z_product`), handed to the lifting with the denominator
    that `_denominator_hint` predicts; the lifting raises ConsistencyError
    where that entry of the kernel vector vanishes.  A named normalization
    whose closed form vanishes raises NonGenericPointError, and an unknown
    one ValueError, both before T is built.  raw, and auto where every
    closed form vanishes, keep the lifting's scale (last nonzero
    component 1).  A form that auto skips because it vanishes must have a
    vanishing component too, or ConsistencyError is raised.

    With check_w the vector is re-verified against T at an independently
    shifted auxiliary parameter, which must fix it too, or
    ConsistencyError is raised.
    """
    if pt.length > SOLVE_CAP:
        raise ValueError(
            f"L must be at most {SOLVE_CAP} (SOLVE_CAP) for an exact solve, got L = {pt.length}"
        )
    if normalization not in _CHAINS:
        raise ValueError(f"unknown normalization {normalization!r}")
    size = 1 << pt.length
    chosen, anchor, skipped = "raw", None, []  # skipped: (name, pinned entry)
    for name in _CHAINS[normalization]:
        index = {"all_open": 0, "all_close": size - 1}.get(name)
        value = _CLOSED_FORMS[name](pt)
        if not value.is_zero():
            chosen, anchor = name, (index, value, _denominator_hint(pt))
            break
        skipped.append((name, index))
    if skipped and normalization != "auto":
        raise NonGenericPointError(f"{normalization} anchor vanishes at this point")
    op = transfer_matrix(pt) - SparseOperator.identity(size)
    vec = kernel_vector(op, anchor)
    if check_w:
        shifted = [pt.w + Scalar.from_rational(d) for d in (2, 3, 5, 7, 11)]
        if _at_generic_w(pt, shifted, partial(transfer_apply, vec)) != vec:
            raise ConsistencyError(
                "fixed vector is not independent of the auxiliary parameter"
            )
    for name, index in skipped:
        if not anchor_entry(vec, index).is_zero():
            raise ConsistencyError(
                f"{name} anchor contradicts the solved vector: closed form "
                "vanishes but the component does not"
            )
    return GroundstateVector(pt, chosen, tuple(vec))


def check_sum_rule(pt: SpectralPoint) -> bool:
    """Sum of components equals the four-character product, exactly."""
    gs = solve(pt, normalization="all_open", check_w=False)
    return sum_components(gs) == z_product(pt)


# -- qKZ operators on component evaluators -----------------------------


def eval_s(i: int, f: ComponentEvaluator, pt: SpectralPoint) -> Scalar:
    """(s_i f)(pt) with s_i = -1 - a_i, where (a_i f)(pt) =
    g(pi_i pt) f(pi_i pt) + g(pt) f(pt) and g = -A/B for the (A, B, D) of
    `exchange_coefficients`.  f is read once at each of the two points."""
    a_f = ZERO
    for p in (pi_point(pt, i), pt):
        a, b, _ = exchange_coefficients(p, i)
        if b.is_zero():
            raise SingularParameterError(f"multiplier pole at i = {i}: B = 0")
        value = f(p)
        a_f = a_f + (-a / b) * value
    return -value - a_f


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
    coordinate, so pt may be the generic or the specialised point.
    A_L/A_{L-2} = -1 and A_L/A_{L-1} = (-1)^L, so p has sign +1 and r_0
    sign -1 at every L."""
    length = _relation_length(pt, i)
    if i == length:
        return pt.s * pt.s * recursion_factor(pt.reflected(), 0)
    if i > 0:
        zi = pt.z[i - 1]
        total = kfun(zi, pt.zeta1) ** 2 * kfun(zi, pt.zeta2) ** 2
        for j, zj in enumerate(pt.z, start=1):
            if j not in (i, i + 1):
                total = total * kfun(zi, zj) ** 4
        return total
    total = -kfun(pt.zeta1, pt.zeta2)
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
        specialised, reduced, image = reduction(pt, i)
        big = solve(specialised, normalization="sum", check_w=False)
        small = solve(reduced, normalization="all_open", check_w=False)
        factor = recursion_factor(specialised, i)
        expected = [ZERO] * len(big.components)
        for j, value in zip(image, small.components):
            expected[j] = factor * value
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
            specialised, _, image = reduction(base, i)
            gs = solve(specialised, normalization="raw", check_w=False)
            ok = ok and all(x.is_zero() for idx, x in enumerate(gs.components) if idx not in image)
        verdicts.append(ok)
    return verdicts


# -- homogeneous point --------------------------------------------------


# The auxiliary parameters tried in turn at the homogeneous point z_i = 1.
_HOMOGENEOUS_WS = [Scalar.from_rational(Fraction(f)) for f in "2 3 5/2 7/2 7/3 9/4".split()]


def _homogeneous_point(length: int, zeta1: Scalar, zeta2: Scalar) -> SpectralPoint:
    """The point z_i = 1, before its auxiliary parameter is chosen."""
    return SpectralPoint((ONE,) * length, zeta1, zeta2, ONE)


def solve_homogeneous(length: int, zeta1: Scalar, zeta2: Scalar) -> GroundstateVector:
    """Groundstate at z_i = 1, anchored to the all-open closed form.

    The auxiliary parameter is the first of one fixed list at which T
    has no pole.  A degenerate fixed space or a vanishing all-open anchor
    raises NonGenericPointError, as in `solve`.
    """
    pt = _homogeneous_point(length, zeta1, zeta2)
    return _at_generic_w(pt, _HOMOGENEOUS_WS, partial(solve, normalization="all_open"))


def check_hamiltonian(length: int, zeta1: Scalar, zeta2: Scalar) -> bool:
    """The one ray of ker H(c_1, c_2), c_i = 3 / (1 + zeta_i^2 + zeta_i^-2),
    by `exactla.kernel_vector`, is fixed by T at the z_i = 1 point of
    `solve_homogeneous`.  A kernel that is not a line raises
    NonGenericPointError, a pole of c_i SingularParameterError."""
    ham = hamiltonian(length, c_from_zeta(zeta1), c_from_zeta(zeta2))
    vec = kernel_vector(ham)
    pt = _homogeneous_point(length, zeta1, zeta2)
    return _at_generic_w(pt, _HOMOGENEOUS_WS, partial(transfer_apply, vec)) == vec


# -- degree bounds via interpolation ------------------------------------


def interpolate_all(
    var_index: int,
    pt: SpectralPoint,
    rng: random.Random | None = None,
) -> dict[str, LaurentPoly]:
    """Every component as an exact Laurent polynomial in z_{var_index}^2.

    The top degree of any component in each z_i^2 is 2L - 1 and the
    Weyl-orbit structure allows the mirrored negative exponents, so the
    support window is [-(2L-1), 2L-1] (`_z_window`): 4L - 1 samples
    determine the polynomial and two more are holdout verification.
    Raises DegreeBoundError if a holdout sample disagrees with a fit,
    i.e. if some true degree exceeds the window.  One solve per sample
    covers all 2^L components at once, one `laurent_fit` call fits them
    all through one interpolation map, and each holdout's powers across
    the window are computed once for every component.
    """
    length = pt.length
    if not 1 <= var_index <= length:
        raise ValueError(f"variable index {var_index} out of range 1..{length}")
    top = _z_window(length)
    width = 2 * top + 1
    rng = rng if rng is not None else random.Random(23)
    draws = _draws(rng)
    xs: list[Scalar] = []
    cols: list[tuple[Scalar, ...]] = []
    while len(xs) < width + 2:
        cand = Scalar.from_rational(next(draws))
        try:
            gs = solve(pt.with_z(var_index, cand), normalization="all_open", check_w=False)
        except (NonGenericPointError, SingularParameterError):
            continue
        xs.append(cand * cand)
        cols.append(gs.components)
    polys = laurent_fit(xs[:width], list(zip(*cols[:width])), -top, top)
    holdouts = []
    for x in xs[width:]:
        powers = {-top: x ** (-top)}
        for e in range(1 - top, top + 1):
            powers[e] = powers[e - 1] * x
        holdouts.append(powers)
    for idx, poly in enumerate(polys):
        for powers, comps in zip(holdouts, cols[width:]):
            if poly.eval_powers(powers) != comps[idx]:
                raise DegreeBoundError(
                    f"component {word_of(idx, length)} exceeds the degree window "
                    f"in z_{var_index}^2"
                )
    return {word_of(idx, length): poly for idx, poly in enumerate(polys)}


# -- components from the qKZ relations ---------------------------------


def qkz_components(
    psi_open: ComponentEvaluator, psi_close: ComponentEvaluator, length: int
) -> tuple[dict[str, ComponentEvaluator], list[tuple[tuple[str, ...], ComponentEvaluator]]]:
    """The components that the qKZ relations fix from the extremal ones.

    For each pattern a with e_i a = a, i = 0..L (the index convention of
    `exchange_coefficients`), s_i psi_a = sum of psi_b over b != a with
    e_i b = a.  A relation whose a is known and that has exactly one
    unknown b fixes psi_b as s_i psi_a minus the known psi_b, starting
    from the all-open and all-close components, until no relation fixes
    anything new.  Returns the fixed components' evaluators, each with its
    own cache of values per point (the two extremal ones included), and for
    each relation with a known a its unknown b's (none, or two or more)
    with the evaluator of its remainder s_i psi_a - sum of known psi_b.
    """
    words = list(all_patterns(length))
    relations = []
    for i in range(length + 1):
        image = {b: apply_e(i, b) for b in words}
        relations += [(i, a, [b for b in words if b != a and image[b] == a])
                      for a in words if image[a] == a]
    memo = lru_cache(maxsize=None)
    known = {words[0]: memo(psi_open), words[-1]: memo(psi_close)}

    def remainder(i: int, a: str, bs: list[str]) -> ComponentEvaluator:
        f, terms = known[a], [known[b] for b in bs if b in known]
        return memo(lambda p: eval_s(i, f, p) - sum((g(p) for g in terms), ZERO))

    unknown = lambda bs: tuple(b for b in bs if b not in known)
    # Fix in rounds, every relation ready at a round's start at once, so each
    # component comes by a shortest chain: each level doubles the points.
    while ready := {unknown(bs)[0]: remainder(i, a, bs) for i, a, bs in relations
                    if a in known and len(unknown(bs)) == 1}:
        known.update(ready)
    return known, [(unknown(bs), remainder(i, a, bs)) for i, a, bs in relations if a in known]


@dataclass(frozen=True)
class ReconstructionL3:
    """The L = 3 view of `qkz_components` at one point: six components
    are fixed, and of the pair in `undetermined` only the sum."""

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
    """Rebuild L = 3 components from the extremal evaluators by
    `qkz_components`, with the fixed ones at pt in `all_patterns` order.

    A relation with no unknown left must vanish at pt and relations on one
    unknown pair must agree there, or ConsistencyError is raised: either
    signals a closed-form or convention error.  The residual of the
    would-be separating identity (s_3 s_2 s_1 - s_1 + 1) on "())", which
    no relation produces, is returned so callers can confirm it vanishes.
    """
    if pt.length != 3:
        raise ValueError("the reconstruction view is specific to L = 3")
    known, relations = qkz_components(psi_open, psi_close, 3)
    sums = {(): ZERO}
    for unknown, rem in relations:
        if sums.setdefault(unknown, rem(pt)) != rem(pt):
            raise ConsistencyError(f"qKZ relation remainders disagree on unknowns {unknown}")
    del sums[()]
    ((pair, pair_sum),) = sums.items()
    psi = known["())"]
    s1 = lambda p: eval_s(1, psi, p)
    residual = eval_s(3, lambda p: eval_s(2, s1, p), pt) - s1(pt) + psi(pt)
    determined = {w: known[w](pt) for w in all_patterns(3) if w in known}
    return ReconstructionL3(pt, determined, pair, pair_sum, residual)
