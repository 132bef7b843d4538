"""Named identity suites behind `verify` on the command line.

Each suite runs a family of exact checks and returns (label, ok) pairs,
one per identity, aggregated over the requested number of random
trials.  All randomness comes from the given seed, so identical
configurations print identical reports.  The per-index checks return
one verdict per index i = 0..L; their rows read index 0 (left wall),
1..L-1 (bulk) and L (right wall).  Each suite has a smallest L at which
its identities exist, and `run_suite` rejects anything smaller.
"""

from __future__ import annotations

import random
from typing import Callable

from .baxter import (
    face_weights_R,
    kcheck0,
    kcheckL,
    rcheck,
)
from .chars import z_product
from .errors import DegreeBoundError, NonGenericPointError
from .exactfield import IMAG, ONE, Q, Scalar, bracket
from .groundstate import (
    check_qkz,
    check_recursion,
    check_sum_rule,
    check_vanishing,
    generic_parameters,
    interpolate_all,
    solve,
    solve_homogeneous,
    sum_components,
)
from .linkpat import SparseOperator, generator_matrix, idempotents
from .transfer import (
    NAIVE_CAP,
    SpectralPoint,
    check_T_recursion,
    check_column_sums,
    check_commuting,
    check_interlace,
    reduction,
    transfer_matrix,
    transfer_matrix_naive,
)

__all__ = ["SUITE_NAMES", "run_suite"]

SUITE_NAMES = (
    "algebra",
    "local",
    "transfer",
    "qkz",
    "recursion",
    "sumrule",
    "degree",
    "all",
)

Report = list[tuple[str, bool]]

_S_VALUES = (("1", ONE), ("-1", -ONE), ("i", IMAG), ("-i", -IMAG))


def _walls_and_bulk(verdicts: list[bool]) -> tuple[bool, bool, bool]:
    """(left wall, every bulk index, right wall) of a per-index check."""
    return verdicts[0], all(verdicts[1:-1]), verdicts[-1]


def _point(rng: random.Random, length: int, s: Scalar = ONE) -> SpectralPoint:
    vals = generic_parameters(rng, length + 3)
    return SpectralPoint(
        tuple(vals[:length]), vals[length], vals[length + 1], vals[length + 2], s
    )


def suite_algebra(length: int, trials: int, rng: random.Random) -> Report:
    """Generator relations as exact matrix identities (deterministic)."""
    e = [generator_matrix(i, length) for i in range(length + 1)]
    quad = all(e[i] @ e[i] == e[i] for i in range(length + 1))
    up = all(e[i] @ e[i + 1] @ e[i] == e[i] for i in range(1, length))
    down = all(e[i] @ e[i - 1] @ e[i] == e[i] for i in range(1, length))
    far = all(
        e[i] @ e[j] == e[j] @ e[i]
        for i in range(length + 1)
        for j in range(i + 2, length + 1)
    )
    i1, i2 = idempotents(length)
    dq1 = i1 @ i2 @ i1 == i1
    dq2 = i2 @ i1 @ i2 == i2
    return [
        ("generator squares: e_i^2 = e_i for i = 0..L", quad),
        ("braid relation: e_i e_{i+1} e_i = e_i for i = 1..L-1", up),
        ("braid relation: e_i e_{i-1} e_i = e_i for i = 1..L-1", down),
        ("distant generators commute: |i - j| >= 2", far),
        ("double quotient: I1 I2 I1 = I1", dq1),
        ("double quotient: I2 I1 I2 = I2", dq2),
    ]


def suite_local(length: int, trials: int, rng: random.Random) -> Report:
    """Unitarity, braid exchange, reflection, crossing, tile scalars."""
    dim = 1 << length
    ident = SparseOperator.identity(dim)
    r_unit = k0_unit = kL_unit = True
    ybe = refl_left = refl_right = True
    crossing = cancel = collapse = True
    for _ in range(trials):
        z, w, zeta = generic_parameters(rng, 3)
        r_unit &= rcheck(1, z, length) @ rcheck(1, z.inv(), length) == ident
        k0_unit &= kcheck0(z, zeta, length) @ kcheck0(z.inv(), zeta, length) == ident
        kL_unit &= kcheckL(z, zeta, length) @ kcheckL(z.inv(), zeta, length) == ident
        r1 = lambda u: rcheck(1, u, length)
        r2 = lambda u: rcheck(2, u, length)
        ybe &= r1(z) @ r2(z * w) @ r1(w) == r2(w) @ r1(z * w) @ r2(z)
        k0 = lambda u: kcheck0(u, zeta, length)
        refl_left &= (
            k0(z) @ r1(z * w) @ k0(w) @ r1(w / z)
            == r1(w / z) @ k0(w) @ r1(z * w) @ k0(z)
        )
        kL = lambda u: kcheckL(u, zeta, length)
        rL = lambda u: rcheck(length - 1, u, length)
        refl_right &= (
            kL(z) @ rL(z * w) @ kL(w) @ rL(w / z)
            == rL(w / z) @ kL(w) @ rL(z * w) @ kL(z)
        )
        plain = face_weights_R(z, w)
        crossed = face_weights_R(Q * w, z)
        crossing &= (
            crossed.id_weight == plain.cup_weight
            and crossed.cup_weight == plain.id_weight
        )
        a = lambda u: bracket(Q / u) / bracket(Q * u)
        b = lambda u: -bracket(u) / bracket(Q * u)
        cancel &= (a(Q * z) * a(z) + b(Q * z) * b(z) + a(Q * z) * b(z)).is_zero()
        collapse &= (
            bracket(Q / (z * w)) * bracket(Q * Q * z / w)
            == bracket(Q * Q * z * w) * bracket(Q * w / z)
        )
    return [
        ("bulk unitarity: Rcheck(z) Rcheck(1/z) = Id", r_unit),
        ("left boundary unitarity: Kcheck_0(z) Kcheck_0(1/z) = Id", k0_unit),
        ("right boundary unitarity: Kcheck_L(z) Kcheck_L(1/z) = Id", kL_unit),
        ("braid exchange: R1(z) R2(zw) R1(w) = R2(w) R1(zw) R2(z)", ybe),
        ("left reflection: K0 R1 K0 R1 exchange", refl_left),
        ("right reflection: KL R(L-1) KL R(L-1) exchange", refl_right),
        ("crossing swaps tile fillings: R(z, w) vs R(qw, z)", crossing),
        ("two-row filling cancellation: a(qu)a(u) + b(qu)b(u) + a(qu)b(u) = 0", cancel),
        ("slab collapse factor reduces to one at the cubic root", collapse),
    ]


def suite_transfer(length: int, trials: int, rng: random.Random) -> Report:
    commuting = sums = inter0 = interbulk = interL = True
    bulk_rec = left_rec = right_rec = True
    naive = True
    for _ in range(trials):
        pt = _point(rng, length)
        (w2,) = generic_parameters(
            rng, 1, avoid=[v.rational_value() for v in (pt.w,)]
        )
        commuting &= check_commuting(pt, w2)
        sums &= check_column_sums(pt)
        left, bulk, right = _walls_and_bulk(check_interlace(pt))
        inter0 &= left
        interbulk &= bulk
        interL &= right
        left, bulk, right = _walls_and_bulk(check_T_recursion(pt))
        left_rec &= left
        bulk_rec &= bulk
        right_rec &= right
        if length <= NAIVE_CAP:
            naive &= transfer_matrix(pt) == transfer_matrix_naive(pt)
    report = [
        ("commuting family: [T(v), T(w)] = 0", commuting),
        ("stochastic columns: every column of T sums to one", sums),
        ("left interlacing of T with Kcheck_0", inter0),
        ("bulk interlacing of T with Rcheck_i, all i", interbulk),
        ("right interlacing of T with Kcheck_L", interL),
        ("transfer bulk recursion at z_{i+1} = q z_i, unit factor", bulk_rec),
        ("transfer left boundary recursion at z_1 = q zeta_1", left_rec),
        ("transfer right boundary recursion at z_L = zeta_2 / q", right_rec),
    ]
    if length <= NAIVE_CAP:
        report.append(("threaded contraction equals naive expansion", naive))
    return report


def suite_qkz(length: int, trials: int, rng: random.Random) -> Report:
    report: Report = []
    for name, s in _S_VALUES:
        exchange = boundary = True
        for _ in range(trials):
            left, bulk, right = _walls_and_bulk(check_qkz(_point(rng, length, s)))
            exchange &= bulk
            boundary &= left and right
        report.append((f"exchange relations at every bulk index (s = {name})", exchange))
        report.append((f"reflection relations at both walls (s = {name})", boundary))
    return report


def _extracted_bulk_factor(pt: SpectralPoint, i: int) -> Scalar:
    specialised, reduced, embed = reduction(pt, i)
    big = solve(specialised, normalization="sum", check_w=False)
    small = solve(reduced, normalization="all_open", check_w=False)
    for word, val in small.as_dict().items():
        if not val.is_zero():
            return big[embed(word)] / val
    raise NonGenericPointError("reduced vector vanished identically")


def suite_recursion(length: int, trials: int, rng: random.Random) -> Report:
    bulk = left = right = indep = True
    for _ in range(trials):
        at_left, at_bulk, at_right = _walls_and_bulk(check_recursion(_point(rng, length)))
        left &= at_left
        bulk &= at_bulk
        right &= at_right
        if length >= 3:
            vals = generic_parameters(rng, length + 1)
            a, rest = vals[0], vals[1:length - 1]
            zeta1, zeta2 = vals[length - 1], vals[length]
            (w,) = generic_parameters(
                rng, 1, avoid=[v.rational_value() for v in vals]
            )
            # The repeated a is a placeholder: the reduction sets the
            # second of the pair to q a.
            first = SpectralPoint((a, a) + tuple(rest), zeta1, zeta2, w)
            second = SpectralPoint((rest[0], a, a) + tuple(rest[1:]), zeta1, zeta2, w)
            indep &= _extracted_bulk_factor(first, 1) == _extracted_bulk_factor(second, 2)
    report = [
        ("eigenvector bulk recursion with factor p, every index", bulk),
        ("eigenvector left boundary recursion with factor r_0", left),
        ("eigenvector right boundary recursion with factor r_L", right),
    ]
    if length >= 3:
        report.append(("extracted bulk factor is index independent", indep))
    return report


def suite_sumrule(length: int, trials: int, rng: random.Random) -> Report:
    inhom = True
    for _ in range(trials):
        inhom &= check_sum_rule(_point(rng, length))
    zeta1, zeta2 = generic_parameters(rng, 2)
    hom = solve_homogeneous(length, zeta1, zeta2)
    homo = sum_components(hom) == z_product(hom.point)
    return [
        ("component sum equals the four-character product", inhom),
        ("homogeneous component sum equals the confluent product", homo),
    ]


def suite_degree(length: int, trials: int, rng: random.Random) -> Report:
    pt = _point(rng, length)
    window = True
    try:
        for var in range(1, length + 1):
            interpolate_all(var, pt, rng=rng)
    except DegreeBoundError:
        window = False
    left, bulk, right = _walls_and_bulk(check_vanishing(pt))
    return [
        ("component degree stays inside the Laurent window in each z_i^2", window),
        ("vanishing at the left wall specializations of z_1", left),
        ("vanishing at the right wall specializations of z_L", right),
        ("vanishing without a small link at z_{i+1} = q z_i", bulk),
    ]


# Smallest L at which each suite's identities exist: the local braid
# exchange needs three sites, the recursion suite a bulk pair, and the
# wall and bulk relations at least one site; the sum rule holds at L = 0.
_MIN_LENGTH = {
    "algebra": 1,
    "local": 3,
    "transfer": 1,
    "qkz": 1,
    "recursion": 2,
    "sumrule": 0,
    "degree": 1,
}

_SUITES: dict[str, Callable[[int, int, random.Random], Report]] = {
    "algebra": suite_algebra,
    "local": suite_local,
    "transfer": suite_transfer,
    "qkz": suite_qkz,
    "recursion": suite_recursion,
    "sumrule": suite_sumrule,
    "degree": suite_degree,
}


def run_suite(name: str, length: int, trials: int, seed: int) -> Report:
    """Run one named suite (or all of them) and collect (label, ok) rows."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {', '.join(SUITE_NAMES)}")
    needed = max(_MIN_LENGTH.values()) if name == "all" else _MIN_LENGTH[name]
    if length < needed:
        raise ValueError(f"{name} suite needs L >= {needed}, got L = {length}")
    if name == "all":
        report: Report = []
        for sub in SUITE_NAMES[:-1]:
            for label, ok in run_suite(sub, length, trials, seed):
                report.append((f"{sub}: {label}", ok))
        return report
    return _SUITES[name](length, trials, random.Random(seed))
