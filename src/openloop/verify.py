"""Named identity suites behind `verify` on the command line.

Each suite yields (label, verdicts) rows, `verdicts` holding one bool
per instance checked; `run_suite` merges the rows by label across the
requested number of random trials and reports (label, ok) pairs.  A row
with no instance at this L (the bulk of a one-site strip, say) is left
out of the report rather than passed.  All randomness comes from the
given seed, so identical configurations print identical reports.  The
per-index checks return one verdict per index i = 0..L; their rows read
index 0 (left wall), 1..L-1 (bulk) and L (right wall).  Each suite has a
smallest L at which its identities exist; `run_suite` rejects anything
smaller, and anything above the exact-solve cap `SOLVE_CAP`.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from .baxter import face_weights_R, kcheck0, kcheckL, rcheck
from .chars import check_char_recursion, z_product
from .errors import DegreeBoundError
from .exactfield import FOURTH_ROOTS, ONE, Q, Scalar, bracket
from .groundstate import (
    SOLVE_CAP,
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
    check_interlace,
    reduction,
    transfer_matrix,
    transfer_matrix_naive,
    transfer_times,
)

__all__ = ["SUITE_NAMES", "run_suite"]

Report = list[tuple[str, bool]]
Rows = Iterator[tuple[str, list[bool]]]

def _point(rng: random.Random, length: int, s: Scalar = ONE) -> SpectralPoint:
    vals = generic_parameters(rng, length + 3)
    return SpectralPoint(
        tuple(vals[:length]), vals[length], vals[length + 1], vals[length + 2], s
    )


def suite_algebra(length: int, trials: int, rng: random.Random) -> Rows:
    """Generator relations as exact matrix identities (deterministic)."""
    e = [generator_matrix(i, length) for i in range(length + 1)]
    bulk = range(1, length)
    yield "generator squares: e_i^2 = e_i for i = 0..L", [x @ x == x for x in e]
    yield "braid relation: e_i e_{i+1} e_i = e_i for i = 1..L-1", [
        e[i] @ e[i + 1] @ e[i] == e[i] for i in bulk
    ]
    yield "braid relation: e_i e_{i-1} e_i = e_i for i = 1..L-1", [
        e[i] @ e[i - 1] @ e[i] == e[i] for i in bulk
    ]
    yield "distant generators commute: |i - j| >= 2", [
        e[i] @ e[j] == e[j] @ e[i] for i in range(length + 1) for j in range(i + 2, length + 1)
    ]
    i1, i2 = idempotents(length)
    yield "double quotient: I1 I2 I1 = I1", [i1 @ i2 @ i1 == i1]
    yield "double quotient: I2 I1 I2 = I2", [i2 @ i1 @ i2 == i2]


def suite_local(length: int, trials: int, rng: random.Random) -> Rows:
    """Unitarity, braid exchange, reflection, crossing, tile scalars."""
    ident = SparseOperator.identity(1 << length)
    for _ in range(trials):
        z, w, zeta = generic_parameters(rng, 3)
        r1 = lambda u: rcheck(1, u, length)
        r2 = lambda u: rcheck(2, u, length)
        rL = lambda u: rcheck(length - 1, u, length)
        k0 = lambda u: kcheck0(u, zeta, length)
        kL = lambda u: kcheckL(u, zeta, length)
        yield "bulk unitarity: Rcheck(z) Rcheck(1/z) = Id", [r1(z) @ r1(z.inv()) == ident]
        yield "left boundary unitarity: Kcheck_0(z) Kcheck_0(1/z) = Id", [
            k0(z) @ k0(z.inv()) == ident
        ]
        yield "right boundary unitarity: Kcheck_L(z) Kcheck_L(1/z) = Id", [
            kL(z) @ kL(z.inv()) == ident
        ]
        yield "braid exchange: R1(z) R2(zw) R1(w) = R2(w) R1(zw) R2(z)", [
            r1(z) @ r2(z * w) @ r1(w) == r2(w) @ r1(z * w) @ r2(z)
        ]
        yield "left reflection: K0 R1 K0 R1 exchange", [
            k0(z) @ r1(z * w) @ k0(w) @ r1(w / z) == r1(w / z) @ k0(w) @ r1(z * w) @ k0(z)
        ]
        yield "right reflection: KL R(L-1) KL R(L-1) exchange", [
            kL(z) @ rL(z * w) @ kL(w) @ rL(w / z) == rL(w / z) @ kL(w) @ rL(z * w) @ kL(z)
        ]
        plain = face_weights_R(z, w)
        crossed = face_weights_R(Q * w, z)
        yield "crossing swaps tile fillings: R(z, w) vs R(qw, z)", [
            crossed.id_weight == plain.cup_weight and crossed.cup_weight == plain.id_weight
        ]
        u, qu = face_weights_R(z, ONE), face_weights_R(Q * z, ONE)
        yield "two-row filling cancellation: a(qu)a(u) + b(qu)b(u) + a(qu)b(u) = 0", [
            (qu.id_weight * (u.id_weight + u.cup_weight) + qu.cup_weight * u.cup_weight).is_zero()
        ]
        yield "slab collapse factor reduces to one at the cubic root", [
            bracket(Q / (z * w)) * bracket(Q * Q * z / w)
            == bracket(Q * Q * z * w) * bracket(Q * w / z)
        ]


def suite_transfer(length: int, trials: int, rng: random.Random) -> Rows:
    # Row 0 of ones @ X holds the column sums of X.
    ones = SparseOperator.from_column_map(1 << length, lambda j: 0)
    for _ in range(trials):
        pt = _point(rng, length)
        (w2,) = generic_parameters(rng, 1, avoid=[pt.w.rational_value()])
        tmat, other = transfer_matrix(pt), transfer_matrix(pt.with_w(w2))
        vw, wv = transfer_times(pt, other), transfer_times(pt.with_w(w2), tmat)
        yield "commuting family: [T(v), T(w)] = 0", [vw == wv]
        yield "stochastic columns: every column of T sums to one", [ones @ tmat == ones]
        inter = check_interlace(pt, tmat)
        yield "left interlacing of T with Kcheck_0", inter[:1]
        yield "bulk interlacing of T with Rcheck_i, all i", inter[1:-1]
        yield "right interlacing of T with Kcheck_L", inter[-1:]
        rec = check_T_recursion(pt)
        yield "transfer bulk recursion at z_{i+1} = q z_i, unit factor", rec[1:-1]
        yield "transfer left boundary recursion at z_1 = q zeta_1", rec[:1]
        yield "transfer right boundary recursion at z_L = zeta_2 / q", rec[-1:]
        if length <= NAIVE_CAP:
            yield "threaded contraction equals naive expansion", [
                tmat == transfer_matrix_naive(pt)
            ]


def suite_qkz(length: int, trials: int, rng: random.Random) -> Rows:
    for name, s in FOURTH_ROOTS.items():
        for _ in range(trials):
            verdicts = check_qkz(_point(rng, length, s))
            yield f"exchange relations at every bulk index (s = {name})", verdicts[1:-1]
            yield (
                f"reflection relations at both walls (s = {name})",
                verdicts[:1] + verdicts[-1:],
            )


def _extracted_bulk_factor(pt: SpectralPoint, i: int) -> Scalar:
    """The specialised vector's entry over the reduced one's, read at the
    reduced all-open entry 0: its anchor pins it to a closed form that
    `solve` refuses where it vanishes."""
    specialised, reduced, image = reduction(pt, i)
    big = solve(specialised, normalization="sum", check_w=False)
    small = solve(reduced, normalization="all_open", check_w=False)
    return big[image[0]] / small.components[0]


def suite_recursion(length: int, trials: int, rng: random.Random) -> Rows:
    for _ in range(trials):
        verdicts = check_recursion(_point(rng, length))
        yield "eigenvector bulk recursion with factor p, every index", verdicts[1:-1]
        yield "eigenvector left boundary recursion with factor r_0", verdicts[:1]
        yield "eigenvector right boundary recursion with factor r_L", verdicts[-1:]
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
            yield "extracted bulk factor is index independent", [
                _extracted_bulk_factor(first, 1) == _extracted_bulk_factor(second, 2)
            ]


def suite_sumrule(length: int, trials: int, rng: random.Random) -> Rows:
    for _ in range(trials):
        yield "component sum equals the four-character product", [
            check_sum_rule(_point(rng, length))
        ]
    zeta1, zeta2 = generic_parameters(rng, 2)
    hom = solve_homogeneous(length, zeta1, zeta2)
    yield "homogeneous component sum equals the confluent product", [
        sum_components(hom) == z_product(hom.point)
    ]
    # Drawn last, so the rows above see the same points at every seed.
    for _ in range(trials):
        zs = generic_parameters(rng, length)
        yield "staircase character recursion at z_{j+1} = q z_j, j = 1..L-1", [
            check_char_recursion(zs[:j] + [Q * zs[j - 1]] + zs[j + 1:], j)
            for j in range(1, length)
        ]


def suite_degree(length: int, trials: int, rng: random.Random) -> Rows:
    pt = _point(rng, length)
    try:
        for var in range(1, length + 1):
            interpolate_all(var, pt, rng=rng)
        window = [True]
    except DegreeBoundError:
        window = [False]
    yield "component degree stays inside the Laurent window in each z_i^2", window
    verdicts = check_vanishing(pt)
    yield "vanishing at the left wall specializations of z_1", verdicts[:1]
    yield "vanishing at the right wall specializations of z_L", verdicts[-1:]
    yield "vanishing without a small link at z_{i+1} = q z_i", verdicts[1:-1]


# Each suite with the smallest L at which its identities exist: the local
# braid exchange needs three sites, the recursion suite a bulk pair, and
# the wall and bulk relations at least one site; the sum rule holds at L = 0.
_SUITES: dict[str, tuple[Callable[[int, int, random.Random], Rows], int]] = {
    "algebra": (suite_algebra, 1),
    "local": (suite_local, 3),
    "transfer": (suite_transfer, 1),
    "qkz": (suite_qkz, 1),
    "recursion": (suite_recursion, 2),
    "sumrule": (suite_sumrule, 0),
    "degree": (suite_degree, 1),
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, length: int, trials: int, seed: int) -> Report:
    """Run one named suite (or all of them) and collect (label, ok) rows.

    A label's verdicts from every trial are ANDed into one row, in the
    order labels first appear; a label with no verdict is left out.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {', '.join(SUITE_NAMES)}")
    needed = max(n for _, n in _SUITES.values()) if name == "all" else _SUITES[name][1]
    if length < needed:
        raise ValueError(f"{name} suite needs L >= {needed}, got L = {length}")
    if length > SOLVE_CAP:
        raise ValueError(f"suites run up to L = SOLVE_CAP = {SOLVE_CAP}, got L = {length}")
    if name == "all":
        report: Report = []
        for sub in _SUITES:
            for label, ok in run_suite(sub, length, trials, seed):
                report.append((f"{sub}: {label}", ok))
        return report
    merged: dict[str, list[bool]] = {}
    for label, verdicts in _SUITES[name][0](length, trials, random.Random(seed)):
        merged.setdefault(label, []).extend(verdicts)
    return [(label, all(verdicts)) for label, verdicts in merged.items() if verdicts]
