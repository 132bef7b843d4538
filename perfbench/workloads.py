"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload is a closed loop driven by a single caller: an operation
starts only after the previous one has returned and been checked.  A run
is one round of operations whose inputs are drawn from `seed_rng(seed)`,
so the same seed gives the same inputs.  The number of operations in the
round follows from the run length alone (`Workload.ops_for`), never from
a clock, so two commits run at the same length time the same operations.

Every check tests a property the method must have, never a stored copy
of an earlier output:

- solve-cli: the vector printed by `openloop solve` is scaled to a
  closed-form anchor, its components sum to the four-character product
  at the point (the sum rule), and T fixes it at a third auxiliary
  parameter that `check_w` did not use;
- transfer-suite, degree-window: every row of the suite passes, and the
  suite reports exactly as many rows as it defines for that L;
- homogeneous-sum: H(c1, c2) annihilates the vector, and its component
  sum equals the confluent character product, a positive rational.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# Operations call through the module objects, so that the traced run's
# wrappers on those modules' public names see the calls.
from openloop import chars, cli, groundstate, verify
from openloop.errors import SingularParameterError
from openloop.exactfield import Scalar
from openloop.linkpat import c_from_zeta, hamiltonian
from openloop.transfer import NAIVE_CAP, SpectralPoint, assert_generic, transfer_apply


class CheckFailed(Exception):
    """An operation returned an output that breaks a required property."""


def seed_rng(seed: int) -> random.Random:
    return random.Random(f"perfbench:{seed}")


def draw_rationals(
    rng: random.Random, count: int, avoid: list[Fraction] | None = None
) -> list[Fraction]:
    """Small rationals p/q (|p|, q <= 9) clear of 0, +-1 and of each other.

    A draw is rejected when its product or ratio with a value already
    taken (or in `avoid`) is +-1: that keeps every tile weight finite,
    character arguments collision-free and the fixed space of T
    one-dimensional.  The benchmark draws its own inputs so that a
    change to the program's draw helpers cannot change them.
    """
    taken = list(avoid or [])
    out: list[Fraction] = []
    while len(out) < count:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f == 0 or abs(f) == 1:
            continue
        if any(abs(f * g) == 1 or abs(f / g) == 1 for g in taken):
            continue
        taken.append(f)
        out.append(f)
    return out


def _scalar(f: Fraction) -> Scalar:
    return Scalar.from_rational(f)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- solve-cli ------------------------------------------------------------

# The parameters of a solve point: one value of equal height per
# parameter, each drawn once with a seeded sign and orientation.  No two
# share an absolute value or its inverse, so no product or ratio of two
# of them is +-1.  The cost of an exact solve grows with the heights of
# its parameters; with free draws one L = 5 solve took 2.6 s and another
# 4.5 s, so a run of a few solves measured the seed more than the code.
SOLVE_POOL = tuple(
    Fraction(p, q) for p, q in ((3, 2), (4, 3), (5, 3), (5, 4), (7, 4), (7, 5), (8, 5), (9, 7))
)


def draw_from_pool(rng: random.Random, count: int) -> list[Fraction]:
    """`count` distinct pool values in seeded order, each inverted and
    negated with probability one half."""
    if count > len(SOLVE_POOL):
        raise ValueError(f"the solve pool holds {len(SOLVE_POOL)} values, not {count}")
    out = []
    for f in rng.sample(SOLVE_POOL, count):
        if rng.random() < 0.5:
            f = 1 / f
        out.append(-f if rng.random() < 0.5 else f)
    return out


@dataclass(frozen=True)
class SolveInput:
    argv: list[str]
    point: SpectralPoint
    third_w: Scalar


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def make_solve_inputs(rng: random.Random, length: int, count: int) -> list[SolveInput]:
    inputs = []
    for _ in range(count):
        vals = draw_from_pool(rng, length + 3)
        zs, zeta1, zeta2, w = vals[:length], vals[length], vals[length + 1], vals[length + 2]
        point = SpectralPoint(tuple(map(_scalar, zs)), _scalar(zeta1), _scalar(zeta2), _scalar(w))
        # check_w shifts w by a small integer, so a third w that differs
        # from w by a non-integer is one that check_w has not used.
        while True:
            (w3,) = draw_rationals(rng, 1, avoid=vals)
            if (w3 - w).denominator == 1:
                continue
            try:
                assert_generic(point.with_w(_scalar(w3)))
            except SingularParameterError:
                continue
            break
        # "--flag=value": a negative value in its own word reads as a flag.
        argv = [
            "solve", f"--L={length}", f"--z={','.join(map(str, zs))}",
            f"--zeta1={zeta1}", f"--zeta2={zeta2}", f"--w={w}",
        ]
        inputs.append(SolveInput(argv, point, _scalar(w3)))
    return inputs


def run_solve(inp: SolveInput) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inp.argv)
    return CliOutput(code, buf.getvalue())


def check_solve(inp: SolveInput, out: CliOutput) -> None:
    _require(out.code == 0, f"openloop solve exited with code {out.code}")
    try:
        doc, _ = json.JSONDecoder().raw_decode(out.text)
        normalization = doc["normalization"]
        comps = [Scalar(tuple(Fraction(c) for c in v)) for v in doc["components"].values()]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckFailed(f"unreadable solve output: {exc}") from None
    # A vector scaled to the sum anchor (or left raw) would make the sum
    # rule hold by construction, or fail it by construction.
    _require(
        normalization in ("all_open", "all_close"),
        f"solve used the {normalization!r} normalization, not a closed-form anchor",
    )
    _require(len(comps) == 1 << inp.point.length, f"expected 2^L components, got {len(comps)}")
    total = Scalar.zero()
    for x in comps:
        total = total + x
    _require(total == chars.z_product(inp.point), "component sum differs from the character product")
    third = inp.point.with_w(inp.third_w)
    _require(transfer_apply(comps, third) == comps, "vector is not fixed by T at a third w")


# -- transfer-suite and degree-window -------------------------------------

Report = list[tuple[str, bool]]


def expected_rows(suite: str, length: int) -> int:
    """Rows the suite defines at this L: the transfer suite has eight
    identities plus the oracle comparison where the naive expansion is
    allowed; the degree suite has four."""
    if suite == "transfer":
        return 8 + (length <= NAIVE_CAP)
    if suite == "degree":
        return 4
    raise ValueError(f"no row count for suite {suite!r}")


def make_suite_inputs(rng: random.Random, length: int, count: int) -> list[int]:
    return [rng.randrange(1 << 31) for _ in range(count)]


def check_suite(suite: str, length: int, report: Report) -> None:
    want = expected_rows(suite, length)
    _require(len(report) == want, f"{suite} suite reported {len(report)} rows, expected {want}")
    failed = [label for label, ok in report if not ok]
    _require(not failed, f"{suite} suite failed: {'; '.join(failed)}")


# -- homogeneous-sum ------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousInput:
    length: int
    zeta1: Scalar
    zeta2: Scalar


@dataclass(frozen=True)
class HomogeneousOutput:
    components: tuple[Scalar, ...]
    product: Scalar
    hamiltonian_ok: bool


def make_homogeneous_inputs(
    rng: random.Random, length: int, count: int
) -> list[HomogeneousInput]:
    out = []
    for _ in range(count):
        zeta1, zeta2 = draw_rationals(rng, 2)
        out.append(HomogeneousInput(length, _scalar(zeta1), _scalar(zeta2)))
    return out


def run_homogeneous(inp: HomogeneousInput) -> HomogeneousOutput:
    gs = groundstate.solve_homogeneous(inp.length, inp.zeta1, inp.zeta2)
    product = chars.z_product(gs.point)
    ok = groundstate.check_hamiltonian(inp.length, inp.zeta1, inp.zeta2)
    return HomogeneousOutput(gs.components, product, ok)


def check_homogeneous(inp: HomogeneousInput, out: HomogeneousOutput) -> None:
    _require(out.hamiltonian_ok, "check_hamiltonian reported failure")
    ham = hamiltonian(inp.length, c_from_zeta(inp.zeta1), c_from_zeta(inp.zeta2))
    _require(
        all(x.is_zero() for x in ham.apply(list(out.components))),
        "H(c1, c2) does not annihilate the vector",
    )
    total = Scalar.zero()
    for x in out.components:
        total = total + x
    _require(total == out.product, "component sum differs from the confluent product")
    _require(
        out.product.is_rational() and out.product.rational_value() > 0,
        "confluent product is not a positive rational",
    )


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Operations at size `length`; one takes about `nominal_op_s`
    seconds on the reference machine."""

    name: str
    length: int
    nominal_op_s: float
    make_inputs: Callable[[random.Random, int, int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    output_bytes: Callable[[Any], int] = lambda out: 0

    def ops_for(self, seconds: float) -> int:
        """Operations in a round of a run `seconds` long: as many as fit
        at the nominal cost, and at least one."""
        return max(1, int(seconds // self.nominal_op_s))

    def make_round(self, seed: int, ops: int) -> list:
        return self.make_inputs(seed_rng(seed), self.length, ops)


def _suite_workload(name: str, suite: str, length: int, nominal_op_s: float) -> Workload:
    return Workload(
        name,
        length,
        nominal_op_s,
        make_suite_inputs,
        lambda seed: verify.run_suite(suite, length, 1, seed),
        lambda seed, report: check_suite(suite, length, report),
    )


def make_workload(name: str, length: int | None = None) -> Workload:
    """The named workload, at its benchmark size unless `length` is given.

    The nominal costs are those of the benchmark sizes on the reference
    machine, measured once; they fix how many operations a run of a given
    length holds, and do not change with the program's speed."""
    if name == "solve-cli-l5":
        return Workload(
            name, length or 5, 3.0, make_solve_inputs, run_solve, check_solve,
            output_bytes=lambda out: len(out.text.encode()),
        )
    if name == "transfer-suite-l5":
        return _suite_workload(name, "transfer", length or 5, 13.0)
    if name == "homogeneous-sum-l3":
        return Workload(
            name, length or 3, 2.6, make_homogeneous_inputs, run_homogeneous, check_homogeneous
        )
    if name == "degree-window-l3":
        return _suite_workload(name, "degree", length or 3, 4.0)
    raise ValueError(f"unknown workload {name!r}; options: {', '.join(WORKLOAD_NAMES)}")


WORKLOAD_NAMES = ("solve-cli-l5", "transfer-suite-l5", "homogeneous-sum-l3", "degree-window-l3")
