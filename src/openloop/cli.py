"""Command-line front end: solve, verify, character, sumrule.

Exact values cross the boundary as strings: rationals like "5" or
"-3/7", or full field elements as colon-separated coefficient 4-tuples
like "0:1:0:0".  Output is JSON (schemaVersion 1) or CSV; every run
with the same flags and seed prints byte-identical text.

Exit codes: 0 success, 1 argument or parse error (including L beyond
the exact-solve cap, a partition part beyond `chars.PART_CAP` and an
unwritable --output path) or a failed
verification (a FAIL row or a failed sum rule), 2 any other domain
error (non-generic point, confluent character arguments, failed
cross-check, degree bound), 3 singular parameter (an operator pole at
the given values), 141 standard output closed before all was written
(as when piped into head; 128 + SIGPIPE, as a shell reports).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import Sequence

from .chars import _collides, character_auto, z_product
from .errors import ConfluentPointError, OpenLoopError, SingularParameterError
from .exactfield import FOURTH_ROOTS, Scalar
from .groundstate import SOLVE_CAP, GroundstateVector, generic_parameters, solve, sum_components
from .transfer import SpectralPoint
from .verify import SUITE_NAMES, run_suite

SCHEMA_VERSION = "1"


class _CliError(Exception):
    """Bad arguments or unparsable values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value starting with "-" is an option to argparse unless this private
        # pattern (by default "-2" or "-.5" only) matches: widen it to "-3/4" and "-i".
        self._negative_number_matcher = re.compile(r"^-([\d.]|i$)")

    def error(self, message: str):
        raise _CliError(message)


def parse_scalar(text: str) -> Scalar:
    """A rational "p", "p/d", or a coefficient 4-tuple "a:b:c:d" of them,
    each an optionally signed integer or such a fraction: with no exponent
    or decimal point, no value has more digits than its text."""
    text = text.strip()
    try:
        parts = text.split(":")
        if len(parts) not in (1, 4):
            raise ValueError("coefficient tuples need exactly 4 entries")
        if bad := [p for p in parts if not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", p)]:
            raise ValueError(f"{bad[0]!r} is not an integer p or a fraction p/d")
        coeffs = tuple(Fraction(p) for p in parts)
        return Scalar(coeffs) if len(coeffs) == 4 else Scalar.from_rational(coeffs[0])
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"cannot parse scalar {text!r}: {exc}") from None


def parse_scalar_list(text: str) -> list[Scalar]:
    if not text.strip():
        return []
    return [parse_scalar(part) for part in text.split(",")]


def _require_nonzero(name: str, value: Scalar) -> Scalar:
    if value.is_zero():
        raise _CliError(f"parameter {name} must be nonzero")
    return value


def _default_w(seed: int, fixed: Sequence[Scalar]) -> Scalar:
    """Deterministic small rational clear of every provided parameter."""
    avoid = [v.rational_value() for v in fixed if v.is_rational()]
    (w,) = generic_parameters(random.Random(seed), 1, avoid=avoid)
    return w


def _build_point(args) -> SpectralPoint:
    if args.L > SOLVE_CAP:
        raise _CliError(f"--L must be at most {SOLVE_CAP} for an exact solve")
    zs = parse_scalar_list(args.z) if args.z else []
    if len(zs) != args.L:
        raise _CliError(f"--z must provide exactly L = {args.L} values, got {len(zs)}")
    for k, v in enumerate(zs, start=1):
        _require_nonzero(f"z_{k}", v)
    zeta1 = _require_nonzero("zeta1", parse_scalar(args.zeta1))
    zeta2 = _require_nonzero("zeta2", parse_scalar(args.zeta2))
    w = parse_scalar(args.w) if args.w else _default_w(args.seed, zs + [zeta1, zeta2])
    _require_nonzero("w", w)
    return SpectralPoint(tuple(zs), zeta1, zeta2, w, FOURTH_ROOTS[args.s])


def _scalar_json(x: Scalar) -> list[str]:
    return [str(c) for c in x.coeffs]


def _point_json(pt: SpectralPoint) -> dict:
    return {
        "L": pt.length,
        "z": [_scalar_json(x) for x in pt.z],
        "zeta1": _scalar_json(pt.zeta1),
        "zeta2": _scalar_json(pt.zeta2),
        "w": _scalar_json(pt.w),
        "s": _scalar_json(pt.s),
    }


def _groundstate_json(gs: GroundstateVector) -> str:
    doc = {
        "schemaVersion": SCHEMA_VERSION,
        "point": _point_json(gs.point),
        "normalization": gs.normalization,
        "components": {word: _scalar_json(x) for word, x in gs.as_dict().items()},
    }
    return json.dumps(doc, indent=2)


def _groundstate_csv(gs: GroundstateVector) -> str:
    lines = ["pattern,c0,c1,c2,c3"]
    for word, x in gs.as_dict().items():
        lines.append(",".join([word] + [str(c) for c in x.coeffs]))
    return "\n".join(lines)


def fmt_scalar(x: Scalar) -> str:
    """Rational as itself, anything else as the coefficient 4-tuple."""
    if x.is_rational():
        return str(x.rational_value())
    return "(" + ", ".join(str(c) for c in x.coeffs) + ")"


def _emit(text: str, path: str | None) -> None:
    if not path:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror}") from None


def _print_sum_rule(gs: GroundstateVector) -> bool:
    """Print the component sum and the character product; whether they agree."""
    total, product = sum_components(gs), z_product(gs.point)
    print(f"component sum      = {fmt_scalar(total)}")
    print(f"character product  = {fmt_scalar(product)}")
    return total == product


def cmd_solve(args) -> int:
    gs = solve(_build_point(args))
    out = _groundstate_csv(gs) if args.format == "csv" else _groundstate_json(gs)
    _emit(out, args.output)
    _print_sum_rule(gs)
    if gs.normalization == "raw":
        print("warning: every closed-form anchor vanished; raw normalization")
    return 0


def cmd_sumrule(args) -> int:
    if not _print_sum_rule(solve(_build_point(args))):
        print("sum rule FAILED")
        return 1
    print("sum rule holds")
    return 0


def cmd_verify(args) -> int:
    """One PASS/FAIL line per row of `run_suite` and the count of rows.

    A row with no instance at this L is left out, not passed: at L = 1
    the transfer suite has no bulk index and prints "7/7 checks passed".
    """
    try:
        report = run_suite(args.suite, args.L, args.trials, args.seed)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    failed = 0
    for label, ok in report:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failed += 0 if ok else 1
    print(f"{len(report) - failed}/{len(report)} checks passed")
    return 0 if failed == 0 else 1


def cmd_character(args) -> int:
    try:
        lam = [int(part) for part in args.lam.split(",")] if args.lam.strip() else []
    except ValueError as exc:
        raise _CliError(f"cannot parse --lambda: {exc}") from None
    points = parse_scalar_list(args.points)
    try:
        value = character_auto(lam, points)
        if not args.confluent and _collides(points):
            raise ConfluentPointError("character arguments collide")
    except ConfluentPointError as exc:
        print(f"error: {exc}; re-run with --confluent", file=sys.stderr)
        return 2
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    print("(" + ", ".join(str(c) for c in value.coeffs) + ")")
    if value.is_rational():
        print(str(value.rational_value()))
    return 0


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--L", type=int, required=True, help="number of bulk sites")
    sub.add_argument("--z", default="", help="comma-separated z_1..z_L")
    sub.add_argument("--zeta1", default="2", help="left boundary parameter")
    sub.add_argument("--zeta2", default="3", help="right boundary parameter")
    sub.add_argument("--s", choices=sorted(FOURTH_ROOTS), default="1",
                     help="fourth root of unity in the right reflection")
    sub.add_argument("--w", default="", help="auxiliary parameter (default: from seed)")
    sub.add_argument("--seed", type=int, default=0, help="seed for generated values")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="openloop", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sol = subs.add_parser("solve", help="exact groundstate at a spectral point")
    _add_point_flags(sol)
    sol.add_argument("--format", choices=("json", "csv"), default="json")
    sol.add_argument("--output", default="", help="write to this path instead of stdout")

    sr = subs.add_parser("sumrule", help="check the component sum against the product")
    _add_point_flags(sr)

    ver = subs.add_parser("verify", help="run a named identity suite")
    ver.add_argument("--suite", choices=SUITE_NAMES, required=True)
    ver.add_argument("--L", type=int, default=3)
    ver.add_argument("--trials", type=int, default=3)
    ver.add_argument("--seed", type=int, default=0)

    cha = subs.add_parser("character", help="evaluate one symplectic character")
    cha.add_argument("--lambda", dest="lam", required=True,
                     help="comma-separated partition, e.g. 1,0,0")
    cha.add_argument("--points", required=True, help="comma-separated arguments")
    cha.add_argument("--confluent", action="store_true",
                     help="allow colliding arguments (every input is evaluated by "
                     "the Koike-Terada determinant)")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "sumrule": cmd_sumrule,
    "verify": cmd_verify,
    "character": cmd_character,
}


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values print in full
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "L", 0) < 0:
            raise _CliError("--L must be nonnegative")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OpenLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
