"""Command line interface: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from openloop import ConsistencyError, Scalar, SpectralPoint, cli, closed_form_all_open, groundstate
from openloop.chars import PART_CAP, character_auto, symplectic_character
from openloop.cli import main, parse_scalar, parse_scalar_list
from openloop.verify import SUITE_NAMES

from helpers import refuse_exact_kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == Scalar.from_rational(Fraction(3, 4))
    assert parse_scalar("-2") == Scalar.from_rational(-2)
    assert parse_scalar("0:0:1:0") == Scalar((0, 0, 1, 0))
    assert parse_scalar("-2:+1:0:3/4") == Scalar((-2, 1, 0, Fraction(3, 4)))


@pytest.mark.parametrize("text", ["1e3", "1.5", "1:0:0:1e3", "1_000", "1/0", "2:3"])
def test_parse_scalar_rejects_undocumented_forms(capsys, text):
    # Only p and p/d are literals, alone or in each slot of a 4-tuple:
    # an exponent would be expanded before any check, so none is read.
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--w", text)
    assert code == 1 and out == ""
    assert f"cannot parse scalar {text!r}" in err


def test_solve_json_output(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--L", "2", "--z", "2,3", "--zeta1", "2", "--zeta2", "3", "--w", "5/2"
    )
    assert code == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["schemaVersion"] == "1"
    assert payload["normalization"] == "all_open"
    assert set(payload["components"]) == {"((", "()", ")(", "))"}
    assert payload["point"]["z"] == [["2", "0", "0", "0"], ["3", "0", "0", "0"]]
    # The anchor component agrees with the closed form.
    from openloop import SpectralPoint

    pt = SpectralPoint(
        z=(Scalar.from_rational(2), Scalar.from_rational(3)),
        zeta1=Scalar.from_rational(2),
        zeta2=Scalar.from_rational(3),
        w=Scalar.from_rational(Fraction(5, 2)),
    )
    expected = closed_form_all_open(pt)
    assert payload["components"]["(("] == [str(c) for c in expected.coeffs]
    assert "component sum" in out


def test_solve_csv_output(tmp_path, capsys):
    target = tmp_path / "gs.csv"
    code, out, err = run_cli(
        capsys,
        "solve", "--L", "1", "--z", "2", "--format", "csv", "--output", str(target),
    )
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "pattern,c0,c1,c2,c3"
    assert len(lines) == 3
    assert lines[1].startswith("(,") and lines[2].startswith("),")


def test_solve_level_zero(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "0")
    assert code == 0
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["components"][""] == ["1", "0", "0", "0"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--L 6 --z 2,3,5,7,11,13 --zeta1 2:1:0:0 --zeta2 3 --w 5/2",
            "987909852e5a00273b5f683aa77f292b94376d25aa90c687ce1a1ebb1cd3ac26",
        ),
        (
            "--L 7 --z 2,3,5,7,11,13,17 --zeta1 2 --zeta2 3 --w 5/2",
            "5138a82e84716fd45750dd11d5510d908869c50f5d0f47516968bd32623b08e5",
        ),
        (
            "--L 6 --z 2:1:0:0,3:0:0:1,5:0:1:1,7:1:0:0,11:0:0:-1,13:1:1:0"
            " --zeta1 2:1:0:0 --zeta2 3:0:0:1 --w 5/2:1:0:0",
            "c2b9e27c3d55782bfe1fce172c181ea9c9fcaa777142902570f3b4a886590c1d",
        ),
    ],
    ids=["L6", "L7", "L6-field"],
)
def test_solve_output_is_pinned_beyond_the_oracle_sizes(capsys, argv, digest):
    # The exact kernel oracle is compared with the lifting up to L = 5;
    # these digests of the whole stdout pin three larger solves: one with
    # odd powers of zeta in zeta_1 = 2 + zeta alone, and one with them in
    # every parameter.
    code, out, err = run_cli(capsys, "solve", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flag, value",
    [("--w", "-3/4"), ("--zeta1", "-3/7"), ("--zeta2", "-1:0:1:0"), ("--z", "-2,3")],
)
def test_negative_scalars_are_values_not_options(capsys, flag, value):
    base = {"--z": "2,3", "--zeta1": "2", "--zeta2": "3", "--w": "5/2"}
    argv = ["solve", "--L", "2"] + [x for k, v in base.items() if k != flag for x in (k, v)]
    code, spaced, err = run_cli(capsys, *argv, flag, value)
    assert (code, err) == (0, "")
    code, joined, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert (code, err) == (0, "")
    assert spaced == joined


@pytest.mark.parametrize("value", ["-i", "-1"])
def test_negative_fourth_roots_are_values_not_options(capsys, value):
    argv = ["solve", "--L", "1", "--z", "2"]
    code, spaced, err = run_cli(capsys, *argv, "--s", value)
    assert (code, err) == (0, "")
    code, joined, err = run_cli(capsys, *argv, f"--s={value}")
    assert (code, err) == (0, "")
    assert spaced == joined


def test_repeated_bulk_parameters_are_fine(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "2", "--z", "2,2")
    assert code == 0


@pytest.mark.parametrize("command", ["solve", "sumrule"])
@pytest.mark.parametrize(
    "flags, name",
    [
        (["--z", "0,3"], "z_1"),
        (["--z", "2,0", "--w", "5/2"], "z_2"),
        (["--z", "2,3", "--zeta1", "0"], "zeta1"),
        (["--z", "2,3", "--zeta2", "0"], "zeta2"),
        (["--z", "2,3", "--w", "0"], "w"),
    ],
    ids=["z-default-w", "z", "zeta1", "zeta2", "w"],
)
def test_zero_parameter_is_a_usage_error(capsys, command, flags, name):
    # SpectralPoint alone refuses a zero; without --w the zero first passes
    # through the default w's draw, which must not choke on it.
    code, out, err = run_cli(capsys, command, "--L", "2", *flags)
    assert (code, out) == (1, "")
    assert err == f"error: spectral parameter {name} must be nonzero\n"


def test_bad_length_mismatch(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "2", "--z", "2")
    assert code == 1


def test_degenerate_w_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--w", "1")
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("length", [5, 6, 7])
def test_a_degenerate_fixed_space_exits_two_without_the_exact_kernel(capsys, monkeypatch, length):
    # z_i = 1 and zeta_1 = zeta_2 = zeta^2 fix a plane: the first prime
    # shows two free columns, and their two certified vectors report it.
    refuse_exact_kernel(monkeypatch)
    ones = ",".join(["1"] * length)
    argv = ["--L", str(length), "--z", ones, "--zeta1", "0:0:1:0", "--zeta2", "0:0:1:0"]
    code, out, err = run_cli(capsys, "solve", *argv)
    assert code == 2 and out == ""
    assert err == "error: kernel has dimension 2, expected 1\n"


def test_w_dependent_fixed_vector_exits_two(capsys, monkeypatch):
    # A second T(w) that does not fix the vector fails the cross-check.
    monkeypatch.setattr(groundstate, "transfer_apply", lambda vec, pt: [x + x for x in vec])
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--w", "5/2")
    assert code == 2
    assert err == "error: fixed vector is not independent of the auxiliary parameter\n"
    two, three, five = (Scalar.from_rational(k) for k in (2, 3, 5))
    with pytest.raises(ConsistencyError):
        groundstate.solve(SpectralPoint((two,), two, three, five))


def test_boundary_pole_exits_three(capsys):
    # w = zeta^2 with zeta_2 = 1 puts the right wall tile on its pole.
    code, out, err = run_cli(
        capsys, "solve", "--L", "1", "--z", "2", "--zeta2", "1", "--w", "0:0:1:0"
    )
    assert code == 3


def test_closed_stdout_exits_141_without_a_traceback():
    # A pipe of one page makes the CLI's 13 kB of JSON block in its write
    # until the reader has read 10 bytes and closed its end, so the CLI
    # meets the closed pipe on every run, not only when the reader is fast.
    import fcntl

    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    argv = ["--L", "5", "--z", "2,3,5,7,11", "--zeta1", "2", "--zeta2", "3", "--w", "5/2"]
    with subprocess.Popen(
        [sys.executable, "-m", "openloop.cli", "solve", *argv],
        stdin=subprocess.DEVNULL,
        stdout=write_end,
        stderr=subprocess.PIPE,
    ) as proc:
        os.close(write_end)
        try:
            head = os.read(read_end, 10)
        finally:
            os.close(read_end)
        _, err = proc.communicate(timeout=120)
    assert head == b'{\n  "schem'
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_sumrule_command(capsys):
    code, out, err = run_cli(capsys, "sumrule", "--L", "2", "--z", "3,5", "--seed", "4")
    assert code == 0
    assert "sum rule holds" in out


def test_sumrule_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "z_product", lambda pt: Scalar.from_rational(0))
    code, out, err = run_cli(capsys, "sumrule", "--L", "2", "--z", "3,5", "--seed", "4")
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == ["character product  = 0", "sum rule FAILED"]


def test_verify_fail_row_exits_one(capsys, monkeypatch):
    rows = [("first: holds", True), ("second: fails", False)]
    monkeypatch.setattr(cli, "run_suite", lambda name, length, trials, seed: rows)
    code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--L", "2", "--trials", "1")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "PASS  first: holds",
        "FAIL  second: fails",
        "1/2 checks passed",
    ]


def test_raw_normalization_warns(capsys, monkeypatch):
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda pt: replace(solve(pt), normalization="raw"))
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--w", "5/2")
    assert (code, err) == (0, "")
    assert json.loads(out[: out.rindex("}") + 1])["normalization"] == "raw"
    assert out.splitlines()[-1] == "warning: every closed-form anchor vanished; raw normalization"


def test_character_generic(capsys):
    code, out, err = run_cli(capsys, "character", "--lambda", "1,0", "--points", "4,9")
    assert code == 0
    assert "481/36" in out


def test_character_zero_point_is_a_usage_error(capsys):
    # character_auto's own check names the error; the CLI adds none.
    code, out, err = run_cli(capsys, "character", "--lambda", "1,0", "--points", "0,2")
    assert (code, out) == (1, "")
    assert err == "error: character arguments must be nonzero\n"


@pytest.mark.parametrize("lam, points, printed", [("1,0,0", "1,1,1", "6"), ("1,0", "2,1/2", "5")])
def test_character_evaluates_colliding_points(capsys, lam, points, printed):
    # The Koike-Terada determinant takes any nonzero arguments, so
    # repeated or reciprocal ones need no flag.
    code, out, err = run_cli(capsys, "character", "--lambda", lam, "--points", points)
    assert (code, err) == (0, "")
    value = character_auto([int(a) for a in lam.split(",")], parse_scalar_list(points))
    assert out.splitlines() == ["(" + ", ".join(str(c) for c in value.coeffs) + ")", printed]


def test_confluent_flag_is_an_unrecognised_argument(capsys):
    argv = ["character", "--lambda", "1,0,0", "--points", "1,1,1", "--confluent"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --confluent\n")


def test_character_generic_output_matches_the_weyl_ratio(capsys):
    # One evaluator (Koike-Terada) behind the command; at generic points
    # it prints exactly what the Weyl ratio gives.
    points = "2,1/3,0:1:0:0"
    code, out, err = run_cli(capsys, "character", "--lambda", "2,1,0", "--points", points)
    assert code == 0 and err == ""
    value = symplectic_character([2, 1, 0], [parse_scalar(x) for x in points.split(",")])
    assert out.splitlines()[0] == "(" + ", ".join(str(c) for c in value.coeffs) + ")"


def test_character_prints_values_beyond_the_int_string_limit(capsys):
    # sp_(8000)(2) has numerators of about 7000 digits, past the 4300 that
    # Python allows an int-to-str conversion by default: it prints in full.
    code, out, err = run_cli(capsys, "character", "--lambda", "8000", "--points", "2")
    assert code == 0 and err == ""
    line = out.splitlines()[0]
    assert len(line) > 4300
    printed = Scalar([Fraction(c) for c in line.strip("()").split(", ")])
    assert printed == character_auto([8000], [Scalar.from_rational(2)])


@pytest.mark.parametrize("part", ["99999999999999999999", "9223372036854775807"])
def test_character_refuses_a_part_beyond_the_cap(capsys, part):
    # A part past any list length (OverflowError) or past memory
    # (MemoryError) is refused before h_0..h_(lam_1) is built.
    code, out, err = run_cli(capsys, "character", "--lambda", part, "--points", "2")
    assert (code, out) == (1, "")
    assert err == f"error: partition parts must lie in 0..PART_CAP = {PART_CAP}\n"


def test_verify_command_deterministic(capsys):
    args = ("verify", "--suite", "algebra", "--L", "2", "--trials", "1", "--seed", "3")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
    assert all(line.startswith("PASS") for line in out1.splitlines() if ":" in line)


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus", "--L", "2")
    assert code == 1


def test_verify_local_at_small_length_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "local", "--L", "2")
    assert code == 1
    assert "L >= 3" in err


@pytest.mark.parametrize("suite", ["algebra", "transfer", "qkz", "degree"])
def test_verify_at_zero_sites_is_a_usage_error(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--L", "0", "--trials", "1")
    assert code == 1
    assert err.splitlines() == [f"error: {suite} suite needs L >= 1, got L = 0"]
    assert out == ""


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_beyond_solve_cap_is_a_usage_error(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--L", "10", "--trials", "1")
    assert code == 1
    assert err.splitlines() == ["error: suites run up to L = SOLVE_CAP = 9, got L = 10"]
    assert out == ""


def test_verify_sumrule_at_zero_sites(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "sumrule", "--L", "0", "--trials", "1")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"


def test_verify_at_one_site_counts_only_rows_that_ran(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "transfer", "--L", "1", "--trials", "1")
    assert code == 0
    assert out.splitlines()[-1] == "7/7 checks passed"
    assert "bulk" not in out


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "gs.json"
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--output", str(target))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {target}")
    assert not target.exists()


def test_length_beyond_solve_cap_is_a_usage_error(capsys):
    zs = ",".join(str(k) for k in range(2, 12))
    code, out, err = run_cli(capsys, "solve", "--L", "10", "--z", zs)
    assert code == 1
    assert "at most 9" in err


def test_library_value_error_exits_one(capsys, monkeypatch):
    # main maps a ValueError from any command to exit 1; no command wraps it.
    from openloop import cli

    def refuse(pt):
        raise ValueError("no groundstate at this point")

    monkeypatch.setattr(cli, "solve", refuse)
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2")
    assert (code, out, err) == (1, "", "error: no groundstate at this point\n")


def test_degree_bound_error_exits_two(capsys, monkeypatch):
    from openloop import DegreeBoundError, cli

    def fail(*args):
        raise DegreeBoundError("component exceeds the degree window")

    monkeypatch.setattr(cli, "run_suite", fail)
    code, out, err = run_cli(capsys, "verify", "--suite", "degree", "--L", "2")
    assert code == 2
    assert "degree window" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_is_a_usage_error(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--suite", "algebra", "--L", "3", "--trials", trials)
    assert code == 1
    assert "checks passed" not in out
