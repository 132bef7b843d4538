"""Command line interface: output formats, exit codes, determinism."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from openloop import Scalar, closed_form_all_open
from openloop.cli import main, parse_scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar_forms():
    assert parse_scalar("3/4") == Scalar.from_rational(Fraction(3, 4))
    assert parse_scalar("-2") == Scalar.from_rational(-2)
    assert parse_scalar("0:0:1:0") == Scalar((0, 0, 1, 0))


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


def test_repeated_bulk_parameters_are_fine(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "2", "--z", "2,2")
    assert code == 0


def test_zero_parameter_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "0")
    assert code == 1
    assert "error:" in err


def test_bad_length_mismatch(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "2", "--z", "2")
    assert code == 1


def test_degenerate_w_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--L", "1", "--z", "2", "--w", "1")
    assert code == 2
    assert "dimension" in err


def test_boundary_pole_exits_three(capsys):
    # w = zeta^2 with zeta_2 = 1 puts the right wall tile on its pole.
    code, out, err = run_cli(
        capsys, "solve", "--L", "1", "--z", "2", "--zeta2", "1", "--w", "0:0:1:0"
    )
    assert code == 3


def test_sumrule_command(capsys):
    code, out, err = run_cli(capsys, "sumrule", "--L", "2", "--z", "3,5", "--seed", "4")
    assert code == 0
    assert "sum rule holds" in out


def test_character_generic(capsys):
    code, out, err = run_cli(capsys, "character", "--lambda", "1,0", "--points", "4,9")
    assert code == 0
    assert "481/36" in out


def test_character_confluent_flow(capsys):
    code, out, err = run_cli(capsys, "character", "--lambda", "1,0,0", "--points", "1,1,1")
    assert code == 2
    assert "--confluent" in err
    code, out, err = run_cli(
        capsys, "character", "--lambda", "1,0,0", "--points", "1,1,1", "--confluent"
    )
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("6")


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


def test_length_beyond_solve_cap_is_a_usage_error(capsys):
    zs = ",".join(str(k) for k in range(2, 11))
    code, out, err = run_cli(capsys, "solve", "--L", "9", "--z", zs)
    assert code == 1
    assert "at most 8" in err


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
