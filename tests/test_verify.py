"""The bundled verification suites report passing checks deterministically."""

from __future__ import annotations

import pytest

from openloop import SUITE_NAMES, run_suite, verify


def test_suite_names_are_stable():
    assert SUITE_NAMES == (
        "algebra",
        "local",
        "transfer",
        "qkz",
        "recursion",
        "sumrule",
        "degree",
        "all",
    )


@pytest.mark.parametrize("name", SUITE_NAMES[:-1])
def test_each_suite_passes(name):
    report = run_suite(name, 3, 1, seed=0)
    assert report, "suite produced no checks"
    for label, ok in report:
        assert ok, f"{name}: {label}"


def test_suites_are_deterministic():
    first = run_suite("qkz", 2, 1, seed=7)
    second = run_suite("qkz", 2, 1, seed=7)
    assert first == second


def test_all_suite_prefixes_labels():
    report = run_suite("all", 3, 1, seed=1)
    prefixes = {label.split(":", 1)[0] for label, _ in report}
    assert prefixes == set(SUITE_NAMES[:-1])
    assert all(ok for _, ok in report)


def test_local_suite_needs_three_sites():
    with pytest.raises(ValueError):
        run_suite("local", 2, 1, seed=0)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", 2, 1, seed=0)


def test_run_suite_merges_trials_and_drops_empty_rows(monkeypatch):
    def rows(length, trials, rng):
        for trial in range(trials):
            yield "every trial", [True, True]
            yield "fails in the second trial", [trial == 0]
            yield "no instance", []
            yield "first instance in the second trial", [True] * trial

    monkeypatch.setitem(verify._SUITES, "algebra", (rows, 1))
    assert run_suite("algebra", 1, 2, seed=0) == [
        ("every trial", True),
        ("fails in the second trial", False),
        ("first instance in the second trial", True),
    ]


@pytest.mark.parametrize("name, rows", [("algebra", 3), ("transfer", 7), ("qkz", 4), ("degree", 3)])
def test_one_site_reports_only_rows_that_checked_something(name, rows):
    # L = 1 has two walls and no bulk index, so the bulk, braid and
    # distant-generator rows have no instance and are left out.
    report = run_suite(name, 1, 1, seed=0)
    assert len(report) == rows
    assert all(ok for _, ok in report)
    for label, _ in report:
        assert not any(word in label for word in ("bulk", "braid", "distant"))
