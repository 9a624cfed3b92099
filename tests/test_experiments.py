import json
import math
from pathlib import Path

import numpy as np
import pytest

from measopt import (ControlProblem, DiscreteMeasure, Nonlinearity,
                     build_grid, constant_field, evaluate_cost, kernels,
                     list_experiments, mollify, run_experiment, scale,
                     solve_semilinear)

EXPECTED_NAMES = ["exp_dirac_collapse", "exp_nonconvexity",
                  "exp_truncation_suite", "exp_regularity_suite",
                  "exp_mollification_stability"]


def _statuses(report):
    return {a.name: a.status for a in report.assertions}


def test_registry_names_and_order():
    assert list_experiments() == EXPECTED_NAMES


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_experiment("exp_perpetual_motion", output_dir=tmp_path)


# ---------------------------------------------------------------------------
# collapse schedule (expensive; shared across assertions)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def collapse_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("collapse")
    return run_experiment("exp_dirac_collapse", output_dir=out, seed=0)


def test_collapse_parameter_validation(tmp_path):
    with pytest.raises(ValueError):
        run_experiment("exp_dirac_collapse", {"q": 2.5}, output_dir=tmp_path)
    with pytest.raises(ValueError):
        run_experiment("exp_dirac_collapse", {"p_values": (0.5,)},
                       output_dir=tmp_path)


def test_collapse_absorption_and_lsc_hold(collapse_report):
    status = _statuses(collapse_report)
    assert status["absorption-per-level"] == "pass"
    assert status["tv-lsc-supercritical"] == "pass"
    assert status["tv-lsc-subcritical"] == "pass"
    assert status["subcritical-stabilization"] == "pass"


def test_collapse_limits_out_of_reach_on_these_grids(collapse_report):
    # the logarithmic collapse rate is far from its limit at n <= 63, and
    # the discrete L1 masses still grow between these levels; the honest
    # outcome is recorded as failing assertion rows
    status = _statuses(collapse_report)
    assert status["state-l1-collapse"] == "fail"
    assert status["collapse-limit-p2"] == "fail"
    assert status["collapse-limit-p3"] == "fail"
    assert collapse_report.passed is False


def test_collapse_tables_written(collapse_report):
    assert len(collapse_report.tables) == 2
    for table in collapse_report.tables:
        with open(table, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            first = fh.readline().strip().split(",")
        assert header[0] == "level"
        assert len(first) == len(header)
    summary = json.loads(Path(collapse_report.summary_path).read_text())
    l1 = summary["results"]["u_l1_supercritical"]
    assert len(l1) == 4
    assert all(v > 0.0 for v in l1)


# ---------------------------------------------------------------------------
# nonconvexity
# ---------------------------------------------------------------------------

def test_nonconvexity_passes(tmp_path):
    report = run_experiment("exp_nonconvexity", output_dir=tmp_path)
    assert report.passed
    summary = json.loads(Path(report.summary_path).read_text())
    assert summary["results"]["margin"] > 1e-6


def test_nonconvexity_p1_skips(tmp_path):
    report = run_experiment("exp_nonconvexity", {"p": 1.0}, output_dir=tmp_path)
    assert report.passed
    assert [a.status for a in report.assertions] == ["skip"]
    assert report.tables == []


def test_midpoint_gap_degenerates_exactly():
    # theta = 1 collapses the midpoint comparison to equality, and the
    # zero ray stays at F(0); both margins must vanish identically
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    mu = DiscreteMeasure.from_density(constant_field(grid, 1.0))
    u_mu, _ = solve_semilinear(grid, g, mu)
    prob = ControlProblem(grid, g, u_mu, 2.0, 0.5)
    f_mu = evaluate_cost(prob, mu)
    margin = evaluate_cost(prob, scale(mu, 1.0)) - 0.5 * (f_mu + f_mu)
    assert abs(margin) <= 1e-14
    zero = DiscreteMeasure.zero(2)
    f0 = evaluate_cost(prob, zero)
    assert evaluate_cost(prob, scale(zero, 1.5)) == f0


# ---------------------------------------------------------------------------
# truncation suite and byte-level determinism
# ---------------------------------------------------------------------------

def test_truncation_suite_passes_and_reruns_identically(tmp_path):
    params = {"instances": 30}
    report = run_experiment("exp_truncation_suite", params,
                            output_dir=tmp_path, seed=42)
    assert report.passed
    assert len(report.tables) == 2
    first = {t: Path(t).read_bytes() for t in report.tables}
    again = run_experiment("exp_truncation_suite", params,
                           output_dir=tmp_path, seed=42)
    for t in again.tables:
        assert Path(t).read_bytes() == first[t]


def test_same_seed_summaries_match_across_directories(tmp_path):
    # summary.json names its tables relative to itself; the report keeps full paths
    params = {"instances": 5, "lemma_n": 9, "truncate_n": 9}
    r1 = run_experiment("exp_truncation_suite", params, output_dir=tmp_path / "a", seed=3)
    r2 = run_experiment("exp_truncation_suite", params, output_dir=tmp_path / "b", seed=3)
    assert Path(r1.summary_path).read_bytes() == Path(r2.summary_path).read_bytes()
    summary = json.loads(Path(r1.summary_path).read_text())
    assert summary["tables"] == ["truncation_slacks.csv", "truncation_slack_histogram.csv"]
    assert r1.tables == [str(tmp_path / "a" / "exp_truncation_suite" / t)
                         for t in summary["tables"]]


def _files(folder) -> dict:
    return {str(f.relative_to(folder)): f.read_bytes() for f in sorted(folder.rglob("*.*"))}


@pytest.mark.parametrize("name, seed, params", [
    ("exp_truncation_suite", 0, {}),
    ("exp_truncation_suite", 1, {}),
    ("exp_regularity_suite", 0, {"instances": 3, "max_iter": 30}),
])
def test_serial_and_two_process_runs_write_the_same_bytes(monkeypatch, tmp_path, name, seed,
                                                          params):
    # on two CPUs the instances run on two processes; kernels._cpu_count of 1 runs them here
    run_experiment(name, params, output_dir=tmp_path / "two", seed=seed)
    monkeypatch.setattr(kernels, "_cpu_count", lambda: 1)
    run_experiment(name, params, output_dir=tmp_path / "one", seed=seed)
    assert _files(tmp_path / "two") == _files(tmp_path / "one")


def test_truncation_suite_seed_changes_tables(tmp_path):
    params = {"instances": 5, "lemma_n": 9, "truncate_n": 9}
    r1 = run_experiment("exp_truncation_suite", params,
                        output_dir=tmp_path / "a", seed=1)
    r2 = run_experiment("exp_truncation_suite", params,
                        output_dir=tmp_path / "b", seed=2)
    b1 = Path(r1.tables[0]).read_bytes()
    b2 = Path(r2.tables[0]).read_bytes()
    assert b1 != b2


def test_truncation_csv_floats_roundtrip(tmp_path):
    report = run_experiment("exp_truncation_suite",
                            {"instances": 3, "lemma_n": 9, "truncate_n": 9},
                            output_dir=tmp_path, seed=7)
    with open(report.tables[0], "r", encoding="utf-8") as fh:
        assert fh.readline().strip() == "instance,kind,slack"
        for line in fh:
            slack = line.strip().split(",")[2]
            assert repr(float(slack)) == slack


# ---------------------------------------------------------------------------
# regularity suite
# ---------------------------------------------------------------------------

def test_regularity_suite_passes(tmp_path):
    report = run_experiment("exp_regularity_suite", {"instances": 4},
                            output_dir=tmp_path, seed=0)
    assert report.passed
    names = [a.name for a in report.assertions]
    assert names == ["truncation-never-improves", "state-sup-bound",
                     "state-nonnegativity",
                     "supersolution-truncation-no-improvement",
                     "supersolution-comparison"]


# ---------------------------------------------------------------------------
# mollification stability
# ---------------------------------------------------------------------------

def test_mollification_stability_passes(tmp_path):
    report = run_experiment("exp_mollification_stability", output_dir=tmp_path)
    assert report.passed
    summary = json.loads(Path(report.summary_path).read_text())
    values = summary["results"]["f_values"]
    target = summary["results"]["f_target"]
    assert abs(values[-1] - target) <= abs(values[0] - target) + 1e-12


def test_mollification_of_zero_measure_is_exact():
    grid = build_grid(2, 9)
    g = Nonlinearity.power(2.0)
    prob = ControlProblem(grid, g, constant_field(grid, 0.3), 2.0, 0.5)
    zero = DiscreteMeasure.zero(2)
    smoothed = DiscreteMeasure.from_density(mollify(zero, 0.3, grid))
    assert evaluate_cost(prob, smoothed) == evaluate_cost(prob, zero)


# ---------------------------------------------------------------------------
# report hygiene
# ---------------------------------------------------------------------------

def test_summary_schema_and_assertion_hygiene(tmp_path):
    report = run_experiment("exp_nonconvexity", {"n": 9}, output_dir=tmp_path)
    summary = json.loads(Path(report.summary_path).read_text())
    assert set(summary) >= {"schema", "name", "seed", "parameters",
                            "assertions", "tables", "passed"}
    assert summary["schema"] == 1
    assert summary["name"] == "exp_nonconvexity"
    for row in summary["assertions"]:
        assert set(row) == {"name", "status", "detail", "reference", "tolerance"}
        assert row["status"] in ("pass", "fail", "skip")
        assert row["reference"]
        assert row["tolerance"]
    for a in report.assertions:
        assert a.reference and a.tolerance
