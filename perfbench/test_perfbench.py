"""Self-tests of the benchmark: seeded inputs, repeatable counts, cross-checks.

    python3 -m pytest -q perfbench

They use reduced sizes of the real workloads so they finish in seconds.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent

mo = run.import_measopt()


@pytest.fixture(autouse=True)
def _small_sizes(monkeypatch):
    """Shrink the workloads so that each test finishes in seconds."""
    monkeypatch.setattr(workloads.Optimize2D, "MAX_ITER", 3)
    monkeypatch.setattr(workloads.Optimize2D, "STRATA", ((1, 1), (2, 3)))
    monkeypatch.setattr(workloads.State3D, "LADDER", (15, 31))


def _small(name, seed, workdir):
    return workloads.WORKLOADS[name](mo, seed, workdir)


@pytest.mark.parametrize("name", ["optimize_2d", "state_3d", "experiments_cli"])
def test_same_seed_same_inputs(tmp_path, name):
    a = _small(name, 7, tmp_path / "a")
    b = _small(name, 7, tmp_path / "b")
    c = _small(name, 8, tmp_path / "c")
    assert a.digest == b.digest
    assert a.digest != c.digest


def test_experiment_inputs_are_byte_identical(tmp_path):
    workloads.ExperimentsCli(mo, 3, tmp_path / "a")
    workloads.ExperimentsCli(mo, 3, tmp_path / "b")
    files_a = sorted((tmp_path / "a").rglob("*.*"))
    assert files_a
    for fa in files_a:
        fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
        assert fa.read_bytes() == fb.read_bytes(), fa.name


def _traced(wl):
    batch = run.run_batch(mo, wl, traced=True, keep_spans=True, probe=hostspeed.Probe())
    assert batch.failures == []
    return batch.tracer


@pytest.mark.parametrize("name", ["optimize_2d", "state_3d"])
def test_two_traced_runs_give_identical_counts(tmp_path, name):
    first = tracing.layer_metrics(_traced(_small(name, 5, tmp_path / "a")))
    second = tracing.layer_metrics(_traced(_small(name, 5, tmp_path / "b")))
    counts = [k for k in first if k.endswith(run.COUNT_SUFFIXES)]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_krylov_iterations_match_cg_reports(tmp_path):
    wl = _small("state_3d", 11, tmp_path)
    tracer = _traced(wl)
    m = tracing.layer_metrics(tracer)
    assert m["kernels.cg_calls"] > 0 and m["solver.lu_factor_calls"] > 0
    assert m["kernels.krylov_iters"] == tracer.counters["solver.report_cg_inner"]
    assert wl.cross_checks(tracer) == []


def test_adjoint_solves_match_linear_spans_under_optimize(tmp_path):
    wl = _small("optimize_2d", 11, tmp_path)
    tracer = _traced(wl)
    m = tracing.layer_metrics(tracer)
    assert m["control.adjoint_solves"] > m["control.optimize_calls"]
    assert m["control.adjoint_solves"] == tracer.calls("solver.linear", "control.optimize")
    # every span in the kept record points to an earlier parent
    assert all(p is None or p < i for i, (_, p, _, _) in enumerate(tracer.spans))


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    tracer = _traced(_small("state_3d", 2, tmp_path))
    m = tracing.layer_metrics(tracer)
    total = m["nonlinearity.s"] + sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS
                                      if layer != "nonlinearity")
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_untraced_batch_samples_host_speed_inside_long_operations(tmp_path):
    batch = run.run_batch(mo, _small("state_3d", 3, tmp_path), traced=False,
                          keep_spans=False, probe=hostspeed.Probe())
    assert batch.failures == []
    lo, hi = batch.spans[-1]  # the n=31 CG solve outlasts the sampling interval
    assert hi > lo
    assert len(batch.samples) == batch.spans[-1][1] + 1
    assert 0.0 < batch.reference_s


def test_tracer_restores_the_package(tmp_path):
    before = (mo.solver._solve_shifted, mo.solver.spla, mo.kernels.cg_shifted,
              mo.cli.optimize_problem, mo.nonlinearity.Nonlinearity.__call__)
    with tracing.Tracer().installed(mo):
        assert mo.solver._solve_shifted is not before[0]
        assert mo.cli.optimize_problem is not before[3]
    after = (mo.solver._solve_shifted, mo.solver.spla, mo.kernels.cg_shifted,
             mo.cli.optimize_problem, mo.nonlinearity.Nonlinearity.__call__)
    assert after == before


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: run.per_layer_unit(n) for n in names}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optimize_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
