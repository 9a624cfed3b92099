"""Run one measopt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload optimize_2d --seed 1 --seconds 25 --trace 0

Every operation runs in a closed loop: one client in this process, each
call started when the previous one has returned.  The workload's fixed
batch of operations is repeated until ``--seconds`` would be exceeded
(at least twice), and every output is checked after its batch.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` is the median
batch time, ``setup_s`` the median of five set-ups (this process and
four fresh interpreters), both rescaled to the reference host speed of
``hostspeed.py``.  ``--trace 1`` alternates untraced and traced batches
and prints the per-layer metrics of the median traced batch;
``trace.overhead_s`` is its rescaled time minus the median untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment.  Full records, and the spans of the first
traced batch, are written under ``perfbench/out/``.  Without
``src/measopt`` in the checkout the script exits with status 2 and
prints no result.
"""
import os

# one BLAS thread, set before numpy is first imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ok_frac": "frac",
                    "f_final_ratio": "ratio", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "frac"
    if name.endswith("us_per_iter"):
        return "us"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


class SourcesMissing(RuntimeError):
    """The checkout has no ``src/measopt`` to benchmark."""


def import_measopt():
    """Import measopt from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "measopt" / "__init__.py").is_file():
        raise SourcesMissing(f"no measopt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import measopt
    for name in ("cli", "control", "experiments", "grid", "kernels",
                 "measures", "nonlinearity", "solver"):
        __import__(f"measopt.{name}")
    if Path(measopt.__file__).resolve().parent != SRC / "measopt":
        raise SourcesMissing(f"measopt imported from {measopt.__file__}, not {SRC}")
    return measopt


def timed_setup(workload: str, seed: int, workdir: Path):
    """Import measopt and the workloads (numpy with them), generate the
    inputs and warm up; returns the seconds.  Nothing here is imported
    before the clock starts, in this process or a fresh one."""
    t0 = time.perf_counter()
    mo = import_measopt()
    import workloads
    wl = workloads.WORKLOADS[workload](mo, seed, workdir)
    wl.warm_up()
    return mo, wl, time.perf_counter() - t0


def setup_reference_s(seconds: float) -> float:
    """Rescale a set-up time to the reference host speed, probed right after."""
    probe = hostspeed.Probe()
    speed = statistics.median(probe.time() for _ in range(3))
    return seconds * hostspeed.REFERENCE_S / speed


def probe_setups(workload: str, seed: int, count: int):
    """Time ``count`` set-ups, each in a fresh interpreter, one after another."""
    results = []
    for k in range(count):
        workdir = OUT / f"work-{os.getpid()}-probe{k}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                 str(workdir)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


class Batch:
    """Timings and check results of one pass over the workload's operations.

    ``samples`` holds host speed probe times in the order they were taken;
    operation ``i`` ran between ``samples[spans[i][0] - 1]`` and
    ``samples[spans[i][1]]``, with any samples in between taken inside it.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_walls = []
        self.samples = []
        self.spans = []
        self.attempted = 0
        self.failures = []
        self.tracer = None

    @property
    def wall_s(self) -> float:
        return sum(self.op_walls)

    @property
    def reference_s(self) -> float:
        """Wall time rescaled to the reference host speed."""
        return sum(w * hostspeed.REFERENCE_S / statistics.fmean(self.samples[lo - 1:hi + 1])
                   for w, (lo, hi) in zip(self.op_walls, self.spans))


def run_batch(mo, wl, traced: bool, keep_spans: bool, probe) -> Batch:
    """Run every operation once, then check the outputs.

    Untraced batches sample the host speed from a timer during the
    operations; traced ones probe only between operations, so that no
    probe time lands inside a span.
    """
    batch = Batch(traced)
    outputs = []
    tracer = tracing.Tracer(keep_spans=keep_spans) if traced else None
    batch.samples.append(probe.time())
    if traced:
        context, sampler = tracer.installed(mo), None
    else:
        context = sampler = hostspeed.Sampler(probe, batch.samples)
    with context:
        for op in wl.operations():
            lo, spent = len(batch.samples), sampler.spent_s if sampler else 0.0
            t0 = time.perf_counter()
            try:
                out = tracer.root(f"bench.{op.name}", op.run) if traced else op.run()
                err = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            batch.op_walls.append(wall - (sampler.spent_s - spent if sampler else 0.0))
            batch.spans.append((lo, len(batch.samples)))
            if traced:
                batch.samples.append(probe.time())
            outputs.append((op, out, err))
    batch.samples.append(probe.time())
    for op, out, err in outputs:
        batch.attempted += 1
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            batch.failures.append(f"{op.name}: {err}")
    batch.tracer = tracer
    return batch


def run_loop(mo, wl, seconds: float, trace: bool) -> list:
    """Repeat the batch until the next one would end after ``seconds``.

    At least two batches run; with ``trace`` they alternate untraced and
    traced, starting untraced.
    """
    probe = hostspeed.Probe()
    probe.time()  # first call pays for page faults and caches
    batches = []
    start = last_end = time.perf_counter()
    while True:
        traced = trace and bool(batches) and not batches[-1].traced
        keep = traced and not any(b.traced for b in batches)
        batches.append(run_batch(mo, wl, traced, keep, probe))
        now = time.perf_counter()
        estimate, last_end = now - last_end, now
        if len(batches) >= 2 and now - start + estimate > seconds:
            return batches


COUNT_SUFFIXES = ("_calls", "_iters", "_steps", "_solves", "evals", "_exits",
                  "_computed", "backtracks", "spans")


def traced_metrics(wl, batches, problems: list) -> dict:
    untraced = [b.reference_s for b in batches if not b.traced]
    traced = [b for b in batches if b.traced]
    chosen = sorted(traced, key=lambda b: b.reference_s)[(len(traced) - 1) // 2]
    metrics = tracing.layer_metrics(chosen.tracer)
    # both sides rescaled to the reference host speed, like wall_s
    metrics["trace.overhead_s"] = chosen.reference_s - statistics.median(untraced)
    for b in traced:
        problems += wl.cross_checks(b.tracer)
        layers = sum(b.tracer.layer_self(layer) for layer in tracing.LAYERS)
        wall = b.tracer.root_seconds()
        if abs(layers - wall) > 1e-9 * max(wall, 1.0):
            problems.append(f"layer self times sum to {layers!r}, traced wall is {wall!r}")
        counts = {k: v for k, v in tracing.layer_metrics(b.tracer).items()
                  if k.endswith(COUNT_SUFFIXES)}
        ref = {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
        if counts != ref:
            diff = sorted(k for k in ref if counts.get(k) != ref[k])
            problems.append(f"per-layer counts differ between traced batches: {diff}")
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(mo, wl, args) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": wl.digest,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": mo.kernels.backend_name(),
        "numba": "available" if mo.kernels.HAVE_NUMBA else "numba unavailable",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize_2d", "state_3d", "experiments_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    try:
        mo, wl, setup_s = timed_setup(args.workload, args.seed, workdir)
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = []
    setups = [{"setup_s": setup_s, "reference_s": setup_reference_s(setup_s)}]
    if not args.trace:
        for probe in probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1):
            setups.append(probe)
            if probe.pop("inputs_sha256") != wl.digest:
                problems.append("same seed generated different inputs in a fresh process")

    batches = run_loop(mo, wl, args.seconds, bool(args.trace))
    attempted = sum(b.attempted for b in batches)
    failures = [f for b in batches for f in b.failures]
    if args.trace:
        values = traced_metrics(wl, batches, problems)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(s["reference_s"] for s in setups),
            "wall_s": statistics.median(b.reference_s for b in batches),
            "ok_frac": 1.0 - len(failures) / attempted,
            "f_final_ratio": wl.f_final_ratio(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    env = environment(mo, wl, args)
    record = {"env": env, "metrics": metrics, "setups": setups,
              "reference_probe_s": hostspeed.REFERENCE_S,
              "batches": [{"traced": b.traced, "wall_s": b.wall_s, "reference_s": b.reference_s,
                           "op_walls": b.op_walls, "samples": b.samples, "spans": b.spans,
                           "failures": b.failures} for b in batches],
              "problems": problems}
    name = f"{args.workload}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        _write_spans(OUT / f"{args.workload}.spans.jsonl", batches)
    for line in failures + problems:
        print(f"perfbench: {line}", file=sys.stderr)

    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _write_spans(path: Path, batches):
    spans = next(b.tracer.spans for b in batches if b.traced and b.tracer.spans is not None)
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, parent, t0, t1) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                 "start_s": t0 - origin, "end_s": t1 - origin}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
