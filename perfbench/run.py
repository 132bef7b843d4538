"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere: the package is imported from `src/` of the checkout
that holds this file, never from an installed copy.

A run is one round of the workload's operations, drawn from the seed;
S fixes how many (`Workload.ops_for`), so two commits run at the same S
time the same operations.  --trace 0 times the round and prints the
end-to-end metrics.  --trace 1 runs the round once untraced and once
traced, writes the spans to perfbench/out/ and prints the per-layer
metrics.  Times are rescaled to the reference machine's speed by
`speed.SpeedProbe`.  The last stdout line is always the result object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 31


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name in ("openloop", "workloads") or name.startswith("openloop."):
            del sys.modules[name]


def set_up(workload: str, probe: SpeedProbe):
    """Import openloop and the workload module afresh, SETUP_REPEATS
    times; returns the last import's module and workload and the median
    import time at the reference speed.  Drawing the inputs is left out:
    its cost depends on the seed."""
    times = []
    phase_start = perf_counter()
    for _ in range(SETUP_REPEATS):
        _purge_modules()
        gc.collect()  # free the previous import before timing the next
        start = perf_counter()
        workloads = importlib.import_module("workloads")
        wl = workloads.make_workload(workload)
        times.append(probe.busy(start, perf_counter()))
    factor = probe.factor(phase_start, perf_counter())
    return workloads, wl, statistics.median(times) * factor


class Runner:
    """Closed loop: one caller, one operation at a time, each checked."""

    def __init__(self, workloads, wl, probe: SpeedProbe, tracer=None):
        self.workloads = workloads
        self.wl = wl
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_times: list[float] = []

    def run_round(self, inputs) -> float:
        """Run and check every operation of one round; returns the sum of
        the operations' times at the reference speed."""
        total = 0.0
        for inp in inputs:
            self.attempted += 1
            span = self.tracer.begin_op() if self.tracer else None
            start = perf_counter()
            try:
                out = self.wl.run(inp)
            except Exception:
                # One failed operation must not end the run: record it.
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            finally:
                end = perf_counter()
                if self.tracer:
                    self.tracer.end_op(span)
            elapsed = self.probe.scaled(start, end)
            self.op_times.append(elapsed)
            total += elapsed
            if self.tracer:
                self.tracer.counts["cli.output_bytes"] += self.wl.output_bytes(out)
            try:
                self.wl.check(inp, out)
            except self.workloads.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                self.correct = False
        return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "openloop" / "__init__.py").is_file():
        print(f"error: no openloop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    with SpeedProbe() as probe:
        try:
            workloads, wl, setup_s = set_up(args.workload, probe)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        import openloop

        if Path(openloop.__file__).resolve().parent != (SRC / "openloop").resolve():
            print(f"error: openloop imported from {openloop.__file__}", file=sys.stderr)
            return 2
        inputs = wl.make_round(args.seed, wl.ops_for(args.seconds))

        if args.trace:
            from tracer import Tracer

            plain = Runner(workloads, wl, probe)
            untraced_s = plain.run_round(inputs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = Runner(workloads, wl, probe, tracer)
                traced_s = traced.run_round(inputs)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            result = {
                "correct": plain.correct and traced.correct,
                "attempted": plain.attempted + traced.attempted,
                "failed": plain.failed + traced.failed,
            }
        else:
            runner = Runner(workloads, wl, probe)
            run_s = runner.run_round(inputs)
            metrics = {
                "run_s": (run_s, "s"),
                "op_p50_s": (statistics.median(runner.op_times) if runner.op_times else 0.0, "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            result = {"correct": runner.correct, "attempted": runner.attempted, "failed": runner.failed}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
