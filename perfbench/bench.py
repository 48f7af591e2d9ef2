"""Runs one workload in this (fresh) interpreter and prints its metrics as JSON.

Started by run.py, never imported. With ``--setup-only`` it imports
gtftlab, builds the workload's inputs from the seed, prints ``ready`` and
exits, so that the parent can time set-up from process start. Otherwise
it repeats the workload's fixed task sweep, closed loop on one thread,
until another sweep would overrun ``--seconds`` (but at least twice when
untraced), checks every sweep's
outputs after its timed phase, and prints one JSON line: the end-to-end
metrics measured without tracing, or with ``--trace 1`` the per-layer
metrics from traced sweeps interleaved with untraced ones.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import NullTracer, Tracer, busy, busy_by_name, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("agents", "exact", "montecarlo")


def run_sweep(workload, tracer, order):
    """One pass over the tasks in ``order``; returns wall time, task times, outputs, errors.

    Task times and outputs are indexed like ``workload.tasks``.
    """
    n = len(workload.tasks)
    durations, outputs, errors = [0.0] * n, [None] * n, {}
    start = time.perf_counter()
    for i in order:
        task = workload.tasks[i]
        tracer.begin_task(i)
        t0 = time.perf_counter()
        try:
            outputs[i] = task.fn(tracer)
        except Exception:  # a failed operation is counted, and the sweep goes on
            errors[i] = traceback.format_exc(limit=-2)
        durations[i] = time.perf_counter() - t0
        tracer.end_task(task.name)
    return time.perf_counter() - start, durations, outputs, errors


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(names, tracer, traced_walls, untraced_walls, failed_by_layer):
    busy_names = busy_by_name(tracer.spans)
    counts = tracer.counts
    sweeps = len(traced_walls)
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        elif name == "population.null_frac":
            total = counts.get("population.interactions", 0)
            value = counts.get("population.null_interactions", 0) / total if total else 0.0
        elif name.endswith(".failed"):
            value = failed_by_layer.get(name.removesuffix(".failed"), 0)
        elif name.endswith(".share"):
            value = busy(busy_names, name.removesuffix(".share")) / sum(traced_walls)
        elif name.endswith(".busy_s"):
            value = busy(busy_names, name.removesuffix(".busy_s")) / sweeps
        elif name.endswith("_per_s"):
            span = name.removesuffix("_per_s").rsplit(".", 1)[0]
            spent = busy(busy_names, span)
            value = counts.get(name.removesuffix("_per_s"), 0) / spent if spent else 0.0
        else:  # a count, per traced sweep
            value = counts.get(name, 0) / sweeps
        out[name] = value
    return out


def print_breakdown(tracer, sweeps):
    """Per-span self time and the slowest task spans, for reading a traced run by eye."""
    calls = Counter(s.name for s in tracer.spans)
    print("span name: calls per sweep, self time per sweep (s)", file=sys.stderr)
    for name, spent in sorted(busy_by_name(tracer.spans).items(), key=lambda kv: -kv[1]):
        if not name.startswith("task."):
            print(f"  {name}: {calls[name] / sweeps:g}, {spent / sweeps:.6f}", file=sys.stderr)
    own = self_times(tracer.spans)
    tasks = sorted((s for s in tracer.spans if s.parent is None), key=lambda s: s.start - s.end)
    print("slowest tasks: duration (s), glue self time (s)", file=sys.stderr)
    for s in tasks[:12]:
        print(f"  {s.name}: {s.end - s.start:.6f}, {own[s.span_id]:.6f}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--metrics", default="", help="comma-separated per-layer metrics to report")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import gtftlab

    if not Path(gtftlab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"gtftlab imported from {gtftlab.__file__}, not from {ROOT / 'src'}")

    module = importlib.import_module(args.workload)
    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = module.build(args.seed, tmpdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0

        # One fixed shuffle, the same for every seed and sweep, spreads each
        # kind of task over the whole sweep, so that a burst of host load
        # does not fall on one kind alone.
        order = random.Random(0).sample(range(len(workload.tasks)), len(workload.tasks))
        null, tracer = NullTracer(), Tracer()
        modes = (null, tracer) if args.trace else (null,)
        min_rounds = 1 if args.trace else 2  # untraced medians never rest on one sweep
        walls = {null: [], tracer: []}
        task_total = [0.0] * len(workload.tasks)  # each task's untraced time, summed over sweeps
        attempted = 0
        failed_by_layer: Counter = Counter()
        peak_rss_mb = None
        begin = time.perf_counter()
        rounds = 0
        while True:
            for tr in modes:
                wall, times, outputs, errors = run_sweep(workload, tr, order)
                walls[tr].append(wall)
                if tr is null:
                    task_total = [a + b for a, b in zip(task_total, times)]
                failures = {i: e.strip().splitlines()[-1] for i, e in errors.items()}
                for i, reason in workload.check(outputs).items():
                    failures.setdefault(i, reason)
                attempted += len(workload.tasks)
                for i, reason in sorted(failures.items()):
                    failed_by_layer[workload.tasks[i].layer] += 1
                    print(f"FAILED {workload.tasks[i].name} (task {i}): {reason}", file=sys.stderr)
                for e in list(errors.values())[:1]:
                    print(e, file=sys.stderr)
                del outputs
                if peak_rss_mb is None:
                    # set-up plus one sweep and its check; later sweeps repeat the same work
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds += 1
            elapsed = time.perf_counter() - begin
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
                break

        names = [n for n in args.metrics.split(",") if n]
        # a task's mean over the sweeps averages out host-load swings that
        # last a few seconds; the percentiles are then taken across tasks
        task_mean = [t / len(walls[null]) for t in task_total]
        if args.trace:
            metrics = layer_metrics(names, tracer, walls[tracer], walls[null], failed_by_layer)
        else:
            metrics = {
                "wall_s": statistics.median(walls[null]),
                "task_p50_s": percentile(task_mean, 0.5),
                "task_p90_s": percentile(task_mean, 0.9),
                "peak_rss_mb": peak_rss_mb,
            }
        print(
            f"{args.workload}: {len(workload.tasks)} tasks per sweep (the task percentiles' "
            f"sample count), untraced sweeps (s) {walls[null]}"
            + (f", traced sweeps (s) {walls[tracer]}" if args.trace else ""),
            file=sys.stderr,
        )
        if args.trace:
            print_breakdown(tracer, len(walls[tracer]))
            spans = ROOT / ".perfbench-trace" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            tracer.write(spans)
            print(f"spans and counters written to {spans}", file=sys.stderr)
        print(json.dumps({
            "attempted": attempted,
            "failed": sum(failed_by_layer.values()),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
