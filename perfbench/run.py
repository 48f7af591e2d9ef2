"""gtftlab benchmark entry point.

    python3 perfbench/run.py --workload {agents,exact,montecarlo} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; gtftlab is imported from its
``src`` directory, with no build step. Each workload runs in a fresh
single-threaded interpreter (bench.py), which pins the BLAS and OpenMP
thread counts to 1 before numpy loads, so that peak memory and set-up
time belong to that workload alone. Set-up time is the median over
SETUP_RUNS further fresh interpreters, each timed from spawn until it
has imported gtftlab and built the workload's inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The exit code is non-zero, with no result printed, when the
benchmark itself cannot run, for example when the checkout holds no
gtftlab sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
SETUP_RUNS = 5
TIMEOUT_S = 170.0


def setup_seconds(cmd: list[str], timeout: float) -> float:
    """Wall time from spawning a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=timeout)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up run exited {proc.returncode} without reporting ready")
    return elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="gtftlab benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gtftlab" / "__init__.py").is_file():
        print(f"error: no gtftlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIMEOUT_S
    base = [sys.executable, str(BENCH), "--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup = []
        if not args.trace:
            setup = [setup_seconds(base + ["--setup-only"], TIMEOUT_S) for _ in range(SETUP_RUNS)]
        proc = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--metrics", ",".join(m["name"] for m in wanted)],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload run exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    values = dict(result["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
