"""The ``agents`` workload: population trajectories, one-step resampling, CLI simulate.

Three configs share the trajectory sweep. ``small`` is the n=40, k=3
population of the acceptance suite; ``large`` has n=1000 and m=700 GTFT
nodes, so per-record work is large next to per-step work; ``distinct``
is ``small`` under distinct-pair pairing. A minority of tasks resample
one step from z0=(7,6,7), and a minority run ``gtftlab simulate`` through
``cli.main`` with the seed of a ``small`` trajectory, so that the CSV it
writes can be compared row by row with that trajectory.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

import numpy as np

from gtftlab import cli, ehrenfest, population
from gtftlab.ehrenfest import EhrenfestParams
from gtftlab.population import PopulationConfig
from gtftlab.rng import stream

from common import Z_BOUND, Task, Workload, fail_all, pull, tv_bound

CONFIGS = {
    "small": PopulationConfig(n=40, alpha=0.25, beta=0.25, k=3, g_hat=0.25),
    "large": PopulationConfig(n=1000, alpha=0.2, beta=0.1, k=6, g_hat=0.25),
    "distinct": PopulationConfig(
        n=40, alpha=0.25, beta=0.25, k=3, g_hat=0.25, pairing="distinct-pair"
    ),
}
# (trajectories, interactions per trajectory); records every n interactions.
# The large trajectories are the slowest tasks and over a tenth of them, so
# task_p90_s falls inside their cluster rather than on its edge.
TRAJECTORIES = {"small": (36, 25_000), "large": (16, 60_000), "distinct": (30, 25_000)}
# These start from a draw of their stationary law, so a whole trajectory
# tests that the law is invariant and needs no long burn-in.
STATIONARY_START = ("large",)
CLI_RUNS = 10  # the first CLI_RUNS small trajectories share their seed with a CLI run
ONE_STEP_TASKS, ONE_STEP_SAMPLES, Z0 = 20, 12_000, (7, 6, 7)
# Records kept for the stationary checks are THIN records apart. A label
# gets one move chance per record on average, so for these configs its
# chain forgets its start by a factor of at most 0.62 per record, and 16
# records leave a correlation below 1e-3 between kept samples.
THIN = 16


def stationary_law(cfg: PopulationConfig):
    """Exact stationary law of the count vector under the config's pairing.

    Under distinct-pair pairing a GTFT initiator meets a defector with
    probability n_D/(n-1), so the count vector is the urn walk with those
    weights; its law comes from the urn walk's closed form.
    """
    if cfg.pairing == "idealized":
        return population.stationary_of_population(cfg)
    share = cfg.m / cfg.n
    a = share * (cfg.n - 1 - cfg.n_alld) / (cfg.n - 1)
    b = share * cfg.n_alld / (cfg.n - 1)
    return ehrenfest.stationary_closed(EhrenfestParams(k=cfg.k, a=a, b=b, m=cfg.m))


def burn_in_records(name: str) -> int:
    if name in STATIONARY_START:
        return 0
    cfg = CONFIGS[name]
    return math.ceil(ehrenfest.mixing_bound(population.to_ehrenfest(cfg)) / cfg.n)


def _run_task(cfg, steps, rng_key, init):
    def fn(tr):
        tr.add("population.run.steps", steps)
        _count_interactions(tr, cfg, steps)
        # list() consumes the trajectory inside the span, should run() ever stream its rows
        rows = tr.call(
            "population.run",
            lambda: list(population.run(cfg, steps, cfg.n, stream(*rng_key), init)),
        )
        tr.add("population.run.records", len(rows))
        return rows

    return fn


def _one_step_task(cfg, rng_key):
    def fn(tr):
        tr.add("population.one_step.samples", ONE_STEP_SAMPLES)
        _count_interactions(tr, cfg, ONE_STEP_SAMPLES)
        return tr.call(
            "population.one_step",
            population.sample_one_step_counts, cfg, Z0, ONE_STEP_SAMPLES, stream(*rng_key),
        )

    return fn


def _cli_task(cfg, steps, seed, out: Path):
    argv = [
        "simulate", "--n", str(cfg.n), "--alpha", str(cfg.alpha), "--beta", str(cfg.beta),
        "--k", str(cfg.k), "--g-hat", str(cfg.g_hat), "--steps", str(steps),
        "--seed", str(seed), "--out", str(out),
    ]

    def fn(tr):
        _count_interactions(tr, cfg, steps)
        code = tr.call("cli.simulate", cli.main, argv)
        tr.add("cli.simulate.csv_mb", out.stat().st_size / 1e6)
        return code

    return fn


def _count_interactions(tr, cfg, steps):
    """Null interactions (non-GTFT initiator) as expected from the config alone."""
    tr.add("population.interactions", steps)
    tr.add("population.null_interactions", steps * (cfg.n - cfg.m) / cfg.n)


def build(seed: int, tmpdir: Path) -> Workload:
    gen = np.random.default_rng(seed)
    cli_seeds = [int(s) for s in gen.choice(2**31, size=CLI_RUNS, replace=False)]
    tasks: list[Task] = []
    meta: list[tuple] = []  # per task: (kind, config name, extra)

    for name, (count, steps) in TRAJECTORIES.items():
        cfg = CONFIGS[name]
        for i in range(count):
            if name == "small" and i < CLI_RUNS:
                key = (cli_seeds[i], "simulate")
            else:
                key = (seed, "agents", name, i)
            init = None
            if name in STATIONARY_START:
                init = tuple(int(c) for c in gen.multinomial(cfg.m, stationary_law(cfg).p))
            tasks.append(Task(f"run.{name}", "population", _run_task(cfg, steps, key, init)))
            meta.append(("run", name, steps))

    small = CONFIGS["small"]
    for i in range(ONE_STEP_TASKS):
        tasks.append(Task("one_step", "population", _one_step_task(small, (seed, "one-step", i))))
        meta.append(("one_step", "small", None))

    steps_cli = TRAJECTORIES["small"][1]
    for i in range(CLI_RUNS):
        out = tmpdir / f"simulate-{i}.csv"
        tasks.append(Task("cli.simulate", "cli", _cli_task(small, steps_cli, cli_seeds[i], out)))
        meta.append(("cli", "small", (i, out)))

    def check(outputs):
        return _check(meta, outputs)

    return Workload(tasks, check)


def _check_rows(cfg, steps, rows) -> str | None:
    if len(rows) != steps // cfg.n + 1:
        return f"{len(rows)} records for {steps} steps every {cfg.n}"
    grid = cfg.grid
    for r, (t, z, wg) in enumerate(rows):
        if t != r * cfg.n:
            return f"record {r} at t={t}, expected {r * cfg.n}"
        if len(z) != cfg.k or sum(z) != cfg.m or min(z) < 0:
            return f"record {r} counts {z} are not a composition of m={cfg.m}"
        if abs(wg - sum(g * c for g, c in zip(grid, z)) / cfg.m) > 1e-12:
            return f"record {r} average generosity {wg} disagrees with its counts"
    return None


def _check_stationary(cfg, samples) -> str | None:
    """Thinned post-burn-in samples against the exact stationary law."""
    law = stationary_law(cfg)
    n = len(samples)
    totals = np.sum(np.asarray(samples, dtype=float), axis=0)
    draws = cfg.m * n  # at stationarity the m labels of a sample are i.i.d.
    for j, p in enumerate(law.p):
        se = math.sqrt(draws * p * (1 - p))
        # the extra 5 balls keep urns with a handful of expected balls
        # away from the normal approximation's weak tail
        if abs(totals[j] - draws * p) > Z_BOUND * se + 5:
            return f"urn {j + 1}: {totals[j]:.0f} balls, expected {draws * p:.1f} +- {se:.1f}"
    if cfg.m <= 20:
        states = ehrenfest.enumerate_states(cfg.k, cfg.m)
        pmf = [law.pmf(x) for x in states]
        hist = Counter(samples)
        tv = 0.5 * sum(abs(hist.get(x, 0) / n - q) for x, q in zip(states, pmf))
        limit = tv_bound(pmf, n)
    else:
        tv = 0.5 * float(np.abs(totals / draws - np.asarray(law.p)).sum())
        limit = tv_bound(law.p, draws)
    if tv > limit:
        return f"pooled TV {tv:.4f} exceeds {limit:.4f} over {n} samples"
    return None


def _check(meta, outputs) -> dict[int, str]:
    failures: dict[int, str] = {}
    pools: dict[str, list[int]] = {name: [] for name in CONFIGS}
    for i, ((kind, name, extra), out) in enumerate(zip(meta, outputs)):
        if kind == "run" and out is not None:
            reason = _check_rows(CONFIGS[name], extra, out)
            if reason:
                failures[i] = reason
            pools[name].append(i)

    for name, members in pools.items():
        usable = [i for i in members if i not in failures]
        if not usable:
            continue
        skip = burn_in_records(name)
        samples = [z for i in usable for _, z, _ in outputs[i][skip::THIN]]
        reason = _check_stationary(CONFIGS[name], samples)
        if reason:
            fail_all(failures, usable, f"{name}: {reason}")

    one_step = [i for i, m in enumerate(meta) if m[0] == "one_step" and outputs[i] is not None]
    if one_step:
        counts: Counter = Counter()
        for i in one_step:
            counts.update(outputs[i])
        total = sum(counts.values())
        row = ehrenfest.transition_row(Z0, population.to_ehrenfest(CONFIGS["small"]))
        stray = set(counts) - set(row)
        worst = max(
            pull(counts.get(y, 0) / total, p, math.sqrt(p * (1 - p) / total))
            for y, p in row.items()
        )
        if stray or worst > Z_BOUND:
            fail_all(failures, one_step, f"one-step: worst pull {worst:.2f}, stray {sorted(stray)}")

    runs_small = [i for i, m in enumerate(meta) if m[0] == "run" and m[1] == "small"]
    for i, (kind, _, extra) in enumerate(meta):
        if kind != "cli" or outputs[i] is None:
            continue
        if outputs[i] != cli.EXIT_OK:
            failures[i] = f"simulate exited {outputs[i]}"
            continue
        reference = outputs[runs_small[extra[0]]]
        reason = _check_csv(extra[1], reference)
        if reason:
            failures[i] = reason
    return failures


def _check_csv(path: Path, rows) -> str | None:
    """The CLI's CSV must repeat run() on the same substream, value for value."""
    if rows is None:
        return "reference trajectory missing"
    lines = path.read_text().splitlines()[1:]
    if len(lines) != len(rows):
        return f"CSV has {len(lines)} rows, run() gave {len(rows)}"
    for line, (t, z, wg) in zip(lines, rows):
        fields = line.split(",")
        if int(fields[0]) != t or tuple(int(v) for v in fields[1:-1]) != z or float(fields[-1]) != wg:
            return f"CSV row {line!r} differs from run() record {(t, z, wg)}"
    return None
