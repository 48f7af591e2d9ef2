"""The ``exact`` workload: a ladder of state counts through the exact layer.

The 72 tiny instances of the acceptance grid (k in 2..4, m in 1..6, four
(a, b) pairs) set the median task time, so a vectorised path with a high
fixed cost shows there. Four large instances, 1,771 to 53,130 states, set
the wall time and the 90th percentile. Each is solved, enumerated and
evaluated under the closed form, and checked for detailed balance, as
separate tasks, so the per-state cost of each step is measured on its
own; the two smaller ones also build their kernel as a task. Small TV
scans, the enumerated granular payoff at k=6, m=20 and one
``gtftlab stationary --exact`` complete the sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gtftlab import cli, ehrenfest, meanfield
from gtftlab.ehrenfest import EhrenfestParams, state_count
from gtftlab.games import GameConfig, RewardVector

from common import Task, Workload

TINY_PAIRS = ((0.2, 0.6), (0.3, 0.3), (0.5, 0.25), (0.6, 0.2))
# (k, m, a, b); power iteration converges in about 3,000 to 5,000 sweeps at these weights.
# The kernel build is timed as a task of its own on the first two; on all
# four it also runs inside the solve.
LARGE = ((4, 20, 0.7, 0.3), (5, 20, 0.7, 0.3), (4, 60, 0.7, 0.3), (6, 20, 0.7, 0.3))
SEPARATE_BUILD = LARGE[:2]
TMIX = ((2, 8, 0.25, 0.25), (2, 16, 0.25, 0.25), (3, 6, 0.5, 0.25), (3, 10, 0.4, 0.2),
        (4, 5, 0.7, 0.2), (4, 8, 0.7, 0.2), (5, 4, 0.3, 0.3), (3, 20, 0.375, 0.125))
TV_SCANS = ((3, 10, 0.4, 0.2), (4, 8, 0.7, 0.2))
TV_TIMES = (0, 10, 20, 40)
GAME = GameConfig(delta=0.9, s1=0.5, g_hat=0.25)
DONATION = RewardVector.donation(3, 2)
GRANULAR = (0.25, 0.25, 40, 6)  # alpha, beta, n, k: m = 20 GTFT nodes
STATIONARY_CLI = (4, 0.7, 0.3, 20)  # k, a, b, m

EXACT_TOL = 1e-10
BALANCE_TOL = 1e-12


def _solve(params):
    def fn(tr):
        tr.add("ehrenfest.kernel.builds", 1)
        tr.add("ehrenfest.solve.states", state_count(params.k, params.m))
        return tr.call("ehrenfest.solve", ehrenfest.solve_stationary_exact, params)

    return fn


def _balance(params):
    def fn(tr):
        tr.add("ehrenfest.balance.states", state_count(params.k, params.m))
        return tr.call("ehrenfest.balance", ehrenfest.detailed_balance_residual, params)

    return fn


def _tmix(params):
    def fn(tr):
        tr.add("ehrenfest.kernel.builds", 1)
        return tr.call("ehrenfest.tmix", ehrenfest.tmix_exact, params)

    return fn


def _tv(params, t, x0):
    def fn(tr):
        tr.add("ehrenfest.kernel.builds", 1)
        return tr.call("ehrenfest.tv", ehrenfest.tv_distance_exact, params, t, x0)

    return fn


def _kernel(params):
    def fn(tr):
        tr.add("ehrenfest.kernel.builds", 1)
        tr.add("ehrenfest.kernel.states", state_count(params.k, params.m))
        states, _, kernel = tr.call("ehrenfest.kernel", ehrenfest.build_kernel, params)
        return len(states), kernel

    return fn


def _pmf(params):
    """Enumerate the states, then evaluate the closed-form law on each, as the CLI does."""

    def fn(tr):
        n = state_count(params.k, params.m)
        tr.add("ehrenfest.enumerate.states", n)
        tr.add("ehrenfest.pmf.states", n)
        states = tr.call("ehrenfest.enumerate", ehrenfest.enumerate_states, params.k, params.m)
        dist = ehrenfest.stationary_closed(params)
        return states, tr.call("ehrenfest.pmf", lambda: np.array([dist.pmf(x) for x in states]))

    return fn


def _granular(enumerate_counts):
    alpha, beta, n, k = GRANULAR
    name = "meanfield.granular_enum" if enumerate_counts else "meanfield.granular"

    def fn(tr):
        if enumerate_counts:
            tr.add("meanfield.granular_enum.states", state_count(k, round((1 - alpha - beta) * n)))
        return tr.call(
            name, meanfield.granular_expected_payoff, alpha, beta, n, k, GAME, DONATION,
            enumerate_counts=enumerate_counts,
        )

    return fn


def _cli_stationary(out: Path):
    k, a, b, m = STATIONARY_CLI
    argv = ["stationary", "--k", str(k), "--a", str(a), "--b", str(b), "--m", str(m),
            "--exact", "--out", str(out)]

    def fn(tr):
        return tr.call("cli.stationary", cli.main, argv)

    return fn


def build(seed: int, tmpdir: Path) -> Workload:
    gen = np.random.default_rng(seed)
    tasks: list[Task] = []
    meta: list[tuple] = []  # per task: (kind, params, extra)

    def add(name, fn, kind, params=None, extra=None):
        label = f"{name}[k={params.k},m={params.m}]" if params else name
        tasks.append(Task(label, name.split(".")[0], fn))
        meta.append((kind, params, extra))

    for k in (2, 3, 4):
        for m in range(1, 7):
            for a, b in TINY_PAIRS:
                params = EhrenfestParams(k=k, a=a, b=b, m=m)
                add("ehrenfest.solve", _solve(params), "solve", params)
                add("ehrenfest.balance", _balance(params), "balance", params)
    for k, m, a, b in TMIX:
        params = EhrenfestParams(k=k, a=a, b=b, m=m)
        add("ehrenfest.tmix", _tmix(params), "tmix", params)
    for k, m, a, b in TV_SCANS:
        params = EhrenfestParams(k=k, a=a, b=b, m=m)
        states = ehrenfest.enumerate_states(k, m)
        x0 = states[int(gen.integers(len(states)))]
        for t in TV_TIMES:
            add("ehrenfest.tv", _tv(params, t, x0), "tv", params, (t, x0))

    for k, m, a, b in LARGE:
        params = EhrenfestParams(k=k, a=a, b=b, m=m)
        if (k, m, a, b) in SEPARATE_BUILD:
            add("ehrenfest.kernel", _kernel(params), "kernel", params)
        add("ehrenfest.solve", _solve(params), "solve_large", params)
        add("ehrenfest.pmf", _pmf(params), "pmf", params)
        add("ehrenfest.balance", _balance(params), "balance", params)

    add("meanfield.granular_enum", _granular(True), "granular_enum")
    add("meanfield.granular", _granular(False), "granular")
    out = tmpdir / "stationary.json"
    add("cli.stationary", _cli_stationary(out), "cli", extra=out)

    def check(outputs):
        return _check(meta, outputs)

    return Workload(tasks, check)


def _check(meta, outputs) -> dict[int, str]:
    failures: dict[int, str] = {}
    pmf_of = {}
    for (kind, params, _), out in zip(meta, outputs):
        if kind == "pmf" and out is not None:
            pmf_of[params] = out
    tv_runs: dict[tuple, list[tuple[int, int, float]]] = {}
    granular = {}

    for i, ((kind, params, extra), out) in enumerate(zip(meta, outputs)):
        if out is None:
            continue
        reason = None
        if kind in ("solve", "solve_large"):
            states, pi = out
            if kind == "solve":  # tiny: the reference is computed here
                ref_states = ehrenfest.enumerate_states(params.k, params.m)
                closed = ehrenfest.stationary_closed(params)
                reference = (ref_states, np.array([closed.pmf(x) for x in ref_states]))
            else:
                reference = pmf_of.get(params)
            if reference is None:
                reason = "closed-form pmf task missing"
            elif states != reference[0]:
                reason = "solver states differ from the enumeration"
            elif np.abs(pi - reference[1]).max() > EXACT_TOL:
                reason = f"solver off closed form by {np.abs(pi - reference[1]).max():.2e}"
        elif kind == "balance":
            if not 0 <= out <= BALANCE_TOL:
                reason = f"balance residual {out:.2e}"
        elif kind == "tmix":
            if out.t_hat > ehrenfest.mixing_bound(params):
                reason = f"tmix {out.t_hat} above bound {ehrenfest.mixing_bound(params):.0f}"
        elif kind == "tv":
            tv_runs.setdefault((params, extra[1]), []).append((i, extra[0], out))
        elif kind == "kernel":
            n, kernel = out
            rows = np.asarray(kernel.sum(axis=1)).ravel()
            if kernel.shape != (n, n) or np.abs(rows - 1).max() > 1e-12 or kernel.min() < 0:
                reason = "kernel is not a stochastic matrix on the enumerated states"
        elif kind == "pmf":
            states, pmf = out
            if len(set(states)) != state_count(params.k, params.m):
                reason = f"{len(set(states))} distinct states enumerated"
            elif abs(pmf.sum() - 1) > 1e-12:
                reason = f"closed-form pmf sums to {pmf.sum()}"
        elif kind in ("granular", "granular_enum"):
            granular[kind] = (i, out.granular)
        elif kind == "cli":
            reason = _check_cli(out, extra)
        if reason:
            failures[i] = reason

    for (params, x0), scan in tv_runs.items():
        scan.sort(key=lambda item: item[1])
        values = [tv for _, _, tv in scan]
        start = 1 - ehrenfest.stationary_closed(params).pmf(x0)
        ok = abs(values[0] - start) <= EXACT_TOL if scan[0][1] == 0 else True
        ok = ok and all(b <= a + EXACT_TOL for a, b in zip(values, values[1:]))
        if not ok:
            for i, _, _ in scan:
                failures.setdefault(i, f"TV scan from {x0} not decreasing from 1 - pi(x0): {values}")

    if len(granular) == 2:
        (i, enum), (j, closed) = granular["granular_enum"], granular["granular"]
        if abs(enum - closed) > EXACT_TOL * max(1.0, abs(closed)):
            failures.setdefault(i, f"enumerated granular {enum!r} != closed form {closed!r}")
    return failures


def _check_cli(code, out: Path) -> str | None:
    if code != cli.EXIT_OK:
        return f"stationary exited {code}"
    report = json.loads(out.read_text())["exact_solver"]
    k, _, _, m = STATIONARY_CLI
    if report["n_states"] != state_count(k, m):
        return f"stationary solved {report['n_states']} states"
    if report["max_pointwise_diff"] > EXACT_TOL or report["detailed_balance_residual"] > BALANCE_TOL:
        return f"stationary --exact disagrees with the closed form: {report}"
    return None
