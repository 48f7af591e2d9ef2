"""The ``montecarlo`` workload: sampling oracles plus cheap analytic calls.

Coupling-based mixing estimates over the acceptance m- and k-sweeps,
direct coupled trials at m=8 and m=64, absorption walks and lockstep
game simulation carry the wall time; agent simulation and state
enumeration are bypassed except for two small exact mixing scans. Many
single closed-form, series and mean-field calls, each well under a
millisecond, set the median task time, so per-call overhead shows there.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from gtftlab import cli, ehrenfest, games, meanfield
from gtftlab.ehrenfest import EhrenfestParams
from gtftlab.games import ALLC, ALLD, GameConfig, RewardVector, gtft
from gtftlab.rng import stream

from common import Z_BOUND, Task, Workload, fail_all, pull

MIXING = [EhrenfestParams(k=4, a=0.7, b=0.2, m=m) for m in (8, 16, 32, 64)] + [
    EhrenfestParams(k=k, a=0.7, b=0.2, m=16) for k in (2, 4, 8, 16)
]
MIXING_TRIALS, EPSILON = 100, 0.25
COUPLED = (EhrenfestParams(k=4, a=0.7, b=0.2, m=8), EhrenfestParams(k=4, a=0.7, b=0.2, m=64))
COUPLED_TRIALS = 20  # per params; one coupled_run per task
TMIX = (EhrenfestParams(k=4, a=0.7, b=0.2, m=8), EhrenfestParams(k=2, a=0.7, b=0.2, m=16))
ABSORPTION = ((4, 0.5, 0.5), (8, 0.6, 0.2), (6, 0.3, 0.35))
ABSORPTION_TASKS, ABSORPTION_RUNS = 4, 20_000
GAME = GameConfig(delta=0.9, s1=0.5, g_hat=0.25)
DONATION = RewardVector.donation(3, 2)
GAME_OPPONENTS = (ALLC, ALLD, gtft(0.15))
GAME_TASKS, GAMES_PER_TASK = 4, 100_000
PAYOFF_CONFIGS = (GameConfig(0.9, 0.5, 0.25), GameConfig(0.6, 0.2, 0.25), GameConfig(0.3, 0.9, 0.25))
PAYOFF_REWARDS = (DONATION, RewardVector(R=3, S=0, T=5, P=1))
PAYOFF_ME = (0.0, 0.1, 0.25)
PAYOFF_OPP = (ALLC, ALLD, gtft(0.05), gtft(0.2))
SERIES_TOL = 1e-11
ALPHAS = BETAS = (0.05, 0.1, 0.2, 0.3)
KS = (2, 3, 6)
N_NODES = 100
# local-optimality preconditions hold for b=3, c=2 at each of these
LOCAL_OPT_CONFIGS = (GameConfig(0.9, 0.5, 0.25), GameConfig(0.95, 0.5, 0.25), GameConfig(0.8, 0.5, 0.1))


def _cli_argvs(seed: int, tmpdir: Path) -> dict[str, list[str]]:
    game = ["--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25"]
    return {
        "mixing": ["mixing", "--k", "4", "--a", "0.7", "--b", "0.2", "--m", "16",
                   "--trials", "100", "--seed", str(seed), "--sweep", "m=8,16",
                   "--out", str(tmpdir / "mixing.json")],
        "payoff": ["payoff", "--me", "gtft:0.2", "--opp", "alld", *game,
                   "--mc-games", "100000", "--seed", str(seed), "--out", str(tmpdir / "payoff.json")],
        "optimality": ["optimality", *game, "--alpha", "0.25", "--beta", "0.05", "--n", "100",
                       "--k", "6", "--out", str(tmpdir / "optimality.json")],
        "compare": ["compare", *game, "--k", "6", "--m", "20", "--populations",
                    "0.4,0.1;0.3,0.2;0.25,0.25;0.2,0.3;0.1,0.4", "--out", str(tmpdir / "compare.csv")],
    }


def build(seed: int, tmpdir: Path) -> Workload:
    tasks: list[Task] = []
    meta: list[tuple] = []  # per task: (kind, inputs)

    def add(name, kind, inputs, fn):
        label = f"{name}[k={inputs.k},m={inputs.m}]" if isinstance(inputs, EhrenfestParams) else name
        tasks.append(Task(label, name.split(".")[0], fn))
        meta.append((kind, inputs))

    for i, params in enumerate(MIXING):
        def fn(tr, params=params, key=(seed, "mixing", i)):
            return tr.call("ehrenfest.mixing", ehrenfest.estimate_mixing,
                           params, EPSILON, MIXING_TRIALS, stream(*key))
        add("ehrenfest.mixing", "mixing", params, fn)

    for params in COUPLED:
        x0, y0 = ehrenfest.corner_labels(params)
        for trial in range(COUPLED_TRIALS):
            def fn(tr, params=params, x0=x0, y0=y0, key=(seed, "coupled", params.m, trial)):
                tau = tr.call("ehrenfest.coupling", ehrenfest.coupled_run, params, x0, y0, stream(*key))
                tr.add("ehrenfest.coupling.trials", 1)
                tr.add("ehrenfest.coupling.steps", tau)
                return tau
            add("ehrenfest.coupling", "coupled", params, fn)

    for params in TMIX:
        def fn(tr, params=params):
            tr.add("ehrenfest.kernel.builds", 1)
            return tr.call("ehrenfest.tmix", ehrenfest.tmix_exact, params, EPSILON)
        add("ehrenfest.tmix", "tmix", params, fn)

    for walk in ABSORPTION:
        for i in range(ABSORPTION_TASKS):
            def fn(tr, walk=walk, key=(seed, "absorption", walk[0], i)):
                tr.add("ehrenfest.absorption.runs", ABSORPTION_RUNS)
                return tr.call("ehrenfest.absorption", ehrenfest.absorption_times,
                               *walk, ABSORPTION_RUNS, stream(*key))
            add("ehrenfest.absorption", "absorption", walk, fn)

    for opp in GAME_OPPONENTS:
        for i in range(GAME_TASKS):
            def fn(tr, opp=opp, key=(seed, "games", opp.kind, i)):
                pay, _, rounds = tr.call("games.simulate", games.simulate_games, gtft(0.2), opp,
                                         GAME, DONATION, GAMES_PER_TASK, stream(*key))
                tr.add("games.simulate.games", GAMES_PER_TASK)
                tr.add("games.simulate.rounds", int(rounds.sum()))
                return float(pay.mean()), float(pay.std(ddof=1) / math.sqrt(pay.size))
            add("games.simulate", "simulate", opp, fn)

    for cfg in PAYOFF_CONFIGS:
        for rv in PAYOFF_REWARDS:
            for g in PAYOFF_ME:
                for opp in PAYOFF_OPP:
                    inputs = (gtft(g), opp, cfg, rv)

                    def closed(tr, inputs=inputs):
                        tr.add("games.closed.calls", 1)
                        return tr.call("games.closed", games.expected_payoff_closed, *inputs)

                    def series(tr, inputs=inputs):
                        tr.add("games.series.calls", 1)
                        return tr.call("games.series", games.expected_payoff_series, *inputs,
                                       tol=SERIES_TOL)
                    add("games.closed", "closed", inputs, closed)
                    add("games.series", "series", inputs, series)

    for alpha in ALPHAS:
        for beta in BETAS:
            def fn(tr, alpha=alpha, beta=beta):
                tr.add("meanfield.analysis.calls", 1)
                return tr.call("meanfield.analysis", meanfield.optimal_generosity,
                               alpha, beta, N_NODES, GAME, DONATION)
            add("meanfield.analysis", "optimal", (alpha, beta), fn)
            for k in KS:
                def fn(tr, k=k, alpha=alpha, beta=beta):
                    tr.add("meanfield.analysis.calls", 1)
                    return tr.call("meanfield.analysis", meanfield.generosity_report,
                                   k, alpha, beta, N_NODES, GAME, DONATION)
                add("meanfield.analysis", "report", (k, alpha, beta), fn)
    for cfg in LOCAL_OPT_CONFIGS:
        def fn(tr, cfg=cfg):
            tr.add("meanfield.analysis.calls", 1)
            return tr.call("meanfield.analysis", meanfield.check_local_optimality, cfg, DONATION)
        add("meanfield.analysis", "local_opt", cfg, fn)

    for command, argv in _cli_argvs(seed, tmpdir).items():
        def fn(tr, command=command, argv=argv):
            return tr.call("cli." + command, cli.main, argv)
        add("cli." + command, "cli", (command, argv), fn)

    def check(outputs):
        return _check(meta, outputs)

    return Workload(tasks, check)


def _check(meta, outputs) -> dict[int, str]:
    failures: dict[int, str] = {}
    closed_of = {}
    for (kind, inputs), out in zip(meta, outputs):
        if kind == "closed" and out is not None:
            closed_of[inputs] = out
    coupled: dict[EhrenfestParams, list[tuple[int, int]]] = {}
    # sample means per (kind, inputs), pooled so that every pool of equal-size
    # tasks is tested once, with the power of all its samples
    pools: dict[tuple, list[tuple[int, float, float]]] = {}

    for i, ((kind, inputs), out) in enumerate(zip(meta, outputs)):
        if out is None:
            continue
        reason = None
        if kind in ("mixing", "tmix"):
            bound = ehrenfest.mixing_bound(inputs)
            if not 0 <= out.t_hat <= bound:
                reason = f"t_hat {out.t_hat} outside [0, bound {bound:.0f}]"
        elif kind == "coupled":
            coupled.setdefault(inputs, []).append((i, out))
        elif kind == "absorption":
            se = float(out.std(ddof=1)) / math.sqrt(out.size)
            pools.setdefault((kind, inputs), []).append((i, float(out.mean()), se))
        elif kind == "simulate":
            pools.setdefault((kind, inputs), []).append((i, *out))
        elif kind == "series":
            if inputs not in closed_of:
                reason = "closed-form task missing"
            elif abs(out - closed_of[inputs]) > 1e-9:
                reason = f"series {out!r} vs closed {closed_of[inputs]!r}"
        elif kind == "optimal":
            reason = _check_optimal(*inputs, out)
        elif kind == "report":
            if out.regime == "low" and out.gap_bound is not None and out.gap > out.gap_bound:
                reason = f"gap {out.gap} above bound {out.gap_bound}"
        elif kind == "local_opt":
            if not (out.checked and out.ok):
                reason = f"local optimality failed: {out.precondition_failures or out.violations[:3]}"
        elif kind == "cli":
            reason = _check_cli(*inputs, out)
        if reason:
            failures[i] = reason

    for (kind, inputs), members in pools.items():
        if kind == "absorption":
            expected = ehrenfest.expected_absorption_closed(*inputs)
        else:
            expected = games.expected_payoff_closed(gtft(0.2), inputs, GAME, DONATION)
        mean = sum(m for _, m, _ in members) / len(members)
        se = math.sqrt(sum(s * s for _, _, s in members)) / len(members)
        z = pull(mean, expected, se)
        if z > Z_BOUND:
            fail_all(failures, [i for i, _, _ in members],
                     f"{kind} mean {mean:.4f} is {z:.1f} se off the closed form {expected:.4f}")

    for params, trials in coupled.items():
        # coupling inequality behind mixing_bound: P(tau > bound) <= 1/4
        n = len(trials)
        late = sum(1 for _, tau in trials if tau > ehrenfest.mixing_bound(params))
        if min(tau for _, tau in trials) < 1 or late > n / 4 + Z_BOUND * math.sqrt(n * 3 / 16):
            fail_all(failures, [i for i, _ in trials], f"{late} of {n} couplings past the bound")
    return failures


def _check_optimal(alpha, beta, result) -> str | None:
    """g* must maximise the mean-field payoff over a fine grid of [0, g_hat]."""
    g_star, _ = result
    if not 0.0 <= g_star <= GAME.g_hat:
        return f"g* = {g_star} outside [0, g_hat]"
    best = meanfield.mean_field_payoff(g_star, alpha, beta, GAME, DONATION)
    grid = np.linspace(0.0, GAME.g_hat, 101)
    top = max(meanfield.mean_field_payoff(float(g), alpha, beta, GAME, DONATION) for g in grid)
    if best < top - 1e-12 * max(1.0, abs(top)):
        return f"F(g*={g_star}) = {best} below grid maximum {top}"
    return None


def _check_cli(command, argv, code) -> str | None:
    if code != cli.EXIT_OK:
        return f"{command} exited {code}"
    out = Path(argv[argv.index("--out") + 1])
    if command == "compare":
        lines = out.read_text().splitlines()[1:]
        for line in lines:
            alpha, beta, _, _, granular = line.split(",")[:5]
            comp = meanfield.granular_expected_payoff(
                float(alpha), float(beta), 20 / (1 - float(alpha) - float(beta)), 6, GAME, DONATION
            )
            if float(granular) != comp.granular:
                return f"compare row {line!r} disagrees with granular_expected_payoff"
        return None if len(lines) == 5 * 6 else f"compare wrote {len(lines)} rows"
    report = json.loads(out.read_text())
    if command == "mixing":
        for row in report["rows"]:
            params = EhrenfestParams(k=row["k"], a=row["a"], b=row["b"], m=row["m"])
            if row["estimate"]["t_hat"] > ehrenfest.mixing_bound(params):
                return f"mixing t_hat {row['estimate']['t_hat']} above bound at m={row['m']}"
    elif command == "payoff":
        closed = games.expected_payoff_closed(gtft(0.2), ALLD, GAME, DONATION)
        mc = report["monte_carlo"]
        if report["closed_form"] != closed or pull(mc["mean"], closed, mc["std_error"]) > Z_BOUND:
            return f"payoff report {report['closed_form']}, MC {mc} vs closed {closed}"
    elif command == "optimality":
        g_star, regime = meanfield.optimal_generosity(0.25, 0.05, 100, GAME, DONATION)
        if (report["g_star"], report["regime"]) != (g_star, regime):
            return f"optimality reported {report['g_star']}, {report['regime']}"
    return None
