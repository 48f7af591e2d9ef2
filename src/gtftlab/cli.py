"""Command-line front end.

Subcommands cover trajectory simulation, stationary-law checks, mixing
diagnostics, pairwise payoffs, optimality reports, and the mean-field
versus granular payoff comparison. Tables are written as CSV with the
manifest beside them; a ``simulate`` trajectory streams to its CSV
record by record, so its memory does not grow with its length. Reports
print as JSON with the manifest embedded.
The manifest echoes the full configuration and seed, and
``gtftlab <command> --config <file holding manifest["config"]>`` reruns
it to the same data byte for byte.

Exit codes: 0 success, 2 invalid configuration, 3 state cap, step
limit or stationary-solver residual bound exceeded, or memory exhausted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, ehrenfest, games, meanfield, population
from .ehrenfest import CapExceededError, EhrenfestParams, ResidualError, StepLimitError
from .games import GameConfig, RewardVector
from .population import PopulationConfig
from .rng import stream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LIMIT = 3


def _manifest(args, outputs: list[str], t0: float) -> dict:
    return {
        "artifact_version": __version__,
        "command": args.command,
        "config": {key: value for key, value in sorted(vars(args).items())
                   if key not in ("func", "config")},
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        "wall_clock_s": round(time.monotonic() - t0, 6),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def _emit_json(payload: dict, path: str | None) -> None:
    try:  # strict JSON: a figure that overflowed to inf or nan fails the run
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("a figure of the report overflowed to inf or nan") from None
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _strategy(text: str) -> games.Strategy:
    if text == "allc":
        return games.ALLC
    if text == "alld":
        return games.ALLD
    if text.startswith("gtft:"):
        return games.gtft(float(text.split(":", 1)[1]))
    raise ValueError(f"strategy must be allc, alld, or gtft:<g>, got {text!r}")


def _reward_vector(args) -> RewardVector:
    if args.b is not None or args.c is not None:
        if args.b is None or args.c is None:
            raise ValueError("donation games need both --b and --c")
        return RewardVector.donation(args.b, args.c)
    if None in (args.R, args.S, args.T, args.P):
        raise ValueError("give either --b/--c or all of --R --S --T --P")
    return RewardVector(R=args.R, S=args.S, T=args.T, P=args.P)


def _add_reward_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--b", type=float, help="donation benefit")
    sub.add_argument("--c", type=float, help="donation cost")
    sub.add_argument("--R", type=float)
    sub.add_argument("--S", type=float)
    sub.add_argument("--T", type=float)
    sub.add_argument("--P", type=float)
    sub.add_argument("--delta", type=float, required=True, help="continuation probability")
    sub.add_argument("--s1", type=float, default=0.5, help="round-one GTFT cooperation")


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> Iterator[str]:
    """The CSV lines, streamed from run().

    Not a generator itself: the config is checked and run() called here,
    so a bad config raises before main() opens --out.
    """
    cfg = PopulationConfig(
        n=args.n, alpha=args.alpha, beta=args.beta, k=args.k, g_hat=args.g_hat,
        pairing=args.pairing,
    )
    # resolved in place so that the manifest echoes the cadence that ran
    args.record_every = args.record_every or cfg.n
    initial = tuple(args.init_counts) if args.init_counts else None
    rng = stream(args.seed, "simulate")
    rows = population.run(cfg, args.steps, args.record_every, rng, initial)

    header = "t," + ",".join(f"z_{j}" for j in range(1, cfg.k + 1)) + ",avg_generosity"
    # %d prints an int as str() does and %r a float as repr() does
    row = "%d," + ",".join(["%d"] * cfg.k) + ",%r"
    return itertools.chain([header], (row % (t, *z, wg) for t, z, wg in rows))


# ---------------------------------------------------------------- stationary


def cmd_stationary(args) -> dict:
    if args.beta is not None:
        ehrenfest._check_count("k", args.k, 2)
        p = meanfield.cell_weights(args.beta, args.k)
        result: dict = {"mode": "population-beta", "beta": args.beta, "k": args.k,
                        "closed_form_p": p.tolist(), "m": args.m}
        # a/b is bitwise weight_ratio(beta), so the pair reproduces the law
        params = (EhrenfestParams(k=args.k, a=1 - args.beta, b=args.beta, m=args.m)
                  if args.m is not None else None)
    else:
        if None in (args.k, args.a, args.b, args.m):
            raise ValueError("chain mode needs --k --a --b --m (or use --beta)")
        params = EhrenfestParams(k=args.k, a=args.a, b=args.b, m=args.m)
        result = {"mode": "chain", "k": args.k, "a": args.a, "b": args.b, "m": args.m,
                  "closed_form_p": list(ehrenfest.stationary_closed(params).p)}

    if args.exact and params is not None:
        try:
            chain, exact, pairs, residual = ehrenfest._solve(params, args.cap)
            counts = chain.states
            closed_pmf = np.exp(ehrenfest._closed_log_pmf(chain, params))
            result["exact_solver"] = {
                "n_states": len(counts),
                # per-urn probabilities implied by the solved law: mean counts over m
                "exact_p": (exact @ counts / params.m).tolist(),
                "tv_diff": ehrenfest.tv_distance(exact, closed_pmf),
                "max_pointwise_diff": float(np.abs(exact - closed_pmf).max()),
                "detailed_balance_residual": ehrenfest._balance(closed_pmf, pairs),
                # ||pi P - pi||_1 of the solved law, which the solve accepted against its tol
                "solver_residual": residual,
            }
            # main() adds these to the manifest
            result["manifest"] = {"counters": {
                "states_enumerated": len(counts),
                "chain_memoized": ehrenfest._memoized(params.k, len(counts))}}
        except CapExceededError as exc:
            result["exact_solver"] = None
            result["note"] = f"exact comparison skipped: {exc}"
    elif args.exact:
        result["exact_solver"] = None
        result["note"] = "exact comparison needs --m"
    return result


# ---------------------------------------------------------------- mixing


def _mixing_once(params: EhrenfestParams, args, seed: int) -> dict:
    bound = ehrenfest.mixing_bound(params)
    est = ehrenfest.estimate_mixing(
        params, args.epsilon, args.trials, stream(seed, "mixing", params.m, params.k),
        step_limit=args.step_limit,
    )
    row = {
        "k": params.k, "a": params.a, "b": params.b, "m": params.m,
        "bound": bound,
        "estimate": {"t_hat": est.t_hat, "epsilon": est.epsilon, "trials": est.trials,
                     "method": est.method},
    }
    if args.exact_scan:
        try:
            exact = ehrenfest.tmix_exact(params, epsilon=args.epsilon, cap=args.cap,
                                         step_limit=args.step_limit)
            row["exact_tmix"] = exact.t_hat
        except CapExceededError as exc:
            row["exact_tmix"] = None
            row["note"] = f"exact scan skipped: {exc}"
    return row


def _parse_sweep(text: str) -> tuple[str, list[int]]:
    key, _, values = text.partition("=")
    if key not in ("m", "k") or not values:
        raise ValueError(f"sweep must look like m=8,16,32 or k=2,4,8, got {text!r}")
    try:
        return key, [int(v) for v in values.split(",")]
    except ValueError:
        raise ValueError(f"sweep values must be integers, got {values!r}") from None


def cmd_mixing(args) -> dict:
    if not args.sweep:
        params = EhrenfestParams(k=args.k, a=args.a, b=args.b, m=args.m)
        return _mixing_once(params, args, args.seed)
    key, sweep_values = _parse_sweep(args.sweep)
    rows = []
    for value in sorted(sweep_values):
        params = EhrenfestParams(
            k=value if key == "k" else args.k,
            a=args.a, b=args.b,
            m=value if key == "m" else args.m,
        )
        rows.append(_mixing_once(params, args, args.seed))
    return {"sweep": key, "rows": rows}


# ---------------------------------------------------------------- payoff


def cmd_payoff(args) -> dict:
    if args.mc_games < 0 or args.mc_games == 1:
        raise ValueError("--mc-games must be 0 (no Monte Carlo) or at least 2 for a standard error")
    rv = _reward_vector(args)
    cfg = GameConfig(delta=args.delta, s1=args.s1, g_hat=args.g_hat)
    me = _strategy(args.me)
    opp = _strategy(args.opp)
    result = {
        "me": str(me), "opp": str(opp),
        "closed_form": games.expected_payoff_closed(me, opp, cfg, rv),
    }
    if args.mc_games:
        # payoffs past the float range become inf or nan here, and _emit_json refuses them
        with np.errstate(over="ignore", invalid="ignore"):
            pay_me, pay_opp, rounds = games.simulate_games(
                me, opp, cfg, rv, args.mc_games, stream(args.seed, "payoff-mc")
            )
            result["monte_carlo"] = {
                "games": args.mc_games,
                "mean": float(pay_me.mean()),
                "std_error": float(pay_me.std(ddof=1) / np.sqrt(args.mc_games)),
                "opp_mean": float(pay_opp.mean()),
                "mean_rounds": float(rounds.mean()),
            }
    return result


# ---------------------------------------------------------------- optimality


def cmd_optimality(args) -> dict:
    rv = _reward_vector(args)
    cfg = GameConfig(delta=args.delta, s1=args.s1, g_hat=args.g_hat)
    g_star, regime = meanfield.optimal_generosity(args.alpha, args.beta, args.n, cfg, rv)
    result = {
        "alpha": args.alpha, "beta": args.beta, "n": args.n,
        "phi": meanfield.phi_ratio(args.alpha, args.beta),
        "low_phi_threshold": meanfield.low_phi_threshold(cfg, rv),
        "high_phi_threshold": meanfield.high_phi_threshold(cfg, rv),
        "regime": regime,
        "g_star": g_star,
    }
    if args.k is not None:
        report = meanfield.generosity_report(args.k, args.alpha, args.beta, args.n, cfg, rv)
        result.update(
            {
                "k": report.k,
                "avg_stationary_generosity": report.avg_stationary_generosity,
                "gap": report.gap,
                "gap_bound": report.gap_bound,
            }
        )
    return result


# ---------------------------------------------------------------- compare


def _parse_populations(text: str) -> list[tuple[float, float]]:
    try:  # a third value or an empty chunk fails float() too
        return [(float(alpha), float(beta))
                for alpha, _, beta in (chunk.partition(",") for chunk in text.split(";"))]
    except ValueError:
        raise ValueError(f"--populations must look like 0.25,0.25;0.3,0.2, got {text!r}") from None


def cmd_compare(args) -> list[str]:
    rv = _reward_vector(args)
    cfg = GameConfig(delta=args.delta, s1=args.s1, g_hat=args.g_hat)
    pairs = _parse_populations(args.populations)
    lines = ["alpha,beta,g,F_meanfield,F_granular,avg_generosity,F_meanfield_at_avg"]
    for alpha, beta in pairs:
        ehrenfest._check_mix(alpha, beta)
        # m GTFT nodes is held fixed across the sweep; n scales with the fractions
        n = args.m / (1.0 - alpha - beta)
        comp = meanfield.granular_expected_payoff(alpha, beta, n, args.k, cfg, rv)
        for g, f_mf in zip(comp.g_grid, comp.mean_field):
            lines.append(
                f"{alpha!r},{beta!r},{g!r},{f_mf!r},{comp.granular!r},"
                f"{comp.avg_generosity!r},{comp.mean_field_at_avg!r}"
            )
    return lines


# ---------------------------------------------------------------- wiring


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: _apply_config_file must see every spelling of --config
    parser = argparse.ArgumentParser(
        prog="gtftlab",
        description="Simulate and analyze generosity-tuning population dynamics.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON file of defaults, keys matching flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the population dynamics, streaming the CSV to --out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g-hat", dest="g_hat", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--record-every", dest="record_every", type=int, default=0,
                   help="record cadence in interactions (default: n)")
    p.add_argument("--pairing", choices=population.PAIRING_MODES, default="idealized")
    p.add_argument("--init-counts", dest="init_counts", type=int, nargs="+",
                   help="starting GTFT counts per grid index (default: uniform random)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="CSV path; manifest lands beside it")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stationary", help="closed-form stationary law, optional exact check")
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--beta", type=float, help="population mode: defect fraction")
    p.add_argument("--exact", action="store_true", help="compare against the linear solver")
    p.add_argument("--cap", type=int, default=ehrenfest.DEFAULT_STATE_CAP)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("mixing", help="mixing bound, coupling estimate, optional exact scan")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--exact-scan", dest="exact_scan", action="store_true")
    p.add_argument("--sweep", help="e.g. m=8,16,32,64 or k=2,4,8,16")
    p.add_argument("--step-limit", dest="step_limit", type=int,
                   default=ehrenfest.DEFAULT_STEP_LIMIT)
    p.add_argument("--cap", type=int, default=ehrenfest.DEFAULT_STATE_CAP)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("payoff", help="expected payoff of one strategy pairing")
    p.add_argument("--me", required=True, help="allc | alld | gtft:<g>")
    p.add_argument("--opp", required=True)
    _add_reward_args(p)
    p.add_argument("--g-hat", dest="g_hat", type=float, default=1.0)
    p.add_argument("--mc-games", dest="mc_games", type=int, default=0,
                   help="also Monte Carlo this many games")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("optimality", help="optimal generosity, regime, and gap report")
    _add_reward_args(p)
    p.add_argument("--g-hat", dest="g_hat", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="also report the k-point stationary generosity")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_optimality)

    p = sub.add_parser("compare", help="mean-field vs granular payoff over (alpha, beta) pairs")
    _add_reward_args(p)
    p.add_argument("--g-hat", dest="g_hat", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="GTFT node count, fixed over the sweep")
    p.add_argument("--populations", required=True,
                   help="semicolon-separated alpha,beta pairs, e.g. '0.25,0.25;0.3,0.2'")
    p.add_argument("--out", required=True, help="CSV path; manifest lands beside it")
    p.set_defaults(func=cmd_compare)

    return parser


def _split_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The --config path, given as ``--config PATH`` or ``--config=PATH``, and the other words."""
    for at, word in enumerate(argv):
        if word == "--config":
            path = argv[at + 1] if at + 1 < len(argv) else ""
            rest = argv[:at] + argv[at + 2:]
        elif word.startswith("--config="):
            path, rest = word.partition("=")[2], argv[:at] + argv[at + 1:]
        else:
            continue
        if not path:
            raise ValueError("--config needs a file path")
        return path, rest
    return None, argv


def _apply_config_file(argv: list[str]) -> list[str]:
    """Fold --config file values in ahead of the explicit flags, which win
    because argparse keeps the last value given. Null and false are skipped."""
    path, rest = _split_config(argv)
    if path is None:
        return argv
    loaded = json.loads(Path(path).read_text())
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    rest = rest or [loaded.get("command")]
    if rest[0] is None:
        raise ValueError("config file use requires a subcommand")
    extra: list[str] = []
    for key, value in loaded.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            extra.append(flag)
        elif isinstance(value, list):
            extra.append(flag)
            extra.extend(str(v) for v in value)
        else:
            extra.extend([flag, str(value)])
    return [rest[0]] + extra + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(argv))
        t0 = time.monotonic()
        report = args.func(args)
        if isinstance(report, dict):
            # a command may leave entries of its own, such as counters, for the manifest
            report["manifest"] = _manifest(args, [], t0) | report.get("manifest", {})
            _emit_json(report, args.out)
        else:
            with open(args.out, "w") as fh:
                fh.writelines(f"{line}\n" for line in report)
            _emit_json(_manifest(args, [args.out], t0), args.out + ".manifest.json")
    except (ValueError, OSError) as exc:
        # OSError: unreadable --config or unwritable --out; JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapExceededError, StepLimitError, ResidualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError as exc:
        # a size the rules accept can still ask for more memory than the host has
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_LIMIT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
