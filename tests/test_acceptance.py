"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Every tolerance and sample size is pinned here;
nothing is deferred to calibration.
"""

import math
import time
from collections import Counter

import numpy as np

from gtftlab import games
from gtftlab.ehrenfest import (
    EhrenfestParams,
    absorption_times,
    detailed_balance_residual,
    enumerate_states,
    estimate_mixing,
    expected_absorption_closed,
    solve_stationary_exact,
    stationary_closed,
    transition_row,
)
from gtftlab.games import ALLC, ALLD, GameConfig, RewardVector, gtft
from gtftlab.meanfield import (
    avg_stationary_generosity,
    check_local_optimality,
    gap_bound,
    granular_expected_payoff,
    low_phi_threshold,
    mean_field_payoff,
    optimal_generosity,
)
from gtftlab.population import (
    PopulationConfig,
    run,
    sample_one_step_counts,
    stationary_of_population,
    to_ehrenfest,
)
from gtftlab.rng import stream

from test_games import paper_resolvent, resolvent_entries
from test_meanfield import direct_avg_generosity, granular_mc_oracle

SEED = 20260810
DONATION = RewardVector.donation(3, 2)
GAME = GameConfig(delta=0.9, s1=0.5, g_hat=0.25)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_stationary_exactness():
    t0 = time.monotonic()
    worst_pointwise = 0.0
    worst_residual = 0.0
    for k in (2, 3, 4):
        for m in range(1, 7):
            for a, b in ((0.2, 0.6), (0.3, 0.3), (0.5, 0.25), (0.6, 0.2)):
                params = EhrenfestParams(k=k, a=a, b=b, m=m)
                states, pi = solve_stationary_exact(params)
                dist = stationary_closed(params)
                pmf = np.array([dist.pmf(x) for x in states])
                worst_pointwise = max(worst_pointwise, float(np.abs(pi - pmf).max()))
                worst_residual = max(worst_residual, detailed_balance_residual(params))
    elapsed = time.monotonic() - t0
    passed = worst_pointwise < 1e-10 and worst_residual < 1e-12 and elapsed < 10
    report(
        1,
        passed,
        f"max pointwise diff {worst_pointwise:.2e} (<1e-10), "
        f"balance residual {worst_residual:.2e} (<1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_end_to_end_stationary_histogram():
    t0 = time.monotonic()
    cfg = PopulationConfig(n=40, alpha=0.25, beta=0.25, k=3, g_hat=0.25)
    chain = to_ehrenfest(cfg)
    burn_in = 2 * min(chain.k / abs(chain.a - chain.b), chain.k**2) * chain.m * math.log2(
        4 * chain.m
    )
    thin = cfg.n
    n_samples = 100_000
    skip = math.ceil(burn_in / thin)
    rows = list(run(cfg, thin * (n_samples + skip), thin, stream(SEED, "c2")))
    samples = [z for t, z, _ in rows[1:] if t > burn_in][:n_samples]
    assert len(samples) == n_samples
    counts = Counter(samples)
    target = stationary_of_population(cfg)
    assert target.p == (1 / 13, 3 / 13, 9 / 13)
    tv = 0.5 * sum(
        abs(counts.get(x, 0) / n_samples - target.pmf(x))
        for x in enumerate_states(cfg.k, cfg.m)
    )
    elapsed = time.monotonic() - t0
    passed = tv <= 0.05 and elapsed < 60
    report(2, passed, f"TV {tv:.4f} (<=0.05) over {n_samples} thinned samples, "
                      f"{elapsed:.1f}s (<60s)")


def test_criterion_3_transition_correspondence():
    cfg = PopulationConfig(n=40, alpha=0.25, beta=0.25, k=3, g_hat=0.25)
    z0 = (7, 6, 7)
    n = 1_000_000
    counts = sample_one_step_counts(cfg, z0, n, stream(SEED, "c3"))
    row = transition_row(z0, to_ehrenfest(cfg))
    worst_sigma = 0.0
    stray = set(counts) - set(row)
    for y, p in row.items():
        freq = counts.get(y, 0) / n
        sigma = math.sqrt(p * (1 - p) / n)
        worst_sigma = max(worst_sigma, abs(freq - p) / sigma)
    passed = worst_sigma <= 4 and not stray
    report(3, passed, f"worst deviation {worst_sigma:.2f} sigma (<=4) over "
                      f"{len(row)} support points, {n} one-step samples")


def test_criterion_4_payoff_formulas():
    # closed vs series on >= 100 combinations
    combos = 0
    worst_series = 0.0
    general = RewardVector(R=3, S=0, T=5, P=1)
    for rv in (DONATION, general):
        for s1 in (0.0, 0.5, 0.9):
            for delta in (0.0, 0.3, 0.6, 0.9):
                cfg = GameConfig(delta=delta, s1=s1)
                for g in (0.0, 0.25, 0.7, 1.0):
                    for opp in (ALLC, ALLD, gtft(0.1), gtft(0.8)):
                        closed = games.expected_payoff_closed(gtft(g), opp, cfg, rv)
                        series = games.expected_payoff_series(gtft(g), opp, cfg, rv, tol=1e-11)
                        worst_series = max(worst_series, abs(closed - series))
                        combos += 1
    series_ok = combos >= 100 and worst_series < 1e-9

    # closed vs Monte Carlo, 1e6 games per opponent kind
    mc_ok = True
    mc_detail = []
    for tag, opp in (("allc", ALLC), ("alld", ALLD), ("gtft", gtft(0.15))):
        pay, _, _ = games.simulate_games(
            gtft(0.2), opp, GAME, DONATION, 1_000_000, stream(SEED, "c4", tag)
        )
        closed = games.expected_payoff_closed(gtft(0.2), opp, GAME, DONATION)
        se = pay.std(ddof=1) / math.sqrt(pay.size)
        pull = abs(pay.mean() - closed) / se
        mc_detail.append(f"{tag} {pull:.2f}se")
        mc_ok = mc_ok and pull <= 3

    # all 16 resolvent entries on a (g, g', delta) grid
    worst_entry = 0.0
    for g in (0.0, 0.25, 0.5, 1.0):
        for gp in (0.0, 0.4, 1.0):
            for delta in (0.1, 0.5, 0.9):
                cfg = GameConfig(delta=delta)
                diff = np.abs(
                    resolvent_entries(g, gp, cfg) - paper_resolvent(g, gp, delta)
                ).max()
                worst_entry = max(worst_entry, float(diff))
    entries_ok = worst_entry < 1e-10

    passed = series_ok and mc_ok and entries_ok
    report(
        4,
        passed,
        f"series vs closed {worst_series:.1e} (<1e-9) on {combos} combos; "
        f"MC pulls {', '.join(mc_detail)} (<=3se); resolvent {worst_entry:.1e} (<1e-10)",
    )


def test_criterion_5_absorption_times():
    details = []
    passed = True
    for k, a, b in ((4, 0.5, 0.5), (8, 0.6, 0.2), (6, 0.3, 0.35)):
        taus = absorption_times(k, a, b, 100_000, stream(SEED, "c5", k))
        closed = expected_absorption_closed(k, a, b)
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        pull = abs(taus.mean() - closed) / se
        details.append(f"k={k}: {pull:.2f}se")
        passed = passed and pull <= 3
    report(5, passed, f"absorption pulls {', '.join(details)} (<=3se), 1e5 runs each")


def test_criterion_6_mixing_scaling():
    t0 = time.monotonic()
    trials = 500
    ms = (8, 16, 32, 64)
    taus_m = [
        estimate_mixing(
            EhrenfestParams(k=4, a=0.7, b=0.2, m=m), 0.25, trials, stream(SEED, "c6m", m)
        ).t_hat
        for m in ms
    ]
    slope_m = float(np.polyfit(np.log(ms), np.log(taus_m), 1)[0])

    ks = (2, 4, 8, 16)
    taus_k = [
        estimate_mixing(
            EhrenfestParams(k=k, a=0.7, b=0.2, m=16), 0.25, trials, stream(SEED, "c6k", k)
        ).t_hat
        for k in ks
    ]
    slope_k = float(np.polyfit(np.log(ks), np.log(taus_k), 1)[0])
    elapsed = time.monotonic() - t0
    passed = 1.0 <= slope_m <= 1.35 and 0.8 <= slope_k <= 1.3 and elapsed < 300
    report(
        6,
        passed,
        f"m-sweep slope {slope_m:.3f} (in [1.0,1.35]), k-sweep slope {slope_k:.3f} "
        f"(in [0.8,1.3]), {elapsed:.1f}s (<300s)",
    )


def test_criterion_7_generosity_and_optimality():
    t0 = time.monotonic()
    # closed-form average generosity vs direct sum
    worst = 0.0
    for k in (2, 3, 6, 17, 64):
        for beta in (0.05, 0.2, 0.25, 0.4, 0.45, 0.6):
            for g_hat in (0.25, 1.0):
                worst = max(
                    worst,
                    abs(
                        avg_stationary_generosity(k, beta, g_hat)
                        - direct_avg_generosity(k, beta, g_hat)
                    ),
                )
    generosity_ok = worst < 1e-12

    # local optimality: zero violations on the 20^3 grid
    local = check_local_optimality(GAME, DONATION, grid_size=20)
    local_ok = local.checked and local.ok

    # optimality gap bound across k for low-regime populations
    cfg = GameConfig(delta=0.5, s1=0.5, g_hat=0.25)
    rv = RewardVector.donation(3, 1)
    gap_ok = True
    for beta in (0.05, 0.1, 0.2, 0.25):
        g_star, regime = optimal_generosity(0.05, beta, 100, cfg, rv)
        gap_ok = gap_ok and regime == "low"
        for k in range(2, 65):
            gap = abs(g_star - avg_stationary_generosity(k, beta, cfg.g_hat))
            gap_ok = gap_ok and gap <= gap_bound(k, beta)
    elapsed = time.monotonic() - t0
    passed = generosity_ok and local_ok and gap_ok and elapsed < 10
    report(
        7,
        passed,
        f"avg-generosity diff {worst:.1e} (<1e-12); local optimality "
        f"{len(local.violations)} violations on 20^3 grid; gap bound holds for "
        f"beta in {{.05,.1,.2,.25}}, k=2..64; {elapsed:.1f}s (<10s)",
    )


def test_criterion_8_paper_example_values():
    threshold = low_phi_threshold(GAME, DONATION)
    rel_err = abs(threshold - 40 / 169) / (40 / 169)
    half_ok = all(
        avg_stationary_generosity(k, 0.5, g_hat) == g_hat / 2
        for k in (2, 3, 6, 64)
        for g_hat in (0.25, 1.0)
    )
    passed = rel_err < 5e-15 and half_ok
    report(
        8,
        passed,
        f"low-phi threshold rel err vs 40/169 = {rel_err:.1e} (<5e-15); "
        f"beta=1/2 gives g_hat/2 exactly: {half_ok}",
    )


def test_criterion_9_meanfield_vs_granular():
    sweep = [(0.4, 0.1), (0.3, 0.2), (0.25, 0.25), (0.2, 0.3), (0.1, 0.4)]
    details = []
    mc_ok = True
    for k in (2, 6):
        diffs = []
        scale = 0.0
        for alpha, beta in sweep:
            comp = granular_expected_payoff(alpha, beta, 40, k, GAME, DONATION)
            assert round((1 - alpha - beta) * 40) == 20
            diffs.append(comp.max_abs_diff)
            scale = max(scale, max(abs(v) for v in comp.mean_field))
        details.append(
            f"k={k}: max |granular - meanfield| {max(diffs):.4f} "
            f"({max(diffs) / scale:.2%} of payoff scale)"
        )
        # the granular value must agree with its own sampling oracle
        mean, se = granular_mc_oracle(
            0.25, 0.25, 40, k, GAME, DONATION, 1_000_000, stream(SEED, "c9", k)
        )
        comp = granular_expected_payoff(0.25, 0.25, 40, k, GAME, DONATION)
        pull = abs(comp.granular - mean) / se
        mc_ok = mc_ok and pull <= 3
        details.append(f"k={k} MC pull {pull:.2f}se")
    report(9, mc_ok, "; ".join(details) + " (difference reported, oracle <=3se)")
