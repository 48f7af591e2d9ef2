"""Tests for stationary generosity, the mean-field payoff, and optimality results."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gtftlab import games, meanfield
from gtftlab.games import GameConfig, RewardVector
from gtftlab.meanfield import (
    LocalOptimalityReport,
    avg_stationary_generosity,
    check_local_optimality,
    gap_bound,
    granular_expected_payoff,
    high_phi_threshold,
    low_phi_threshold,
    mean_field_payoff,
    optimal_generosity,
    phi_ratio,
    stationary_weights,
)
from gtftlab.population import generosity_grid
from gtftlab.rng import stream

from test_ehrenfest import BETAS, exact_geometric_weights
from test_games import (
    GENERAL,
    assert_near_reference,
    reference_gtft_payoff,
    reference_payoff_gtft_vs_allc,
    reference_payoff_gtft_vs_alld,
    reference_payoff_gtft_vs_gtft,
)

DONATION = RewardVector.donation(3, 2)
CFG = GameConfig(delta=0.9, s1=0.5, g_hat=0.25)
EPS = np.finfo(float).eps


def direct_avg_generosity(k: int, beta: float, g_hat: float) -> float:
    """Oracle: literal sum of g_j p_j over the stationary cell weights."""
    lam = (1 - beta) / beta
    weights = [lam ** (j - 1) for j in range(1, k + 1)]
    total = sum(weights)
    grid = generosity_grid(k, g_hat)
    return sum(g * w / total for g, w in zip(grid, weights))


def expanded_donation_meanfield(g, alpha, beta, delta, b, c):
    """Oracle: the expanded donation-game form of F, written out independently."""
    m_frac = 1 - alpha - beta
    return (
        alpha * (c / 2 + (b - c) / (1 - delta))
        - beta * c * (0.5 + delta * g / (1 - delta))
        + m_frac
        * ((b - c) / (1 - delta) - (b - c) * (1 + delta * (1 - g)) / (2 * (1 - delta**2 * (1 - g) ** 2)))
    )


def granular_mc_oracle(alpha, beta, n, k, cfg, rv, draws, rng):
    """Sampling oracle for the granular payoff.

    Draw a count vector from the stationary multinomial, a focal GTFT node
    from it, a partner type by population frequency, and (when GTFT) a
    distinct partner node; average the closed-form payoffs.
    """
    m = round((1 - alpha - beta) * n)
    dist = stationary_weights(beta, k, m)
    p = np.asarray(dist.p)
    grid = np.asarray(generosity_grid(k, cfg.g_hat))
    f_allc = reference_payoff_gtft_vs_allc(grid, cfg, rv)
    f_alld = reference_payoff_gtft_vs_alld(grid, cfg, rv)
    f_gg = reference_payoff_gtft_vs_gtft(grid[:, None], grid[None, :], cfg, rv)

    z = rng.multinomial(m, p, size=draws)
    cum_focal = np.cumsum(z, axis=1) / m
    focal = (rng.random(draws)[:, None] >= cum_focal).sum(axis=1)
    z_rest = z.copy()
    z_rest[np.arange(draws), focal] -= 1
    cum_part = np.cumsum(z_rest, axis=1) / (m - 1)
    partner = (rng.random(draws)[:, None] >= cum_part).sum(axis=1)

    u = rng.random(draws)
    vals = np.empty(draws)
    is_allc = u < alpha
    is_alld = (u >= alpha) & (u < alpha + beta)
    is_gtft = ~is_allc & ~is_alld
    vals[is_allc] = f_allc[focal[is_allc]]
    vals[is_alld] = f_alld[focal[is_alld]]
    vals[is_gtft] = f_gg[focal[is_gtft], partner[is_gtft]]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


# ------------------------------------------------------------------ avg generosity


def test_avg_generosity_balanced_is_half():
    for k in (2, 3, 8):
        assert avg_stationary_generosity(k, 0.5, 0.25) == 0.125
        assert avg_stationary_generosity(k, 0.5, 1.0) == 0.5
    # the balanced shortcut once skipped the check on k: k = 3.5 returned 0.125
    for k in (3.5, 1):
        with pytest.raises(ValueError, match="need an integer k >= 2"):
            avg_stationary_generosity(k, 0.5, 0.25)


def test_avg_generosity_spot_values():
    assert avg_stationary_generosity(2, 0.25, 0.25) == pytest.approx(3 / 16, abs=1e-15)
    assert avg_stationary_generosity(6, 0.25, 1.0) == pytest.approx(1641 / 1820, abs=1e-14)


def test_avg_generosity_matches_direct_sum():
    for k in (2, 3, 6, 17, 64):
        for beta in (0.05, 0.2, 0.25, 0.4, 0.45, 0.6, 0.75):
            for g_hat in (0.25, 1.0):
                closed = avg_stationary_generosity(k, beta, g_hat)
                direct = direct_avg_generosity(k, beta, g_hat)
                assert closed == pytest.approx(direct, abs=1e-12), (k, beta, g_hat)


@settings(max_examples=60, deadline=None)
@given(beta=BETAS, k=st.integers(2, 400))
@example(beta=0.05, k=300)
@example(beta=0.01, k=1000)
@example(beta=0.5 - 1e-13, k=6)
@example(beta=0.5 - 1e-9, k=6)
def test_avg_generosity_matches_exact_oracle(beta, k):
    weights, total = exact_geometric_weights((1 - beta) / beta, k)
    exact = sum(j * w for j, w in enumerate(weights)) / (total * (k - 1))
    assert avg_stationary_generosity(k, beta, 1.0) == pytest.approx(exact, rel=0, abs=1e-13)


@pytest.mark.parametrize("k", [3.5, 4.0, True])
def test_stationary_weights_reject_non_integer_cell_counts(k):
    # 3.5 once gave a 4-cell law
    with pytest.raises(ValueError, match="k"):
        stationary_weights(0.3, k, 4)


def test_avg_generosity_monotone_in_k_toward_ghat():
    values = [avg_stationary_generosity(k, 0.25, 1.0) for k in range(2, 65)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))
    assert values[-1] < 1.0 and values[-1] > 0.98


# ------------------------------------------------------------------ mean-field payoff


def test_mean_field_degenerate_all_cooperators():
    cfg = GameConfig(delta=0.9, s1=0.5, g_hat=1.0)
    for g in (0.0, 0.3, 1.0):
        assert mean_field_payoff(g, 1.0, 0.0, cfg, DONATION) == pytest.approx(
            reference_payoff_gtft_vs_allc(g, cfg, DONATION)
        )


def test_mean_field_matches_expanded_donation_form():
    for alpha, beta in [(0.25, 0.25), (0.1, 0.3), (0.0, 0.2), (0.4, 0.1)]:
        for g in np.linspace(0, 0.25, 7):
            composed = mean_field_payoff(float(g), alpha, beta, CFG, DONATION)
            expanded = expanded_donation_meanfield(g, alpha, beta, 0.9, 3, 2)
            assert composed == pytest.approx(expanded, abs=1e-10)


def test_mean_field_concave_in_g():
    grid = np.linspace(0, 0.25, 1000)
    values = np.array([mean_field_payoff(float(g), 0.25, 0.25, CFG, DONATION) for g in grid])
    second_diff = values[2:] - 2 * values[1:-1] + values[:-2]
    assert np.all(second_diff < 0)


# (alpha, beta) pairs with zero weights, and one whose GTFT share
# 1 - alpha - beta rounds to -1.1e-16 although alpha + beta == 1.0
POPULATIONS = [(0.25, 0.25), (0.0, 0.2), (0.3, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
               (0.04097352393619469, 0.9590264760638054)]
PAYOFF_CFGS = [CFG, GameConfig(delta=0.5, s1=0.2, g_hat=1.0), GameConfig(delta=0.0, s1=0.7)]


def test_mean_field_payoff_on_an_array_equals_the_scalar_calls():
    g = np.concatenate((np.linspace(0.0, 1.0, 11), stream(9, "mf-grid").uniform(0, 1, 20)))
    for alpha, beta in POPULATIONS:
        for cfg in PAYOFF_CFGS:
            for rv in (DONATION, GENERAL):
                curve = mean_field_payoff(g, alpha, beta, cfg, rv)
                scalar = [mean_field_payoff(float(x), alpha, beta, cfg, rv) for x in g]
                assert isinstance(curve, np.ndarray) and type(scalar[0]) is float
                assert curve.tolist() == scalar


def test_mean_field_rejects_nan_fractions():
    for alpha, beta in [(math.nan, 0.2), (0.2, math.nan)]:
        with pytest.raises(ValueError):
            mean_field_payoff(0.1, alpha, beta, CFG, DONATION)


def pinned_payoffs() -> list:
    """Mean-field values and granular comparisons over the pinned configs."""
    values = []
    for cfg in PAYOFF_CFGS:
        for rv in (DONATION, GENERAL):
            for alpha, beta in POPULATIONS:
                values += [mean_field_payoff(g, alpha, beta, cfg, rv)
                           for g in (0.0, 0.1, 0.25, 1 / 3, 1.0)]
            for alpha, beta, n in [(0.25, 0.25, 40), (0.0, 0.5, 8), (0.2, 0.3, 20)]:
                for k in (2, 3, 6):
                    values.append(granular_expected_payoff(alpha, beta, n, k, cfg, rv))
                    values.append(granular_expected_payoff(alpha, beta, n, k, cfg, rv,
                                                           enumerate_counts=True))
    return values


def test_mean_field_and_granular_payoffs_are_pinned():
    # sha256 of repr() of every value, recorded when the payoffs came from
    # the round-chain solve by state reduction
    assert hashlib.sha256(repr(pinned_payoffs()).encode()).hexdigest() == "70392c7c69016b410fe3c7a20ef919d6ca677cb06731cbfaf6a6e1692658ace6"


def test_pinned_payoffs_match_the_reference_forms(monkeypatch):
    # every config here has delta <= 0.99, where the reference forms hold
    values = pinned_payoffs()
    monkeypatch.setattr(meanfield, "expected_payoff_closed", reference_gtft_payoff)
    references = pinned_payoffs()
    # the digest pinned before the payoffs came from the round-chain solve
    assert hashlib.sha256(repr(references).encode()).hexdigest() == "17e74b92bba62e4b1335518c193cded76c1d4e8ae3feaec37018db1c600d3ce3"
    for value, reference in zip(values, references, strict=True):
        if isinstance(value, float):
            assert_near_reference(value, reference)
        else:
            for field in ("mean_field", "granular", "avg_generosity", "mean_field_at_avg"):
                assert_near_reference(getattr(value, field), getattr(reference, field))


# ------------------------------------------------------------------ optimality


def reference_low_phi_threshold(cfg, rv):
    """Oracle: the s1 = 1/2 form of the low threshold, (b - c)(1 - delta) / (2c (1 - delta(1 - g_hat))^2)."""
    benefit, cost = rv.donation_params()
    return (benefit - cost) * (1.0 - cfg.delta) / (
        2.0 * cost * (1.0 - cfg.delta * (1.0 - cfg.g_hat)) ** 2
    )


def reference_high_phi_threshold(cfg, rv):
    """Oracle: the s1 = 1/2 form of the high threshold, (b - c) / (2c (1 - delta))."""
    benefit, cost = rv.donation_params()
    return (benefit - cost) / (2.0 * cost * (1.0 - cfg.delta))


def reference_interior_optimum(alpha, beta, cfg, rv):
    """Oracle: the s1 = 1/2 root of dF/dg, sqrt(m (1-delta)(b-c) / (2 beta n c delta^2)) - (1-delta)/delta."""
    benefit, cost = rv.donation_params()
    phi = phi_ratio(alpha, beta)
    return float(
        np.sqrt((1.0 - cfg.delta) * (benefit - cost) / (2.0 * phi * cost * cfg.delta**2))
        - (1.0 - cfg.delta) / cfg.delta
    )


def reference_optimal_generosity(alpha, beta, cfg, rv):
    """Oracle: the maximizer of F and its regime from the three s1 = 1/2 forms."""
    phi = phi_ratio(alpha, beta)
    if phi <= reference_low_phi_threshold(cfg, rv):
        return cfg.g_hat, "low"
    if phi >= reference_high_phi_threshold(cfg, rv):
        return 0.0, "high"
    return min(max(reference_interior_optimum(alpha, beta, cfg, rv), 0.0), cfg.g_hat), "mid"


def donation_slope_terms(g, alpha, beta, cfg, benefit, cost):
    """Oracle: dF/dg of a donation game as the gain and the loss it is the difference of.

    F is written out for any s1. Against AllC the payoff does not depend
    on g; against AllD it is -c s1 - c g delta/(1 - delta), which gives the
    loss; between two GTFT(g) nodes it is
    (b - c)(1/(1 - delta) - (1 - s1)/(1 - delta + delta g)), which gives the gain.
    """
    delta = cfg.delta
    # delta multiplies last: a subnormal delta first would round the two terms apart
    gain = (1 - alpha - beta) * (benefit - cost) * (1 - cfg.s1) / (1 - delta + delta * g) ** 2 * delta
    return gain, beta * cost / (1 - delta) * delta


def test_low_phi_threshold_exact_fraction():
    assert low_phi_threshold(CFG, DONATION) == pytest.approx(40 / 169, rel=5e-15)


# perfbench's 16 (alpha, beta) pairs, and the mid and high pairs of the tests below
HALF_FRACTIONS = [(alpha, beta) for alpha in (0.05, 0.1, 0.2, 0.3)
                  for beta in (0.05, 0.1, 0.2, 0.3)] + [(0.25, 0.375), (0.25, 0.55)]


def test_optimum_at_s1_one_half_matches_the_reference_forms():
    for delta in (0.1, 0.5, 0.9, 0.99, 1 - 1e-6):
        for g_hat in (0.0, 0.25, 1.0):
            cfg = GameConfig(delta=delta, s1=0.5, g_hat=g_hat)
            for rv in (DONATION, RewardVector.donation(3, 1), RewardVector.donation(10, 1)):
                high = high_phi_threshold(cfg, rv)
                assert low_phi_threshold(cfg, rv) == reference_low_phi_threshold(cfg, rv)
                assert abs(high - reference_high_phi_threshold(cfg, rv)) <= 1e-15 * high
                for alpha, beta in HALF_FRACTIONS:
                    g_star, regime = optimal_generosity(alpha, beta, 100, cfg, rv)
                    reference, reference_regime = reference_optimal_generosity(alpha, beta, cfg, rv)
                    assert regime == reference_regime, (cfg, rv, alpha, beta)
                    # both roots round sqrt(phi_high/phi) (1 - delta)/delta before a subtraction
                    scale = (1 - delta) / delta * math.sqrt(high / phi_ratio(alpha, beta))
                    assert abs(g_star - reference) <= 1e-15 * scale, (cfg, rv, alpha, beta)


def test_optimum_at_the_paper_game_matches_the_reference_forms_in_relative_terms():
    for alpha, beta in HALF_FRACTIONS:
        g_star, regime = optimal_generosity(alpha, beta, 100, CFG, DONATION)
        reference, reference_regime = reference_optimal_generosity(alpha, beta, CFG, DONATION)
        assert regime == reference_regime
        assert abs(g_star - reference) <= 1e-15 * reference


def test_optimal_generosity_low_regime():
    g_star, regime = optimal_generosity(0.25, 0.05, 100, CFG, DONATION)
    assert regime == "low" and g_star == CFG.g_hat
    assert phi_ratio(0.25, 0.05) == pytest.approx(0.05 / 0.7)


def test_optimal_generosity_high_regime():
    g_star, regime = optimal_generosity(0.25, 0.55, 100, CFG, DONATION)
    assert regime == "high" and g_star == 0.0
    assert phi_ratio(0.25, 0.55) > high_phi_threshold(CFG, DONATION)


def grid_search_argmax(alpha, beta, cfg, rv, resolution=1e-4):
    grid = np.arange(0.0, cfg.g_hat + 1e-12, resolution)
    values = [mean_field_payoff(float(g), alpha, beta, cfg, rv) for g in grid]
    return float(grid[int(np.argmax(values))])


def test_optimal_generosity_mid_matches_grid_search():
    alpha, beta = 0.25, 0.375
    g_star, regime = optimal_generosity(alpha, beta, 80, CFG, DONATION)
    assert regime == "mid"
    assert abs(g_star - grid_search_argmax(alpha, beta, CFG, DONATION)) <= 2e-4
    assert g_star == pytest.approx(reference_interior_optimum(alpha, beta, CFG, DONATION))


def test_optimal_generosity_grid_search_all_regimes():
    for alpha, beta, expect_regime in [
        (0.25, 0.05, "low"),
        (0.25, 0.375, "mid"),
        (0.25, 0.55, "high"),
    ]:
        g_star, regime = optimal_generosity(alpha, beta, 80, CFG, DONATION)
        assert regime == expect_regime
        assert abs(g_star - grid_search_argmax(alpha, beta, CFG, DONATION)) <= 2e-4


@settings(max_examples=60, deadline=None)
@given(s1=st.floats(0.0, 1.0, exclude_max=True), delta=st.floats(0.0, 0.99),
       g=st.floats(0.0, 1.0), alpha=st.floats(0.0, 0.5), beta=st.floats(0.01, 0.49))
def test_donation_slope_matches_central_differences(s1, delta, g, alpha, beta):
    cfg = GameConfig(delta=delta, s1=s1)
    step = 1e-6
    lo, hi = max(g - step, 0.0), min(g + step, 1.0)
    f_lo, f_hi = mean_field_payoff(np.array([lo, hi]), alpha, beta, cfg, DONATION)
    gain, loss = donation_slope_terms(g, alpha, beta, cfg, 3, 2)
    # |F''| <= 2 (b - c)/(1 - delta)^3 bounds a one-sided difference's error; each F
    # rounds by up to 1e-15 max|v|/(1 - delta), which the quotient divides by the step
    bound = step * 2 / (1 - delta) ** 3 + 2 * 1e-15 * 3 / (1 - delta) / step
    assert abs((f_hi - f_lo) / (hi - lo) - (gain - loss)) <= bound


# the cases of the CLI example with b = 3, c = 2, delta = 0.9, g_hat = 0.25,
# alpha = 0.1 and beta = 0.3: at s1 = 0.9 the s1 = 1/2 forms said regime mid
# with g* = 0.1373, where F(0) - F(g*) = 0.41; at s1 = 0 they lost 0.23
OPTIMUM_EXAMPLES = [dict(s1=s1, delta=0.9, g_hat=0.25, ratio=1.5, cost=2.0, alpha=0.1, beta=0.3)
                    for s1 in (0.9, 0.0)]


@settings(max_examples=300, deadline=None)
@given(s1=st.floats(0.0, 1.0, exclude_max=True),
       delta=st.one_of(st.floats(0.0, 1 - 1e-6), st.floats(0.0, 6.0).map(lambda x: 1 - 10.0**-x)),
       g_hat=st.floats(0.0, 1.0), ratio=st.floats(1.0, 6.0, exclude_min=True),
       cost=st.floats(1e-3, 100.0), alpha=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0))
@example(**OPTIMUM_EXAMPLES[0])
@example(**OPTIMUM_EXAMPLES[1])
def test_optimal_generosity_maximizes_f_over_the_whole_donation_domain(
    s1, delta, g_hat, ratio, cost, alpha, beta
):
    benefit = ratio * cost
    assume(benefit > cost and beta > 0 and alpha + beta < 1)
    cfg = GameConfig(delta=delta, s1=s1, g_hat=g_hat)
    rv = RewardVector.donation(benefit, cost)
    g_star, regime = optimal_generosity(alpha, beta, 100, cfg, rv)
    assert 0.0 <= g_star <= g_hat

    values = mean_field_payoff(np.linspace(0.0, g_hat, 20_001), alpha, beta, cfg, rv)
    # a few ulps of the payoffs that F sums, max|v|/(1 - delta), which also bound |F|;
    # F can cancel them: with b - c one ulp above c, F's rounding exceeded 4 ulps of max|F|
    assert mean_field_payoff(g_star, alpha, beta, cfg, rv) >= (
        values.max() - 8 * EPS * rv.max_abs / (1 - delta))

    def sign(g):
        """Sign of dF/dg at g, read as 0 within rounding of its two terms."""
        gain, loss = donation_slope_terms(g, alpha, beta, cfg, benefit, cost)
        return 0 if abs(gain - loss) <= 1e-13 * (gain + loss) else math.copysign(1, gain - loss)

    at_zero, at_top = sign(0.0), sign(g_hat)
    if regime == "low":
        assert at_top >= 0
    elif regime == "high":
        assert at_zero <= 0 and at_top <= 0
    else:
        assert regime == "mid" and at_zero >= 0 >= at_top


def test_optimal_generosity_rejects_non_donation():
    general = RewardVector(R=3, S=0, T=5, P=1)
    with pytest.raises(ValueError):
        optimal_generosity(0.25, 0.25, 40, CFG, general)


def test_impossible_fractions_raise():
    for alpha, beta in [(-0.5, 0.1), (math.nan, 0.1), (0.25, math.nan), (0.5, 0.5), (0.2, 0.0)]:
        with pytest.raises(ValueError):
            phi_ratio(alpha, beta)
        with pytest.raises(ValueError):
            optimal_generosity(alpha, beta, 100, CFG, DONATION)


def test_gap_bound_values_and_shape():
    assert gap_bound(6, 0.25) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        gap_bound(6, 0.5)
    bounds = [gap_bound(k, 0.25) for k in range(2, 65)]
    assert all(lo > hi for lo, hi in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("k", [2.5, math.nan, 6.0, 1])
def test_gap_bound_rejects_a_non_integer_or_small_k(k):
    # 2.5 once returned 0.0833 and nan returned nan
    with pytest.raises(ValueError, match="integer k"):
        gap_bound(k, 0.1)


def test_gap_bound_covers_measured_gap():
    # k=6, beta=1/4, g_hat=1
    wg = avg_stationary_generosity(6, 0.25, 1.0)
    assert abs(1.0 - wg) == pytest.approx(0.0984, abs=5e-4)
    assert abs(1.0 - wg) <= gap_bound(6, 0.25)


def test_gap_vanishes_while_generosity_approaches_ghat():
    # the gap does not read s1 once g* = g_hat, so the claim holds at any s1 of the low regime
    rv = RewardVector.donation(3, 1)
    for s1 in (0.0, 0.25, 0.5):
        cfg = GameConfig(delta=0.5, s1=s1, g_hat=0.25)
        for beta in (0.05, 0.1, 0.2, 0.25):
            g_star, regime = optimal_generosity(0.05, beta, 100, cfg, rv)
            assert regime == "low"
            for k in range(2, 65):
                gap = abs(g_star - avg_stationary_generosity(k, beta, cfg.g_hat))
                assert gap <= gap_bound(k, beta), (k, s1, beta)


# ------------------------------------------------------------------ local optimality


def test_local_optimality_holds_on_grid():
    report = check_local_optimality(CFG, DONATION, grid_size=20)
    assert report.checked and report.ok
    assert report.n_comparisons > 0 and report.violations == ()


def reference_local_optimality(cfg, rv, grid_size):
    """check_local_optimality() past its preconditions, as one comparison at a time."""
    grid = np.linspace(0.0, cfg.g_hat, grid_size)
    violations = []
    n_comparisons = 0
    f_allc, f_alld, f_gg = meanfield._payoff_tables(grid, cfg, rv)
    for i in range(grid_size):
        for j in range(i + 1, grid_size):
            g_lo, g_hi = float(grid[i]), float(grid[j])
            n_comparisons += 2
            if f_allc[i] != f_allc[j]:
                violations.append(("vs-allc-not-constant", g_lo, g_hi, float("nan")))
            if not f_alld[i] > f_alld[j]:
                violations.append(("vs-alld-not-decreasing", g_lo, g_hi, float("nan")))
            for idx2 in range(grid_size):
                n_comparisons += 1
                if not f_gg[i, idx2] < f_gg[j, idx2]:
                    violations.append(
                        ("vs-gtft-not-increasing", g_lo, g_hi, float(grid[idx2]))
                    )
    return LocalOptimalityReport(True, (), grid_size, n_comparisons, tuple(violations))


def test_local_optimality_equals_the_comparison_loop():
    for grid_size in (2, 5, 20):
        report = check_local_optimality(CFG, DONATION, grid_size)
        # repr: equal floats print alike, and a nan opponent equals itself
        assert repr(report) == repr(reference_local_optimality(CFG, DONATION, grid_size))


@pytest.mark.parametrize("grid_size", [2, 3, 7, 20])
@pytest.mark.parametrize("seed", range(5))
def test_local_optimality_equals_the_comparison_loop_on_planted_violations(
    monkeypatch, grid_size, seed
):
    grid = np.linspace(0.0, CFG.g_hat, grid_size)
    f_allc, f_alld, f_gg = meanfield._payoff_tables(grid, CFG, DONATION)
    rng = stream(40, "planted", grid_size, seed)
    f_allc = f_allc + (rng.random(grid_size) < 0.3)
    f_alld = np.where(rng.random(grid_size) < 0.3, f_alld[::-1], f_alld)  # rises and ties
    f_gg = np.where(rng.random(f_gg.shape) < 0.2, np.round(-f_gg, 1), f_gg)
    f_gg[rng.random(f_gg.shape) < 0.05] = np.nan  # fails every comparison it is in
    monkeypatch.setattr(meanfield, "_payoff_tables", lambda *args: (f_allc, f_alld, f_gg))
    report = check_local_optimality(CFG, DONATION, grid_size)
    assert repr(report) == repr(reference_local_optimality(CFG, DONATION, grid_size))
    pairs = grid_size * (grid_size - 1) // 2
    assert report.checked and report.n_comparisons == pairs * (grid_size + 2)
    if grid_size > 2:
        assert report.violations


def test_local_optimality_needs_two_grid_points():
    low_delta = GameConfig(delta=0.5, s1=0.5, g_hat=0.25)  # fails a precondition too
    for grid_size in (-3, 0, 1):
        for cfg in (CFG, low_delta):
            with pytest.raises(ValueError):
                check_local_optimality(cfg, DONATION, grid_size)


def test_local_optimality_rejects_a_non_integer_grid_size():
    # 2.5 once ended on a TypeError inside np.linspace
    for grid_size in (2.5, 20.0):
        with pytest.raises(ValueError, match="integer grid_size"):
            check_local_optimality(CFG, DONATION, grid_size)


def test_local_optimality_allc_payoff_exactly_constant():
    grid = np.linspace(0, CFG.g_hat, 50)
    values = games.expected_payoff_closed(grid, games.ALLC, CFG, DONATION)
    assert np.ptp(values) == 0.0


def test_local_optimality_refuses_low_delta():
    low_delta = GameConfig(delta=0.5, s1=0.5, g_hat=0.25)  # needs delta > c/b = 2/3
    report = check_local_optimality(low_delta, DONATION, grid_size=5)
    assert not report.checked
    assert any("delta" in msg for msg in report.precondition_failures)
    assert report.violations == ()


def test_local_optimality_refuses_large_ghat():
    wide = GameConfig(delta=0.9, s1=0.5, g_hat=0.5)  # cap is 1 - c/(delta b) ~ 0.259
    report = check_local_optimality(wide, DONATION, grid_size=5)
    assert not report.checked
    assert any("g_hat" in msg for msg in report.precondition_failures)


# ------------------------------------------------------------------ granular payoff


def test_granular_enumeration_agrees_with_categorical_identity():
    for k, n in [(2, 8), (3, 8), (4, 12)]:
        fast = granular_expected_payoff(0.25, 0.25, n, k, CFG, DONATION)
        slow = granular_expected_payoff(
            0.25, 0.25, n, k, CFG, DONATION, enumerate_counts=True
        )
        assert fast.granular == pytest.approx(slow.granular, abs=1e-12)


def test_granular_beta_to_zero_collapses_to_top_of_grid():
    comp = granular_expected_payoff(0.25, 1e-9, 4 * 10**9, 3, CFG, DONATION)
    target = mean_field_payoff(CFG.g_hat, 0.25, 1e-9, CFG, DONATION)
    assert comp.granular == pytest.approx(target, abs=1e-5)


def test_granular_fields_are_consistent():
    comp = granular_expected_payoff(0.25, 0.25, 40, 3, CFG, DONATION)
    assert comp.g_grid == generosity_grid(3, CFG.g_hat)
    assert len(comp.mean_field) == 3
    assert comp.mean_field_at_avg == pytest.approx(
        mean_field_payoff(comp.avg_generosity, 0.25, 0.25, CFG, DONATION)
    )
    assert comp.max_abs_diff == pytest.approx(abs(comp.granular - comp.mean_field_at_avg))


def test_granular_matches_monte_carlo_oracle():
    comp = granular_expected_payoff(0.25, 0.25, 40, 3, CFG, DONATION)
    mean, se = granular_mc_oracle(
        0.25, 0.25, 40, 3, CFG, DONATION, 400_000, stream(40, "granular-mc")
    )
    assert abs(comp.granular - mean) <= 3 * se
