"""Payoff analysis of the tuning dynamics at stationarity.

The central object is the mean-field payoff F(g, alpha, beta): the
expected game payoff of a GTFT node whose opponent is drawn from the
population, under the simplification that every GTFT node plays the
same generosity g. For donation games F is concave in g, with slope

    F'(g) = delta (1 - alpha - beta) [(b - c)(1 - s1) / (1 - delta + delta g)^2
                                      - phi c / (1 - delta)],

so the round-one cooperation s1 enters only through the factor 1 - s1,
and the ratio phi = beta*n/m of defectors to GTFT nodes decides whether
the maximizer sits at g_hat, at zero, or at the one root in between.

The module also evaluates the average stationary generosity of the
dynamics, the optimality gap bound between it and the F-maximizer, the
local-optimality property of the update rules, and a granular payoff
that keeps the full stationary distribution over generosity values
instead of averaging it away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehrenfest import (MultinomialDist, _check_count, _check_mix, _check_share, _real,
                        geometric_weights, state_array)
from .games import ALLC, ALLD, GameConfig, RewardVector, expected_payoff_closed
from .population import generosity_grid


def weight_ratio(beta: float) -> float:
    """Ratio lam = (1 - beta)/beta of the up to the down weight of the dynamics."""
    _check_share(beta)
    return (1.0 - beta) / beta


def stationary_weights(beta: float, k: int, m: int) -> MultinomialDist:
    """Stationary multinomial of the dynamics: cell weights lam**(j-1)."""
    return MultinomialDist(m=m, p=tuple(geometric_weights(weight_ratio(beta), k)))


def avg_stationary_generosity(k: int, beta: float, g_hat: float) -> float:
    """Mean generosity sum_j g_j p_j under the stationary law of the k-point dynamics."""
    grid = np.asarray(generosity_grid(k, g_hat))
    lam = weight_ratio(beta)
    if beta == 0.5:
        return g_hat / 2.0
    return float(grid @ geometric_weights(lam, k))


def mean_field_payoff(g, alpha: float, beta: float, cfg: GameConfig, rv: RewardVector):
    """F(g, alpha, beta): payoff of GTFT(g) against a random opponent, all GTFT at g.

    Broadcasts over an array of g and returns a float for a float g. A
    zero-weighted term adds an exact zero; the GTFT share is held at 0
    where 1 - alpha - beta rounds below it.
    """
    if not (_real(alpha) >= 0 and _real(beta) >= 0 and alpha + beta <= 1):
        raise ValueError(f"invalid population fractions alpha={alpha}, beta={beta}")
    gtft_frac = max(1.0 - alpha - beta, 0.0)
    total = (
        alpha * expected_payoff_closed(g, ALLC, cfg, rv)
        + beta * expected_payoff_closed(g, ALLD, cfg, rv)
        + gtft_frac * expected_payoff_closed(g, g, cfg, rv)
    )
    return total if np.ndim(total) else float(total)


def phi_ratio(alpha: float, beta: float) -> float:
    """Defector-to-GTFT ratio beta*n/m = beta/(1 - alpha - beta).

    Defined for alpha >= 0, beta > 0 and alpha + beta < 1; anything else,
    NaN included, raises ValueError.
    """
    _check_mix(alpha, beta)
    _check_share(beta)
    return beta / (1.0 - alpha - beta)


def _critical_phi(g: float, cfg: GameConfig, rv: RewardVector) -> float:
    """The phi at which dF/dg = 0 at g: (b - c)(1 - delta) / ((c/(1 - s1)) (1 - delta(1 - g))^2)."""
    benefit, cost = rv.donation_params()
    return (benefit - cost) * (1.0 - cfg.delta) / (
        cost / (1.0 - cfg.s1) * (1.0 - cfg.delta * (1.0 - g)) ** 2
    )


def low_phi_threshold(cfg: GameConfig, rv: RewardVector) -> float:
    """Largest phi at which dF/dg >= 0 over the whole grid range, so g* = g_hat."""
    return _critical_phi(cfg.g_hat, cfg, rv)


def high_phi_threshold(cfg: GameConfig, rv: RewardVector) -> float:
    """Smallest phi at which dF/dg <= 0 everywhere, so g* = 0."""
    return _critical_phi(0.0, cfg, rv)


def optimal_generosity(
    alpha: float, beta: float, n: int, cfg: GameConfig, rv: RewardVector
) -> tuple[float, str]:
    """Maximizer of F over [0, g_hat] for a donation game, with its phi regime.

    F is concave, so low phi pins the maximizer to g_hat, high phi to 0,
    and in between it is the root (1 - delta)(sqrt(phi_high/phi) - 1)/delta
    of dF/dg, clamped to the domain as a guard against rounding.
    """
    del n  # phi depends only on the fractions; kept for signature symmetry
    phi_low = low_phi_threshold(cfg, rv)  # rejects non-donation vectors
    phi = phi_ratio(alpha, beta)
    if phi <= phi_low:
        return cfg.g_hat, "low"
    phi_high = high_phi_threshold(cfg, rv)
    if phi >= phi_high:
        return 0.0, "high"
    # delta > 0 here: at delta = 0 the two thresholds are one number
    root = (1.0 - cfg.delta) * (np.sqrt(phi_high / phi) - 1.0) / cfg.delta
    return min(max(float(root), 0.0), cfg.g_hat), "mid"


def gap_bound(k: int, beta: float) -> float:
    """Bound beta / ((1 - 2 beta)(k - 1)) on |g* - avg stationary generosity| at low phi."""
    _check_count("k", k, 2)
    if not 0.0 < _real(beta) < 0.5:
        raise ValueError(f"bound requires beta in (0, 1/2), got {beta}")
    return beta / ((1.0 - 2.0 * beta) * (k - 1))


@dataclass(frozen=True)
class GenerosityReport:
    """Stationary generosity of the dynamics versus the mean-field optimum."""

    k: int
    avg_stationary_generosity: float
    lam: float
    g_star: float
    regime: str
    gap: float
    gap_bound: float | None
    phi: float


def generosity_report(
    k: int, alpha: float, beta: float, n: int, cfg: GameConfig, rv: RewardVector
) -> GenerosityReport:
    g_star, regime = optimal_generosity(alpha, beta, n, cfg, rv)
    wg = avg_stationary_generosity(k, beta, cfg.g_hat)
    bound = gap_bound(k, beta) if beta < 0.5 else None
    return GenerosityReport(
        k=k,
        avg_stationary_generosity=wg,
        lam=weight_ratio(beta),
        g_star=g_star,
        regime=regime,
        gap=abs(g_star - wg),
        gap_bound=bound,
        phi=phi_ratio(alpha, beta),
    )


@dataclass(frozen=True)
class LocalOptimalityReport:
    """Outcome of the monotonicity check of the update rules."""

    checked: bool
    precondition_failures: tuple[str, ...]
    grid_size: int
    n_comparisons: int
    violations: tuple[tuple[str, float, float, float], ...]

    @property
    def ok(self) -> bool:
        return self.checked and not self.violations


def check_local_optimality(
    cfg: GameConfig, rv: RewardVector, grid_size: int = 20
) -> LocalOptimalityReport:
    """Verify the payoff monotonicities that make each update rule a local improvement.

    On a grid over [0, g_hat]^3 and for every g < g': payoff against a
    GTFT opponent strictly increases in own generosity, against AllC it
    stays constant, and against AllD it strictly decreases. Runs only
    when the reward vector and config satisfy the preconditions; else
    reports them and skips. Needs at least two grid points.
    """
    _check_count("grid_size", grid_size, 2)
    failures = []
    if rv.R + rv.P > rv.T + rv.S + 1e-12 * rv.max_abs:
        failures.append(f"requires R + P <= T + S, got {rv.R + rv.P} > {rv.T + rv.S}")
    threshold = (rv.T - rv.R) / (rv.R - rv.S)
    if cfg.delta <= threshold:
        failures.append(f"requires delta > (T-R)/(R-S) = {threshold}, got {cfg.delta}")
    else:
        g_cap = 1.0 - (rv.T - rv.R) / (cfg.delta * (rv.R - rv.S))
        if cfg.g_hat >= g_cap:
            failures.append(f"requires g_hat < 1 - (T-R)/(delta (R-S)) = {g_cap}, got {cfg.g_hat}")
    if failures:
        return LocalOptimalityReport(
            checked=False,
            precondition_failures=tuple(failures),
            grid_size=grid_size,
            n_comparisons=0,
            violations=(),
        )

    grid = np.linspace(0.0, cfg.g_hat, grid_size)
    f_allc, f_alld, f_gg = _payoff_tables(grid, cfg, rv)
    lo, hi = np.triu_indices(grid_size, 1)
    # one row per pair g < g'; columns AllC, AllD, then each GTFT opponent
    bad = np.column_stack((f_allc[lo] != f_allc[hi], ~(f_alld[lo] > f_alld[hi]),
                           ~(f_gg[lo] < f_gg[hi])))
    pair, col = np.nonzero(bad)
    names = np.array(("vs-allc-not-constant", "vs-alld-not-decreasing", "vs-gtft-not-increasing"))
    opponent = np.concatenate(([np.nan, np.nan], grid))
    violations = zip(names[np.minimum(col, 2)].tolist(), grid[lo[pair]].tolist(),
                     grid[hi[pair]].tolist(), opponent[col].tolist())
    return LocalOptimalityReport(
        checked=True,
        precondition_failures=(),
        grid_size=grid_size,
        n_comparisons=bad.size,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class PayoffComparison:
    """Mean-field payoff curve next to the granular stationary payoff.

    ``mean_field`` samples F on the generosity grid; ``granular`` is the
    single stationary value (it has no g argument); ``mean_field_at_avg``
    evaluates F at the average stationary generosity. ``max_abs_diff`` is
    the gap between those last two.
    """

    alpha: float
    beta: float
    k: int
    g_grid: tuple[float, ...]
    mean_field: tuple[float, ...]
    granular: float
    avg_generosity: float
    mean_field_at_avg: float
    max_abs_diff: float


def _payoff_tables(grid: np.ndarray, cfg: GameConfig, rv: RewardVector):
    f_allc = expected_payoff_closed(grid, ALLC, cfg, rv)
    f_alld = expected_payoff_closed(grid, ALLD, cfg, rv)
    f_gg = expected_payoff_closed(grid[:, None], grid[None, :], cfg, rv)
    return f_allc, f_alld, f_gg


def granular_expected_payoff(
    alpha: float,
    beta: float,
    n: float,
    k: int,
    cfg: GameConfig,
    rv: RewardVector,
    enumerate_counts: bool = False,
) -> PayoffComparison:
    """Expected GTFT payoff with the stationary spread of generosities kept intact.

    Under the stationary multinomial the m grid labels are i.i.d.
    categorical(p), so a random GTFT node has index i ~ p and a distinct
    GTFT partner independently j ~ p. The granular payoff is therefore

        sum_i p_i [alpha f_C(g_i) + beta f_D(g_i) + (m/n) sum_j p_j f(g_i, g_j)]

    with no correction for sampling without replacement. Setting
    ``enumerate_counts`` recomputes it by summing over the whole count
    space with multinomial weights and distinct-partner frequencies,
    which agrees exactly and cross-checks the identity on small m.
    """
    _check_mix(alpha, beta)  # and stationary_weights checks beta > 0 before the tables
    m_exact = (1.0 - alpha - beta) * n
    m = round(m_exact) if np.isfinite(m_exact) else 0  # round(inf) overflows
    if abs(m_exact - m) > 1e-9 or m < 1:
        raise ValueError(f"(1 - alpha - beta) * n = {m_exact} is not a positive integer")
    dist = stationary_weights(beta, k, m)
    p = np.asarray(dist.p)
    grid = np.asarray(generosity_grid(k, cfg.g_hat))
    f_allc, f_alld, f_gg = _payoff_tables(grid, cfg, rv)
    gtft_frac = m / n

    if enumerate_counts:
        if m < 2:
            raise ValueError("count enumeration needs at least two GTFT nodes")
        states = state_array(k, m)
        weight = np.exp(dist.log_pmf(states))
        counts = states.astype(float)
        # row s, column i: a focal node at index i meets one of the other
        # m - 1 GTFT nodes, so its own index leaves the partner counts
        partner = (counts @ f_gg.T - np.diag(f_gg)) / (m - 1)
        per_focal = alpha * f_allc + beta * f_alld + gtft_frac * partner
        granular = float(weight @ (counts / m * per_focal).sum(axis=1))
    else:
        granular = float(
            p @ (alpha * f_allc + beta * f_alld + gtft_frac * (f_gg @ p))
        )

    wg = avg_stationary_generosity(k, beta, cfg.g_hat)
    mean_field_curve = tuple(mean_field_payoff(grid, alpha, beta, cfg, rv).tolist())
    at_avg = mean_field_payoff(wg, alpha, beta, cfg, rv)
    return PayoffComparison(
        alpha=alpha,
        beta=beta,
        k=k,
        g_grid=tuple(float(g) for g in grid),
        mean_field=mean_field_curve,
        granular=granular,
        avg_generosity=wg,
        mean_field_at_avg=at_avg,
        max_abs_diff=abs(granular - at_avg),
    )
