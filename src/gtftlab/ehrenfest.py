"""Weighted multi-urn random walk on count vectors.

The chain lives on the compositions of m balls into k ordered urns.
Each step picks a ball uniformly (equivalently, an urn proportionally
to its load) and moves it one urn up with probability a, one urn down
with probability b, truncating at the ends; otherwise nothing moves.

Alongside the sampler the module carries the exact machinery used to
verify it: the closed-form stationary law (a multinomial whose urn
weights form a geometric sequence in a/b), an enumerated-state linear
solver, detailed-balance residuals, total-variation evolution,
coupling-based mixing estimates, and the explicit mixing-time bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .rng import ensure_rng

DEFAULT_STATE_CAP = 10**6
DEFAULT_STEP_LIMIT = 10**9


class CapExceededError(RuntimeError):
    """State space larger than the configured enumeration cap."""


class StepLimitError(RuntimeError):
    """A sampled walk ran past its step limit without terminating."""


@dataclass(frozen=True)
class EhrenfestParams:
    """Chain parameters: k urns, up/down weights a and b, m balls."""

    k: int
    a: float
    b: float
    m: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"need k >= 2 urns, got {self.k}")
        if self.m < 1:
            raise ValueError(f"need m >= 1 balls, got {self.m}")
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"need a, b > 0, got a={self.a}, b={self.b}")
        if self.a + self.b > 1 + 1e-12:
            raise ValueError(f"need a + b <= 1, got {self.a + self.b}")

    @property
    def lam(self) -> float:
        """Weight ratio a/b; the stationary urn weights are lam**(j-1)."""
        return self.a / self.b


@dataclass(frozen=True)
class MultinomialDist:
    """Multinomial law with m trials and cell probabilities p."""

    m: int
    p: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(math.isfinite(q) for q in self.p):
            raise ValueError(f"cell probabilities must be finite, got {self.p}")
        if abs(sum(self.p) - 1.0) > 1e-12:
            raise ValueError(f"cell probabilities sum to {sum(self.p)}, not 1")
        if any(q < 0 for q in self.p):
            raise ValueError("cell probabilities must be nonnegative")

    def pmf(self, x: tuple[int, ...]) -> float:
        if len(x) != len(self.p) or sum(x) != self.m:
            raise ValueError(f"{x} is not a composition of {self.m} into {len(self.p)} parts")
        log_coef = math.lgamma(self.m + 1) - sum(math.lgamma(xi + 1) for xi in x)
        log_prob = 0.0
        for xi, q in zip(x, self.p):
            if xi == 0:
                continue
            if q == 0.0:
                return 0.0
            log_prob += xi * math.log(q)
        return math.exp(log_coef + log_prob)

    def mean(self) -> np.ndarray:
        return self.m * np.asarray(self.p)


@dataclass(frozen=True)
class MixingEstimate:
    """A mixing-time figure: the step count, how it was obtained, and at what level."""

    t_hat: int
    method: str  # "exact-tv" or "coupling-tail"
    epsilon: float
    trials: int

    def __post_init__(self) -> None:
        if self.t_hat < 0:
            raise ValueError("t_hat must be nonnegative")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")


def state_count(k: int, m: int) -> int:
    """Number of compositions of m into k nonnegative parts."""
    return math.comb(m + k - 1, k - 1)


def enumerate_states(k: int, m: int, cap: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All count vectors, in lexicographically decreasing order of coordinates."""
    n_states = state_count(k, m)
    if n_states > cap:
        raise CapExceededError(f"{n_states} states exceeds cap {cap} for k={k}, m={m}")
    out: list[tuple[int, ...]] = []

    def fill(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            fill(prefix + (first,), remaining - first, slots - 1)

    fill((), m, k)
    return out


def _check_state(x: tuple[int, ...], params: EhrenfestParams) -> None:
    if len(x) != params.k or any(xi < 0 for xi in x) or sum(x) != params.m:
        raise ValueError(f"{x} is not a valid count vector for k={params.k}, m={params.m}")


def transition_row(
    x: tuple[int, ...], params: EhrenfestParams
) -> dict[tuple[int, ...], float]:
    """Exact one-step distribution out of state x, including the self loop."""
    _check_state(x, params)
    k, a, b, m = params.k, params.a, params.b, params.m
    row: dict[tuple[int, ...], float] = {}
    move_mass = 0.0
    for j in range(k - 1):
        if x[j] > 0:
            p = a * x[j] / m
            y = x[:j] + (x[j] - 1, x[j + 1] + 1) + x[j + 2:]
            row[y] = row.get(y, 0.0) + p
            move_mass += p
        if x[j + 1] > 0:
            p = b * x[j + 1] / m
            y = x[:j] + (x[j] + 1, x[j + 1] - 1) + x[j + 2:]
            row[y] = row.get(y, 0.0) + p
            move_mass += p
    # a + b may sit a few ulps above 1; keep the self loop a probability
    row[x] = row.get(x, 0.0) + max(0.0, 1.0 - move_mass)
    return row


def step(
    x: tuple[int, ...], params: EhrenfestParams, rng: np.random.Generator | int | None
) -> tuple[int, ...]:
    """Sample one transition from state x."""
    _check_state(x, params)
    rng = ensure_rng(rng)
    k, a, b, m = params.k, params.a, params.b, params.m
    u = rng.random()
    acc = 0.0
    for j in range(k - 1):
        acc += a * x[j] / m
        if u < acc:
            return x[:j] + (x[j] - 1, x[j + 1] + 1) + x[j + 2:]
        acc += b * x[j + 1] / m
        if u < acc:
            return x[:j] + (x[j] + 1, x[j + 1] - 1) + x[j + 2:]
    return x


def geometric_weights(lam: float, k: int) -> np.ndarray:
    """The k cell probabilities proportional to lam**(j-1), j = 1..k.

    The plain powers lam**(j-1) are normalised as they are wherever their
    sum is finite. On overflow the exponents are shifted down by k - 1,
    which makes the largest weight 1 and leaves the ratios unchanged.
    """
    exponents = np.arange(k, dtype=float)
    with np.errstate(over="ignore"):
        weights = np.power(lam, exponents)
        total = weights.sum()
    if not math.isfinite(total):
        weights = np.power(lam, exponents - (k - 1))
        total = weights.sum()
    return weights / total


def stationary_closed(params: EhrenfestParams) -> MultinomialDist:
    """Closed-form stationary law: multinomial with urn weights lam**(j-1)."""
    return MultinomialDist(m=params.m, p=tuple(geometric_weights(params.lam, params.k)))


def build_kernel(params: EhrenfestParams, cap: int = DEFAULT_STATE_CAP):
    """Enumerated states, their index map, and the sparse transition matrix."""
    states = enumerate_states(params.k, params.m, cap)
    index = {x: i for i, x in enumerate(states)}
    rows, cols, vals = [], [], []
    for i, x in enumerate(states):
        for y, p in transition_row(x, params).items():
            rows.append(i)
            cols.append(index[y])
            vals.append(p)
    kernel = sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))
    return states, index, kernel


def solve_stationary_exact(
    params: EhrenfestParams,
    cap: int = DEFAULT_STATE_CAP,
    tol: float = 1e-14,
    max_iters: int = 200_000,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Stationary distribution over enumerated states, independent of the closed form.

    Power iteration from the uniform distribution until the L1 residual of
    pi P = pi drops below ``tol``; on non-convergence, a direct null-space
    solve of the same balance equations takes over.
    """
    states, _, kernel = build_kernel(params, cap)
    n = len(states)
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = pi @ kernel
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() <= tol:
            return states, nxt
        pi = nxt
    dense = kernel.toarray()
    system = dense.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    if pi.min() < -1e-10:
        raise RuntimeError("stationary solve produced negative mass")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return states, pi


def detailed_balance_residual(
    params: EhrenfestParams,
    dist: MultinomialDist | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Max over adjacent pairs of |pi(x) P(x,y) - pi(y) P(y,x)|.

    Defaults to the closed-form stationary law; pass ``dist`` to probe how
    sharply the residual reacts to a perturbed candidate.
    """
    if dist is None:
        dist = stationary_closed(params)
    states = enumerate_states(params.k, params.m, cap)
    a, b, m = params.a, params.b, params.m
    worst = 0.0
    for x in states:
        px = dist.pmf(x)
        for j in range(params.k - 1):
            if x[j] == 0:
                continue
            y = x[:j] + (x[j] - 1, x[j + 1] + 1) + x[j + 2:]
            forward = px * a * x[j] / m
            backward = dist.pmf(y) * b * (x[j + 1] + 1) / m
            worst = max(worst, abs(forward - backward))
    return worst


def corner_labels(params: EhrenfestParams) -> tuple[list[int], list[int]]:
    """The two extreme label vectors: every ball in urn 1, every ball in urn k."""
    return [1] * params.m, [params.k] * params.m


def coupled_run(
    params: EhrenfestParams,
    x0: list[int],
    y0: list[int],
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> int:
    """Run two label walks under shared randomness; return the first step they agree.

    Both walks hold m labels in 1..k. Each step samples one ball position
    uniformly and applies the same up/down/stay draw to that coordinate of
    both walks, truncating to the label range. Shared draws make the
    per-coordinate gap non-increasing, which is asserted as the run goes.
    """
    rng = ensure_rng(rng)
    k, a, b, m = params.k, params.a, params.b, params.m
    if len(x0) != m or len(y0) != m:
        raise ValueError(f"label vectors must have length m={m}")
    if any(not 1 <= v <= k for v in x0 + y0):
        raise ValueError("labels must lie in 1..k")
    x = list(x0)
    y = list(y0)
    unmatched = sum(1 for xi, yi in zip(x, y) if xi != yi)
    if unmatched == 0:
        return 0
    t = 0
    block = 1 << 14
    while t < step_limit:
        coords = rng.integers(0, m, size=block).tolist()
        moves = rng.random(block)
        ups = (moves < a).tolist()
        downs = (moves >= a) & (moves < a + b)
        downs = downs.tolist()
        for i, up, down in zip(coords, ups, downs):
            t += 1
            if up:
                dx, dy = min(x[i] + 1, k), min(y[i] + 1, k)
            elif down:
                dx, dy = max(x[i] - 1, 1), max(y[i] - 1, 1)
            else:
                continue
            gap_before = abs(x[i] - y[i])
            gap_after = abs(dx - dy)
            assert gap_after <= gap_before, "coupling gap increased"
            if gap_before != 0 and gap_after == 0:
                unmatched -= 1
            x[i], y[i] = dx, dy
            if unmatched == 0:
                return t
            if t >= step_limit:
                break
    raise StepLimitError(f"coupling did not coalesce within {step_limit} steps")


def estimate_mixing(
    params: EhrenfestParams,
    epsilon: float,
    trials: int,
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> MixingEstimate:
    """Coupling-tail mixing estimate from the two extreme starting states.

    Runs ``trials`` independent couplings started at the all-urn-1 versus
    all-urn-k label vectors and reports the empirical (1 - epsilon)
    quantile of the coupling time. The coupling inequality makes this an
    upper-bound style estimator for the time at which the distance to
    stationarity falls below epsilon; it is not the mixing time itself.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = ensure_rng(rng)
    x0, y0 = corner_labels(params)
    taus = [coupled_run(params, x0, y0, rng, step_limit) for _ in range(trials)]
    t_hat = int(np.quantile(taus, 1.0 - epsilon, method="higher"))
    return MixingEstimate(t_hat=t_hat, method="coupling-tail", epsilon=epsilon, trials=trials)


def mixing_bound(params: EhrenfestParams) -> float:
    """Explicit coupling bound 2 * Phi * log2(4m) on the mixing time.

    Phi is min(k/|a-b|, k^2) * m for a != b and k^2 * m for a = b. The
    log is base 2: the tail argument halves the miss probability once per
    2*Phi steps, so log2(4m) rounds drive it below 1/4.
    """
    k, a, b, m = params.k, params.a, params.b, params.m
    if a == b:
        phi = k * k * m
    else:
        phi = min(k / abs(a - b), k * k) * m
    return 2.0 * phi * math.log2(4 * m)


def absorption_times(
    k: int,
    a: float,
    b: float,
    n_runs: int,
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> np.ndarray:
    """Absorption times of n_runs independent walks, advanced in lockstep.

    Each walk starts at 0 on -k..k, steps +1 w.p. a and -1 w.p. b, and
    stops on first hitting +-k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if not (a > 0 and b > 0 and a + b <= 1 + 1e-12):
        raise ValueError("need a, b > 0 with a + b <= 1")
    rng = ensure_rng(rng)
    z = np.zeros(n_runs, dtype=np.int64)
    tau = np.zeros(n_runs, dtype=np.int64)
    alive = np.arange(n_runs)
    t = 0
    while alive.size:
        t += 1
        if t > step_limit:
            raise StepLimitError(f"no absorption within {step_limit} steps")
        u = rng.random(alive.size)
        z[alive] += (u < a).astype(np.int64) - ((u >= a) & (u < a + b)).astype(np.int64)
        hit = np.abs(z[alive]) == k
        tau[alive[hit]] = t
        alive = alive[~hit]
    return tau


def expected_absorption_closed(k: int, a: float, b: float) -> float:
    """Expected absorption time of the +-k walk, from the martingale argument.

    For a != b this is the optional-stopping value
    k/(a-b) * (2(r-1)/(r-1/r) - 1) with r = (a/b)^k, written as
    k/(a-b) * tanh(ln(r)/2) so that it neither cancels near a = b nor
    overflows at large k. A balanced walk needs k^2 moves on average and
    moves w.p. a + b per step, hence k^2 / (a + b). Both are exact for any
    a + b <= 1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if a == b:
        return k * k / (a + b)
    return k / (a - b) * math.tanh(0.5 * k * math.log1p((a - b) / b))


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance between two PMFs on the same state list."""
    return 0.5 * float(np.abs(np.asarray(mu) - np.asarray(nu)).sum())


def tv_distance_exact(
    params: EhrenfestParams,
    t: int,
    x0: tuple[int, ...],
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """TV distance to stationarity after t exact steps from a point mass at x0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    states, index, kernel = build_kernel(params, cap)
    mu = np.zeros(len(states))
    mu[index[tuple(x0)]] = 1.0
    for _ in range(t):
        mu = mu @ kernel
    target = stationary_closed(params)
    pi = np.array([target.pmf(x) for x in states])
    return tv_distance(mu, pi)


def tmix_exact(
    params: EhrenfestParams,
    epsilon: float = 0.25,
    all_inits: bool = False,
    t_max: int | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> MixingEstimate:
    """First t at which the exact distance to stationarity is <= epsilon.

    By default the distance is maximized over the two corner point masses
    (all balls in urn 1 or urn k), which are the extreme states under the
    coupling order; no proof pins them as the global worst case, so
    ``all_inits=True`` maximizes over the whole state space instead.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    states, index, kernel = build_kernel(params, cap)
    target = stationary_closed(params)
    pi = np.array([target.pmf(x) for x in states])
    if all_inits:
        inits = list(range(len(states)))
    else:
        top = tuple([params.m] + [0] * (params.k - 1))
        bottom = tuple([0] * (params.k - 1) + [params.m])
        inits = [index[top], index[bottom]]
    mus = np.zeros((len(inits), len(states)))
    for row, i in enumerate(inits):
        mus[row, i] = 1.0
    if t_max is None:
        t_max = 4 * math.ceil(mixing_bound(params)) + 1
    for t in range(t_max + 1):
        d = 0.5 * np.abs(mus - pi).sum(axis=1).max()
        if d <= epsilon:
            return MixingEstimate(t_hat=t, method="exact-tv", epsilon=epsilon, trials=0)
        mus = mus @ kernel
    raise RuntimeError(f"distance stayed above {epsilon} through t_max={t_max}")
