"""Weighted multi-urn random walk on count vectors.

The chain lives on the compositions of m balls into k ordered urns.
Each step picks a ball uniformly (equivalently, an urn proportionally
to its load) and moves it one urn up with probability a, one urn down
with probability b, truncating at the ends; otherwise nothing moves.

The module holds the exact machinery that the samplers (the agent
simulation and the coupling runs) are checked against: the closed-form
stationary law (a multinomial whose urn weights form a geometric
sequence in a/b), the enumerated state space as an integer array ranked
by the combinatorial number system, the kernel's moves read off array
shifts of that ranking one urn pair at a time, a stationary solver that
reads pi off a, b and the counts of those moves, with no closed-form
weight, by detailed balance along a spanning tree and accepts it only if
||pi P - pi||_1 <= tol, detailed-balance residuals, one exact scan of
the total-variation distance to stationarity, coupling-based mixing
estimates, and the explicit mixing-time bound. ``_kernel_moves`` is the
one place the moves are derived: the solver's tree edges and both
residuals' balance flows are read off its urn-pair moves. They are
packed into a sparse matrix only by ``build_kernel``, whose product, the
one product with the kernel, serves the distance scan; scipy is imported
there, so no other path loads it.

The coupling time is sampled ball by ball, not step by step. Each step
picks a ball uniformly and draws its move independently, so each ball
needs its own i.i.d. number of moves before its two copies meet. That
number is drawn from one hit table of the one-ball pair chain, and the
steps are recovered from a Poisson embedding of the picks
(``_coupling_times``); the law of the step rule is unchanged. The
absorption time of the +-k walk is the same sampler on a one-ball chain
whose met state is both ends.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add, mul
from typing import TYPE_CHECKING

import numpy as np

from .rng import ensure_rng

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_STATE_CAP = 10**6
DEFAULT_STEP_LIMIT = 10**9
# numpy's largest Poisson mean: a larger one gives a count past int64
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
_NOT_A_COMPOSITION = "{} is not a composition of {} into {} parts"  # x, m, k


class CapExceededError(RuntimeError):
    """State space larger than the configured enumeration cap."""


class StepLimitError(RuntimeError):
    """A sampled walk or an exact scan ran past its step limit without terminating."""


class ResidualError(RuntimeError):
    """A solved stationary law failed its residual check ||pi P - pi||_1 <= tol."""


def _check_count(name: str, value, least: int) -> None:
    """The package's one integer rule: every count argument is checked here."""
    # bool is an int subclass: True must not pass for a count of 1
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"need an integer {name} >= {least}, got {value!r}")


def _real(x):
    """x if it is a real number or an array of them, else NaN, which every float rule refuses."""
    if isinstance(x, (float, int)):  # first: the rules run on every call of some hot paths
        return x
    if isinstance(x, np.ndarray):
        return x if x.dtype.kind in "biuf" else math.nan
    return x if isinstance(x, numbers.Real) else math.nan


def _check_rates(a: float, b: float) -> None:
    # written so that a NaN weight fails it; a + b may sit a few ulps above 1
    if not (_real(a) > 0 and _real(b) > 0 and a + b <= 1 + 1e-12):
        raise ValueError(f"need a, b > 0 with a + b <= 1, got a={a}, b={b}")


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < _real(epsilon) < 1.0:  # NaN fails too
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def _check_mix(alpha: float, beta: float) -> None:
    if not (_real(alpha) >= 0 and _real(beta) >= 0 and alpha + beta < 1):  # NaN fails too
        raise ValueError(f"need alpha, beta >= 0 with alpha + beta < 1, got {alpha}, {beta}")


def _check_share(beta: float) -> None:
    if not 0.0 < _real(beta) < 1.0:  # NaN fails too
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def _check_tol(tol: float) -> None:
    if not _real(tol) > 0:  # a NaN tol would pass no residual and blame the solve
        raise ValueError(f"tol must be positive, got {tol}")


def _check_generosity(name: str, g) -> None:
    if not np.all((0.0 <= (r := _real(g))) & (r <= 1.0)):  # g may be an array; NaN fails too
        raise ValueError(f"{name} must be in [0, 1], got {g}")


def _whole_numbers(x) -> np.ndarray | None:
    """x as an integer array if each entry is a whole number (not a bool or a string), else None."""
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nesting
        return None
    # numpy reads a bool among numbers as 0 or 1; only an array keeps its own dtype
    if arr.dtype.kind not in "iuf" or not isinstance(x, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat):
        return None
    if arr.dtype.kind == "f":  # NaN, inf and whole numbers past int64 fail
        whole = (arr == np.round(arr)) & (np.abs(arr) < 2.0**63)
        return arr.astype(np.int64) if whole.all() else None
    return arr


@dataclass(frozen=True)
class EhrenfestParams:
    """Chain parameters: k urns, up/down weights a and b, m balls."""

    k: int
    a: float
    b: float
    m: int

    def __post_init__(self) -> None:
        _check_count("k", self.k, 2)
        _check_count("m", self.m, 1)
        _check_rates(self.a, self.b)

    @property
    def lam(self) -> float:
        """Weight ratio a/b; the stationary urn weights are lam**(j-1)."""
        return self.a / self.b


class _LogFactorials(dict):
    """lgamma(i + 1) for each count i in 0..m met so far.

    A miss first checks that i is such a count, so the memo never holds
    more than m + 1 entries.
    """

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, i):
        if not (0 <= i <= self.m and i % 1 == 0):
            raise ValueError(f"{i!r} is not a count in 0..{self.m}")
        value = self[i] = math.lgamma(int(i) + 1)  # int(): a numpy count must not wrap
        return value


@dataclass(frozen=True)
class MultinomialDist:
    """Multinomial law with m trials and cell probabilities p.

    The log terms of ``pmf`` are built once per distribution, on first use:
    a memo of lgamma(i + 1) filled only for the counts it meets, log q for
    each cell with q > 0, and the cells with q = 0. ``log_pmf`` builds its
    own lgamma table over 0..m on each call and leaves the memo as it is.
    """

    m: int
    p: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_count("m", self.m, 0)
        if not all(math.isfinite(_real(q)) for q in self.p):
            raise ValueError(f"cell probabilities must be finite, got {self.p}")
        if abs(sum(self.p) - 1.0) > 1e-12:
            raise ValueError(f"cell probabilities sum to {sum(self.p)}, not 1")
        if any(q < 0 for q in self.p):
            raise ValueError("cell probabilities must be nonnegative")

    @cached_property
    def _log_terms(self) -> tuple[_LogFactorials, tuple[float, ...], tuple[int, ...]]:
        # an empty cell's log weight is never read: its count is 0 or the pmf is 0
        log_q = tuple(math.log(q) if q > 0 else 0.0 for q in self.p)
        return _LogFactorials(self.m), log_q, tuple(j for j, q in enumerate(self.p) if q == 0)

    def pmf(self, x: tuple[int, ...]) -> float:
        # the memo checks x as _check_state would, but lets a bool pass: a type scan costs a fifth
        log_fact, log_q, empty = self._log_terms
        try:
            if len(x) != len(log_q) or sum(x) != self.m:
                raise ValueError
            # a count the memo has not met is checked on the miss
            log_coef = log_fact[self.m] - sum(map(log_fact.__getitem__, x))
        except (TypeError, ValueError):  # TypeError: a string, or an x with no length
            raise ValueError(_NOT_A_COMPOSITION.format(x, self.m, len(log_q))) from None
        if empty and any(x[j] for j in empty):
            return 0.0
        # plain left-to-right addition: builtin sum() compensates from Python 3.12 on
        return math.exp(log_coef + reduce(add, map(mul, x, log_q), 0.0))

    def log_pmf(self, states: np.ndarray) -> np.ndarray:
        """Log-probability of each row of an (S, k) array of count vectors."""
        states = _check_state(states, len(self.p), self.m, ndim=2)
        table = np.array([math.lgamma(i + 1) for i in range(self.m + 1)])
        # not the memo's math.log weights: numpy's log can differ from it in the last bit
        with np.errstate(divide="ignore"):
            log_p = np.log(self.p)
        # an empty cell contributes nothing even where its probability is 0
        log_prob = (states * np.where(states > 0, log_p, 0.0)).sum(axis=1)
        return table[self.m] - table[states].sum(axis=1) + log_prob


@dataclass(frozen=True)
class MixingEstimate:
    """A mixing-time figure: the step count, how it was obtained, and at what level."""

    t_hat: int
    method: str  # "exact-tv" or "coupling-tail"
    epsilon: float
    trials: int

    def __post_init__(self) -> None:
        _check_count("t_hat", self.t_hat, 0)
        _check_epsilon(self.epsilon)


def state_count(k: int, m: int) -> int:
    """Number of compositions of m into k nonnegative parts."""
    return math.comb(m + k - 1, k - 1)


def _rank_table(k: int, m: int) -> np.ndarray:
    """table[j, t] = C(t + k - 2 - j, k - 1 - j) for urns j < k - 1 and t = 0..m.

    With t balls above urn j, that is the number of count vectors that
    agree with x below urn j and hold more balls in urn j, so they come
    before x. Summed over j it is the rank of x in lexicographically
    decreasing order: the combinatorial number system.
    """
    table = np.empty((k - 1, m + 1), dtype=np.int64)
    row = np.ones(m + 1, dtype=np.int64)
    row[0] = 0
    for j in range(k - 2, -1, -1):
        row = np.cumsum(row)  # Pascal's rule: C(t+r-1, r) = sum over u <= t of C(u+r-2, r-1)
        table[j] = row
    return table


def _tails(states: np.ndarray, m: int) -> np.ndarray:
    """tails[:, j]: the number of balls in the urns above urn j."""
    return m - np.cumsum(states, axis=1, dtype=np.int64)


def _rank(states: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """Position of each row of ``states`` in the enumeration order."""
    k = states.shape[1]
    return table[np.arange(k - 1), _tails(states, m)[:, :-1]].sum(axis=1)


def state_array(k: int, m: int, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """All count vectors as an (S, k) integer array.

    Rows come in lexicographically decreasing order: row i is unranked from
    i, one urn at a time, by the largest tail whose table entry fits in
    what is left of i. The dtype is the smallest signed integer holding m.
    """
    _check_count("k", k, 1)
    _check_count("m", m, 0)
    return _states_and_table(k, m, cap)[0]


def _states_and_table(k: int, m: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """``state_array(k, m, cap)`` and the rank table it was unranked with."""
    n_states = state_count(k, m)
    if n_states > cap:  # str() refuses an int past 4300 digits
        size = n_states if n_states < 2**1000 else f"at least 2**{n_states.bit_length() - 1}"
        raise CapExceededError(f"{size} states exceeds cap {cap} for k={k}, m={m}")
    table = _rank_table(k, m)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= m)
    states = np.empty((n_states, k), dtype=dtype)
    rest = np.arange(n_states, dtype=np.int64)
    left = np.full(n_states, m, dtype=np.int64)  # balls in urn j and above
    for j in range(k - 1):
        tail = np.searchsorted(table[j], rest, side="right") - 1
        rest -= table[j, tail]
        states[:, j] = left - tail
        left = tail
    states[:, -1] = left
    return states, table


def _as_tuples(states: np.ndarray) -> list[tuple[int, ...]]:
    # zipping the columns builds the row tuples about twice as fast as map(tuple, rows)
    return list(zip(*states.T.tolist()))


def enumerate_states(k: int, m: int, cap: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All count vectors, in lexicographically decreasing order of coordinates."""
    return _as_tuples(state_array(k, m, cap))


def _check_state(x, k: int, m: int, ndim: int = 1) -> np.ndarray:
    """x as an integer array of k whole counts >= 0 summing to m, or with ndim=2 of such rows."""
    arr = _whole_numbers(x)
    if (arr is None or arr.ndim != ndim or arr.shape[-1] != k or (arr < 0).any()
            or (arr.sum(axis=-1) != m).any()):
        raise ValueError(_NOT_A_COMPOSITION.format(x, m, k))
    return arr


def transition_row(
    x: tuple[int, ...], params: EhrenfestParams
) -> dict[tuple[int, ...], float]:
    """Exact one-step distribution out of state x, including the self loop."""
    x = tuple(_check_state(x, params.k, params.m).tolist())
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


def geometric_weights(lam: float, k: int) -> np.ndarray:
    """The k cell probabilities proportional to lam**(j-1), j = 1..k.

    The plain powers lam**(j-1) are normalised as they are wherever their
    sum is finite. On overflow the exponents are shifted down by k - 1,
    which makes the largest weight 1 and leaves the ratios unchanged.
    """
    _check_count("k", k, 1)
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


def _kernel_moves(params: EhrenfestParams, cap: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The (S, k) state array, its rank table, and every entry of the kernel over its rows.

    The entries come one urn pair at a time: each up move x -> y across
    urns (j, j + 1) pairs with the down move y -> x, so one rank shift
    gives both. For each j the moves hold ``(lower, upper, up, down)``:
    the rows ``lower`` with a ball in urn j, the rows ``upper`` they reach,
    P(lower, upper) = a x_j / m and P(upper, lower) = b y_{j+1} / m. The
    diagonal, the self loops, follows the pairs.
    """
    k, a, b, m = params.k, params.a, params.b, params.m
    states, table = _states_and_table(k, m, cap)
    tails = _tails(states, m)
    pairs = []
    move = np.zeros(len(states))
    for j in range(k - 1):
        up = a * states[:, j] / m
        down = b * states[:, j + 1] / m
        move += up
        move += down
        # the up move adds one ball above urn j and leaves every other
        # tail alone, so only the urn-j term of the rank changes
        lower = np.flatnonzero(states[:, j])
        t = tails[lower, j]
        upper = lower + table[j, t + 1] - table[j, t]
        pairs.append((lower, upper, up[lower], down[upper]))
    # a + b may sit a few ulps above 1; keep the self loop a probability
    return states, table, (pairs, np.maximum(0.0, 1.0 - move))


def _net_flows(px: np.ndarray, pairs) -> list[np.ndarray]:
    """px(x) P(x, y) - px(y) P(y, x) for each up move x -> y of each urn pair's ``pairs``."""
    return [px[lower] * up - px[upper] * down for lower, upper, up, down in pairs]


def _flow_residual(px: np.ndarray, pairs) -> float:
    """||px P - px||_1, read as the net flow into each state: P's rows sum to 1, so no product."""
    net = np.zeros(len(px))
    for (lower, upper, _, _), flow in zip(pairs, _net_flows(px, pairs)):
        net[upper] += flow
        net[lower] -= flow
    return float(np.abs(net).sum())


def build_kernel(
    params: EhrenfestParams, cap: int = DEFAULT_STATE_CAP
) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """The (S, k) state array, its rank table, and the sparse transition matrix over its rows.

    ``_rank(states, table, m)`` gives the row of each count vector. The
    matrix holds the entries of ``_kernel_moves``.
    """
    import scipy.sparse as sp  # about 0.2 s: paid only by callers that want the matrix

    states, table, (pairs, diagonal) = _kernel_moves(params, cap)
    n = len(states)
    rows, cols, vals = [], [], []
    for lower, upper, up, down in pairs:
        rows += [lower, upper]
        cols += [upper, lower]
        vals += [up, down]
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diagonal)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return states, table, sp.csr_matrix(entries, shape=(n, n))


def _two_sum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x + y rounded, and the exact rounding error (Knuth's TwoSum)."""
    s = x + y
    z = s - x
    return s, (x - (s - z)) + (y - z)


def solve_stationary_exact(
    params: EhrenfestParams,
    cap: int = DEFAULT_STATE_CAP,
    tol: float = 1e-12,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Stationary distribution over enumerated states, independent of the closed form.

    The chain is reversible, so pi follows from the kernel's moves, with no
    closed-form weight, by detailed balance along a spanning tree. The
    parent of a state moves one ball from its first non-empty urn j + 1 >= 1
    down to urn j, which leads every state to (m, 0, ..., 0) in at most
    m(k - 1) moves, and log pi(x) - log pi(parent) =
    log P(parent, x) - log P(x, parent). So the tree edges are the urn-pair
    moves of ``_kernel_moves`` across pair j whose upper row has urns 1..j
    empty, and each edge's step is log a - log b + log(x_j / y_{j+1}), not
    read off the entries, which underflow near the float floor; the count
    ratio is a float64 (np.log of int8 counts would be float16). Pointer
    doubling sums the steps along every path in about log2(m(k - 1))
    vectorised rounds, in compensated (two-sum) arithmetic: log pi near the
    mode can be of order m, and plain rounding would unbalance neighbouring
    states by more than ``tol`` long before the state cap. pi is accepted
    only if ||pi P - pi||_1, the net balance flow into each state
    (``_flow_residual``), is at most ``tol``, else ResidualError.
    """
    _check_tol(tol)
    states, _, (pairs, _) = _kernel_moves(params, cap)
    n = len(states)
    log_ab = math.log(params.a) - math.log(params.b)
    # log pi is held as the unevaluated sum hi + lo; row 0, (m, 0, ..., 0),
    # is the root and points at itself
    hi = np.zeros(n)
    pointer = np.zeros(n, dtype=np.int64)
    empty = np.ones(n, dtype=bool)  # rows whose urns 1..j are all empty
    for j, (lower, upper, _, _) in enumerate(pairs):
        edge = empty[upper]
        pointer[upper[edge]] = lower[edge]
        hi[upper[edge]] = log_ab + np.log(states[lower[edge], j] / states[upper[edge], j + 1])
        empty &= states[:, j + 1] == 0
    lo = np.zeros(n)
    # after r rounds log pi[x] holds the steps of the first 2**r edges above x
    while pointer.any():
        hi, err = _two_sum(hi, hi[pointer])
        lo += lo[pointer] + err
        pointer = pointer[pointer]
    top = np.argmax(hi)
    shifted, err = _two_sum(hi, -hi[top])
    pi = np.exp(shifted + (err + lo - lo[top]))
    pi /= pi.sum()
    residual = _flow_residual(pi, pairs)
    if not residual <= tol:
        raise ResidualError(f"stationary residual {residual:.3e} exceeds tol {tol:.3e}")
    return _as_tuples(states), pi


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
    states, _, (pairs, _) = _kernel_moves(params, cap)
    return max(float(np.abs(flow).max())
               for flow in _net_flows(np.exp(dist.log_pmf(states)), pairs))


def corner_labels(params: EhrenfestParams) -> tuple[list[int], list[int]]:
    """The two extreme label vectors: every ball in urn 1, every ball in urn k."""
    return [1] * params.m, [params.k] * params.m


def _labels(v, k: int, m: int) -> np.ndarray:
    """v as an int64 array of m whole labels in 1..k: balls' urns, or nodes' grid indices."""
    x = _whole_numbers(v)
    if x is None or x.shape != (m,) or not ((x >= 1) & (x <= k)).all():
        raise ValueError(f"labels must be a vector of m={m} whole numbers in 1..k={k}")
    return x.astype(np.int64)


@lru_cache(maxsize=16)
def _pair_moves(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ball's two copies as the pair (lo, hi), lo < hi: its column, and where each move takes it.

    ``column[lo - 1, hi - 1]`` numbers the k(k - 1)/2 unmet pairs; number
    k(k - 1)/2 stands for every met pair, and ``column`` holds it on and
    below the diagonal. ``up[c]`` is the column of (lo + 1, min(hi + 1, k))
    and ``down[c]`` that of (max(lo - 1, 1), hi - 1); both lead the met
    column to itself. The arrays are cached per k, so they are read-only.
    """
    lo, hi = np.triu_indices(k, 1)
    met = lo.size
    column = np.full((k, k), met)
    column[lo, hi] = np.arange(met)
    up = np.append(column[lo + 1, np.minimum(hi + 1, k - 1)], met)
    down = np.append(column[np.maximum(lo - 1, 0), hi - 1], met)
    for table in (column, up, down):
        table.flags.writeable = False
    return column, up, down


def _hit_table(moves: tuple[np.ndarray, np.ndarray], p: float, q: float, starts: np.ndarray,
               floor: np.ndarray, limit: int) -> np.ndarray:
    """table[n, j]: the chance that a chain started at state ``starts[j]`` is unmet after n moves.

    ``moves = (up, down)`` give the state each move leads to; the last
    state is the met one, and both lead it to itself. The survival
    S_n = p S_{n-1}(up) + q S_{n-1}(down), with p and q the chances that a
    move goes up or down, is a sum of non-negative terms, so the far tail
    keeps its relative precision. Rows are added until every column is
    below its entry of ``floor``, or through row ``limit``. Rounding can
    leave an entry a few ulps above the row before it; the running minimum
    keeps each column non-increasing.
    """
    up, down = moves
    survival = np.ones(up.size)
    survival[-1] = 0.0
    rows = [survival[starts]]
    while len(rows) <= limit and not (rows[-1] < floor).all():
        survival = p * survival[up] + q * survival[down]
        rows.append(survival[starts])
    return np.minimum.accumulate(rows, axis=0)


def coupled_run(
    params: EhrenfestParams,
    x0: list[int] | np.ndarray,
    y0: list[int] | np.ndarray,
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> int:
    """Sample the coupling time of two label walks under shared randomness.

    Both walks hold m labels in 1..k. Each step picks one ball uniformly
    and applies the same up/down/stay draw to that coordinate of both
    walks, truncating to the label range; the return is the first step at
    which the walks agree. It is sampled ball by ball, not step by step:
    the draws a ball gets are i.i.d. and independent of which ball is
    picked, so each ball's move count until its copies meet, and then the
    step at which the last ball meets, can be drawn directly
    (``_coupling_times``) with the law of the step rule. Raises
    StepLimitError when that step is later than ``step_limit``.
    """
    x, y = _labels(x0, params.k, params.m), _labels(y0, params.k, params.m)
    unmet = x != y
    column, up, down = _pair_moves(params.k)
    starts = column[np.minimum(x, y)[unmet] - 1, np.maximum(x, y)[unmet] - 1]
    return int(_coupling_times((up, down), params.a, params.b, params.m, starts, 1, rng,
                               step_limit, "coupling did not coalesce")[0])


def _coupling_times(moves: tuple[np.ndarray, np.ndarray], a: float, b: float, m: int,
                    starts: np.ndarray, trials: int, rng: np.random.Generator | int | None,
                    step_limit: int, event: str) -> np.ndarray:
    """Coupling times of ``trials`` runs whose unmet balls start at states ``starts`` of ``moves``.

    Each ball is a chain with the ``moves`` of ``_hit_table``; a ball not
    in ``starts`` starts met. The step rule picks one of the m balls
    uniformly and draws its move independently, so each ball sees an
    i.i.d. sequence of moves (up w.p. a/(a+b), else down) of its own, and
    meets after M_i of them, independently of the other balls and of the
    picks. M_i is drawn by inverse CDF from ``_hit_table``: the first n
    with S_n < v, for v = 1 - U in (0, 1]. Embed the steps in a rate-1
    Poisson process. Ball i then moves at rate r/m, r = min(a + b, 1), so
    it meets at T_i ~ Gamma(M_i, m/r), and the run ends at T* = max_i T_i.
    The step at T* is the count of picks in [0, T*]: the sum of the M_i,
    plus each unmet ball's moves after T_i and stays before T*, plus the
    picks of each ball that starts met. By the memoryless and thinning
    properties these are independent Poisson counts, in all
    Poisson(sum_i (T* - r T_i)/m) over the m balls, with T_i = 0 for a
    ball that starts met. That mean is at least (1 - r) T*, so past
    numpy's Poisson limit, or lost to overflow, it puts the step past any
    int64. A trial costs O(m) draws, however long the run; StepLimitError
    ("{event} within {step_limit} steps") is raised exactly when some
    trial's step exceeds ``step_limit``: the hit table stops there, and a
    trial takes at least as many steps as moves.
    """
    _check_count("step_limit", step_limit, 0)
    rng = ensure_rng(rng)
    v = 1.0 - rng.random((trials, starts.size))
    pairs, ball_pair = np.unique(starts, return_inverse=True)
    floor = np.full(pairs.size, np.inf)
    np.minimum.at(floor, ball_pair, v.min(axis=0, initial=1.0))
    table = _hit_table(moves, a / (a + b), b / (a + b), pairs, floor, step_limit)
    counts = np.empty(v.shape, dtype=np.int64)
    for j in range(pairs.size):
        balls = ball_pair == j
        counts[:, balls] = np.searchsorted(-table[:, j], -v[:, balls], side="right")
    rate = min(a + b, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        meet = rng.gamma(counts, m / rate)
        mean = meet.max(axis=1, initial=0.0) - rate * meet.sum(axis=1) / m
    late = StepLimitError(f"{event} within {step_limit} steps")
    if not np.abs(mean).max(initial=0.0) <= _POISSON_MEAN_MAX:  # NaN too
        raise late
    # clipped at 0: when r = 1 and every T_i rounds to T*, rounding can leave it below 0
    taus = counts.sum(axis=1) + rng.poisson(np.maximum(mean, 0.0))
    if taus.max(initial=0) > step_limit:
        raise late
    return taus


def estimate_mixing(
    params: EhrenfestParams,
    epsilon: float,
    trials: int,
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> MixingEstimate:
    """Coupling-tail mixing estimate from the two extreme starting states.

    Samples ``trials`` independent coupling times with the law of
    ``coupled_run``, started at the all-urn-1 versus all-urn-k label
    vectors, in one batch of trials x m per-ball draws
    (``_coupling_times``), and reports their empirical
    (1 - epsilon) quantile. The coupling inequality makes this an
    upper-bound style estimator for the time at which the distance to
    stationarity falls below epsilon; it is not the mixing time itself.
    """
    _check_epsilon(epsilon)
    _check_count("trials", trials, 1)
    column, up, down = _pair_moves(params.k)
    taus = _coupling_times((up, down), params.a, params.b, params.m,
                           np.full(params.m, column[0, params.k - 1]), trials, rng,
                           step_limit, "coupling did not coalesce")
    t_hat = int(np.quantile(taus, 1.0 - epsilon, method="higher"))
    return MixingEstimate(t_hat=t_hat, method="coupling-tail", epsilon=epsilon, trials=trials)


def mixing_bound(params: EhrenfestParams) -> float:
    """Explicit coupling bound 2 * Phi * log2(4m) on the mixing time.

    Phi is min(k/|a-b|, k^2/(a+b)) * m for a != b and k^2/(a+b) * m for
    a = b: a ball moves w.p. a + b when picked, so a balanced walk needs
    k^2/(a+b) picks where ``expected_absorption_closed`` counts k^2 moves.
    The log is base 2: the tail argument halves the miss probability once
    per 2*Phi steps, so log2(4m) rounds drive it below 1/4.
    """
    k, a, b, m = params.k, params.a, params.b, params.m
    phi = k * k / (a + b) * m
    if a != b:
        phi = min(k / abs(a - b) * m, phi)
    return 2.0 * phi * math.log2(4 * m)


def absorption_times(
    k: int,
    a: float,
    b: float,
    n_runs: int,
    rng: np.random.Generator | int | None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> np.ndarray:
    """Absorption times of n_runs independent walks, as an int64 array.

    Each walk starts at 0 on -k..k, steps +1 w.p. a and -1 w.p. b, and
    stops on first hitting +-k. It is a one-ball chain for
    ``_coupling_times``, with positions 1-k..k-1 as states 0..2k-2 and
    both ends as the met state 2k-1, so a call costs the same whatever
    a + b. StepLimitError means some walk is absorbed after ``step_limit``.
    """
    _check_count("k", k, 1)  # a walk on the integers hits +-k only if k is an integer
    _check_rates(a, b)
    _check_count("n_runs", n_runs, 0)
    met = 2 * k - 1
    moves = np.array([*range(1, met + 1), met]), np.array([met, *range(met - 1), met])
    return _coupling_times(moves, a, b, 1, np.array([k - 1]), n_runs, rng, step_limit,
                           "no absorption")


def expected_absorption_closed(k: int, a: float, b: float) -> float:
    """Expected absorption time of the +-k walk, from the martingale argument.

    For a != b this is the optional-stopping value
    k/(a-b) * (2(r-1)/(r-1/r) - 1) with r = (a/b)^k, written as
    k/(a-b) * tanh(ln(r)/2) so that it neither cancels near a = b nor
    overflows at large k. A balanced walk needs k^2 moves on average and
    moves w.p. a + b per step, hence k^2 / (a + b). Both are exact for any
    a + b <= 1.
    """
    _check_count("k", k, 1)
    _check_rates(a, b)
    if a == b:
        return k * k / (a + b)
    return k / (a - b) * math.tanh(0.5 * k * math.log1p((a - b) / b))


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total variation distance between two PMFs on the same state list."""
    return 0.5 * float(np.abs(np.asarray(mu) - np.asarray(nu)).sum())


def _tv_scan(params: EhrenfestParams, inits: list[tuple[int, ...]], cap: int):
    """Exact TV distance to stationarity, maximized over point masses at ``inits``.

    Yields the distance at t = 0, 1, 2, ...; one kernel build serves every t.
    """
    states, table, kernel = build_kernel(params, cap)
    pi = np.exp(stationary_closed(params).log_pmf(states))
    mus = np.zeros((len(inits), len(states)))
    mus[np.arange(len(inits)), _rank(np.asarray(inits), table, params.m)] = 1.0
    back = kernel.T  # mus @ kernel is this product, but rebuilds the transpose on every call
    while True:
        yield 0.5 * float(np.abs(mus - pi).sum(axis=1).max())
        mus = (back @ mus.T).T


def tv_distance_exact(
    params: EhrenfestParams,
    t: int,
    x0: tuple[int, ...],
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """TV distance to stationarity after t exact steps from a point mass at x0."""
    _check_count("t", t, 0)
    x0 = _check_state(x0, params.k, params.m)
    return next(itertools.islice(_tv_scan(params, [x0], cap), t, None))


def tmix_exact(
    params: EhrenfestParams,
    epsilon: float = 0.25,
    cap: int = DEFAULT_STATE_CAP,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> MixingEstimate:
    """First t at which the exact distance to stationarity is <= epsilon.

    The distance is maximized over the two corner point masses (all balls
    in urn 1 or urn k), the extreme states under the coupling order; the
    tests check on small instances that no other start is slower. The scan
    gives up with StepLimitError after min(4 * ceil(mixing_bound) + 1,
    step_limit) steps; rounding holds the distance near 1e-15, so a smaller
    epsilon raises it.
    """
    _check_epsilon(epsilon)
    _check_count("step_limit", step_limit, 0)
    k, m = params.k, params.m
    corners = [(m,) + (0,) * (k - 1), (0,) * (k - 1) + (m,)]
    t_max = min(4 * math.ceil(min(mixing_bound(params), step_limit)) + 1, step_limit)
    for t, d in enumerate(itertools.islice(_tv_scan(params, corners, cap), t_max + 1)):
        if d <= epsilon:
            return MixingEstimate(t_hat=t, method="exact-tv", epsilon=epsilon, trials=0)
    raise StepLimitError(f"distance stayed above {epsilon} through t={t_max}")
