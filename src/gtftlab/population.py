"""Agent-level simulation of generosity tuning in a mixed population.

A population holds fixed fractions of always-cooperators and
always-defectors; the remaining m nodes play GTFT with a generosity
drawn from a k-point grid on [0, g_hat]. Each step samples an ordered
pair of nodes uniformly. Only a GTFT initiator changes state: it bumps
its grid index up after meeting a cooperator or another GTFT node, and
down after meeting a defector, truncating at the grid ends.

Under either pairing (partner drawn with replacement from the whole
population, or from the other n - 1 nodes) the count vector of grid
indices is exactly the weighted multi-urn walk in
:mod:`gtftlab.ehrenfest`; ``to_ehrenfest`` produces the matching
parameters.

``run`` draws its pairs in 2**16 blocks, yields its records as it goes,
and visits only the GTFT steps of each block in one loop.
``sample_one_step_counts`` draws in the same blocks, tallies the draws by
class and reads each class's successor off the start. The per-step rule
that both are held equal to, one interaction at a time, is a test oracle
in ``tests/test_population.py``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .ehrenfest import (EhrenfestParams, MultinomialDist, _check_count, _check_state,
                        stationary_closed)
from .rng import ensure_rng

PAIRING_MODES = ("idealized", "distinct-pair")


def generosity_grid(k: int, g_hat: float) -> tuple[float, ...]:
    """The k equidistant generosity values 0 = g_1 < ... < g_k = g_hat."""
    _check_count("k", k, 2)
    if not 0.0 <= g_hat <= 1.0:
        raise ValueError(f"g_hat must be in [0, 1], got {g_hat}")
    return tuple(((j - 1) / (k - 1)) * g_hat for j in range(1, k + 1))


@dataclass(frozen=True)
class PopulationConfig:
    """Population of n nodes: fractions alpha AllC, beta AllD, rest GTFT on a k-grid."""

    n: int
    alpha: float
    beta: float
    k: int
    g_hat: float
    pairing: str = "idealized"

    def __post_init__(self) -> None:
        _check_count("n", self.n, 2)
        # written so that a NaN fraction fails it
        if not (self.alpha >= 0 and self.beta >= 0 and self.alpha + self.beta < 1):
            raise ValueError(
                f"need alpha, beta >= 0 with alpha + beta < 1, got {self.alpha}, {self.beta}"
            )
        if self.pairing not in PAIRING_MODES:
            raise ValueError(f"pairing must be one of {PAIRING_MODES}, got {self.pairing!r}")
        for name, frac in (("alpha", self.alpha), ("beta", self.beta)):
            count = frac * self.n
            if abs(count - round(count)) > 1e-9:
                raise ValueError(f"{name} * n = {count} is not an integer; refusing to round")
        if self.m < 1:
            raise ValueError("population must contain at least one GTFT node")
        generosity_grid(self.k, self.g_hat)

    @property
    def n_allc(self) -> int:
        return round(self.alpha * self.n)

    @property
    def n_alld(self) -> int:
        return round(self.beta * self.n)

    @property
    def m(self) -> int:
        return self.n - round(self.alpha * self.n) - round(self.beta * self.n)

    @property
    def grid(self) -> tuple[float, ...]:
        return generosity_grid(self.k, self.g_hat)


class PopulationState:
    """Mutable population snapshot: node layout is fixed, GTFT indices evolve.

    Nodes 0..n_allc-1 are AllC, the next n_alld are AllD, and the last m
    are GTFT. ``idx`` holds the 1-based grid index of each GTFT node and
    ``z`` the per-index counts; ``run`` keeps both consistent as it steps,
    and so does the per-step oracle in the tests.
    """

    __slots__ = ("n", "n_allc", "n_alld", "gtft_start", "m", "k", "idx", "z", "t")

    def __init__(self, cfg: PopulationConfig, idx: list[int]):
        self.n = cfg.n
        self.n_allc = cfg.n_allc
        self.n_alld = cfg.n_alld
        self.gtft_start = cfg.n_allc + cfg.n_alld
        self.m = cfg.m
        self.k = cfg.k
        if len(idx) != self.m or any(not 1 <= j <= self.k for j in idx):
            raise ValueError("idx must hold m grid indices in 1..k")
        self.idx = list(idx)
        self.z = [0] * self.k
        for j in self.idx:
            self.z[j - 1] += 1
        self.t = 0

    def counts(self) -> tuple[int, ...]:
        return tuple(self.z)

    def avg_generosity(self, grid: tuple[float, ...]) -> float:
        return sum(map(operator.mul, grid, self.z)) / self.m


def init_population(
    cfg: PopulationConfig,
    initial_counts: tuple[int, ...] | None = None,
    rng: np.random.Generator | int | None = None,
) -> PopulationState:
    """Build a population with the requested (or uniformly random) GTFT indices."""
    if initial_counts is not None:
        _check_state(initial_counts, cfg.k, cfg.m)
        idx: list[int] = []
        for j, count in enumerate(map(int, initial_counts), start=1):
            idx.extend([j] * count)
    else:
        rng = ensure_rng(rng)
        idx = (rng.integers(1, cfg.k + 1, size=cfg.m)).tolist()
    return PopulationState(cfg, idx)


def _pair_blocks(n: int, distinct: bool, count: int, rng: np.random.Generator):
    """``count`` (initiators, partners) node draws, as array pairs of at most 2**16.

    The partner is uniform over all n nodes, or with ``distinct`` over the
    other n - 1: draws from 0..n-2 at or above the initiator shift up by one.
    """
    stride = 1 << 16
    for done in range(0, count, stride):
        size = min(stride, count - done)
        initiators = rng.integers(0, n, size=size)
        partners = rng.integers(0, n - 1 if distinct else n, size=size)
        if distinct:
            partners += partners >= initiators
        yield initiators, partners


def run(
    cfg: PopulationConfig,
    steps: int,
    record_every: int,
    rng: np.random.Generator | int | None,
    initial_counts: tuple[int, ...] | None = None,
) -> Iterator[tuple[int, tuple[int, ...], float]]:
    """Simulate ``steps`` interactions; yield (t, counts, average generosity).

    Records are taken at t = 0 and every ``record_every`` interactions
    after that (every interaction counts, including null ones). The
    arguments are checked and the starting population is drawn when run()
    is called; the records then stream as the pairs are drawn, in blocks
    of 2**16, so memory does not grow with the number of records. A block
    visits only its GTFT initiators, in step order, so the trajectory is
    deterministic given the seed and equals stepping the per-step oracle
    of the tests over the same draws.
    """
    _check_count("steps", steps, 0)
    _check_count("record_every", record_every, 1)
    rng = ensure_rng(rng)
    state = init_population(cfg, initial_counts, rng)
    return _trajectory(state, cfg, steps, record_every, rng)


def _trajectory(state: PopulationState, cfg: PopulationConfig, steps: int, record_every: int,
                rng: np.random.Generator) -> Iterator[tuple[int, tuple[int, ...], float]]:
    """run()'s records, from the population it has drawn."""
    grid = cfg.grid
    idx, z, k, start = state.idx, state.z, state.k, state.gtft_start
    yield state.t, state.counts(), state.avg_generosity(grid)
    for initiators, partners in _pair_blocks(state.n, cfg.pairing == "distinct-pair", steps, rng):
        begin = state.t
        end = begin + len(initiators)
        # the block's GTFT steps: offsets, then slots and whether the partner is a defector
        offsets = np.flatnonzero(initiators >= start)
        met = partners[offsets]
        moves = zip(
            (initiators[offsets] - start).tolist(),
            ((met >= state.n_allc) & (met < start)).tolist(),
        )
        # segments end at each record time inside the block, the last at the block's end
        marks = list(range(begin - begin % record_every + record_every, end, record_every))
        marks.append(end)
        done = 0
        for mark, stop in zip(marks, np.searchsorted(offsets, np.array(marks) - begin).tolist()):
            for slot, down in itertools.islice(moves, stop - done):
                j = idx[slot]
                if down:
                    if j > 1:
                        idx[slot] = j - 1
                        z[j - 1] -= 1
                        z[j - 2] += 1
                elif j < k:
                    idx[slot] = j + 1
                    z[j - 1] -= 1
                    z[j] += 1
            done = stop
            state.t = mark
            if mark % record_every == 0:
                yield state.t, state.counts(), state.avg_generosity(grid)


def sample_one_step_counts(
    cfg: PopulationConfig,
    z0: tuple[int, ...],
    n_samples: int,
    rng: np.random.Generator | int | None,
) -> dict[tuple[int, ...], int]:
    """Resample single interactions from the fixed count vector z0.

    From z0 a draw's successor depends only on its initiator's grid index
    (0 for AllC and AllD) and on whether its partner is a defector, so the
    draws are tallied by that class. Class (j, down) moves one ball from
    grid index j to j - 1 after a defector and to j + 1 otherwise, unless
    that leaves 1..k; class j = 0 leaves z0 as it is. The tests hold the result equal to stepping
    and rolling back the per-step oracle over the same draws. Returns how
    often each successor count vector appeared; the self loop shows up
    under z0 itself.
    """
    _check_count("n_samples", n_samples, 0)
    rng = ensure_rng(rng)
    state = init_population(cfg, z0)
    n, k = state.n, state.k
    label = np.concatenate((np.zeros(state.gtft_start, dtype=np.int64), state.idx))
    tally = np.zeros(2 * (k + 1), dtype=np.int64)
    for initiators, partners in _pair_blocks(n, cfg.pairing == "distinct-pair", n_samples, rng):
        defector = (partners >= state.n_allc) & (partners < state.gtft_start)
        tally += np.bincount(2 * label[initiators] + defector, minlength=2 * (k + 1))
    counts: dict[tuple[int, ...], int] = {}
    for cls in np.flatnonzero(tally).tolist():
        j, down = divmod(cls, 2)
        z = list(state.z)
        j_new = j - 1 if down else j + 1
        if j and 1 <= j_new <= k:
            z[j - 1] -= 1
            z[j_new - 1] += 1
        key = tuple(z)
        counts[key] = counts.get(key, 0) + int(tally[cls])
    return counts


def to_ehrenfest(cfg: PopulationConfig) -> EhrenfestParams:
    """Parameters of the urn walk that the count vector follows, under either pairing.

    A GTFT initiator (chance m/n) meets a defector with chance n_D/N,
    where N is the partner pool: n for idealized pairing, n - 1 for
    distinct-pair. Up weight (m/n)(N - n_D)/N, down weight (m/n) n_D/N,
    with the m GTFT nodes as balls. Requires 0 < beta, else the down
    weight vanishes and the walk is degenerate (simulation still works).
    """
    if cfg.beta <= 0:
        raise ValueError("beta = 0 gives a degenerate chain with no down moves")
    pool = cfg.n - 1 if cfg.pairing == "distinct-pair" else cfg.n
    share = cfg.m / cfg.n
    return EhrenfestParams(
        k=cfg.k, a=share * (pool - cfg.n_alld) / pool, b=share * cfg.n_alld / pool, m=cfg.m
    )


def stationary_of_population(cfg: PopulationConfig) -> MultinomialDist:
    """Closed-form stationary law of the count vector, through ``to_ehrenfest``."""
    return stationary_closed(to_ehrenfest(cfg))
