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

``interact`` applies one step at a time through ``_apply``, the per-step
rule, and ``sample_one_step_counts`` applies it once per class of draws.
``run`` draws its pairs in the same 2**16 blocks, yields its records as
it goes, and visits only the GTFT steps of each block in one loop of its
own, which the tests hold equal to stepping ``_apply``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ehrenfest import EhrenfestParams, MultinomialDist, stationary_closed
from .rng import ensure_rng

PAIRING_MODES = ("idealized", "distinct-pair")


def generosity_grid(k: int, g_hat: float) -> tuple[float, ...]:
    """The k equidistant generosity values 0 = g_1 < ... < g_k = g_hat."""
    if k < 2:
        raise ValueError(f"need k >= 2 grid points, got {k}")
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
        if self.n < 2:
            raise ValueError(f"need n >= 2 nodes, got {self.n}")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta >= 1:
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


class InteractionRecord(NamedTuple):
    initiator: int
    partner: int
    initiator_kind: str
    partner_kind: str
    index_before: int | None
    index_after: int | None


class PopulationState:
    """Mutable population snapshot: node layout is fixed, GTFT indices evolve.

    Nodes 0..n_allc-1 are AllC, the next n_alld are AllD, and the last m
    are GTFT. ``idx`` holds the 1-based grid index of each GTFT node and
    ``z`` the per-index counts; both are kept consistent by interact().
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

    def node_kind(self, node: int) -> str:
        if node < self.n_allc:
            return "allc"
        if node < self.gtft_start:
            return "alld"
        return "gtft"

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
        if len(initial_counts) != cfg.k or any(c < 0 for c in initial_counts):
            raise ValueError(f"initial counts must be {cfg.k} nonnegative integers")
        if sum(initial_counts) != cfg.m:
            raise ValueError(f"initial counts must sum to m={cfg.m}")
        idx: list[int] = []
        for j, count in enumerate(initial_counts, start=1):
            idx.extend([j] * count)
    else:
        rng = ensure_rng(rng)
        idx = (rng.integers(1, cfg.k + 1, size=cfg.m)).tolist()
    return PopulationState(cfg, idx)


def _apply(state: PopulationState, initiator: int, partner: int):
    """Advance the clock one interaction; return the initiator's (index before, after).

    Both are None when the initiator is not GTFT. The partner matters only
    as defector or not. Shared by interact() and sample_one_step_counts(),
    and the reference that run()'s GTFT-only loop is tested against.
    """
    state.t += 1
    slot = initiator - state.gtft_start
    if slot < 0:
        return None, None
    j = state.idx[slot]
    if state.n_allc <= partner < state.gtft_start:
        j_new = j - 1 if j > 1 else j
    else:
        j_new = j + 1 if j < state.k else j
    if j_new != j:
        state.idx[slot] = j_new
        state.z[j - 1] -= 1
        state.z[j_new - 1] += 1
    return j, j_new


def _rollback(state: PopulationState, initiator: int, j: int | None, j_new: int | None) -> None:
    """Undo one _apply() call, given its initiator and returned index change."""
    state.t -= 1
    if j is not None and j != j_new:
        state.idx[initiator - state.gtft_start] = j
        state.z[j_new - 1] -= 1
        state.z[j - 1] += 1


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


def interact(
    state: PopulationState, cfg: PopulationConfig, rng: np.random.Generator | int | None
) -> InteractionRecord:
    """Sample one interaction, mutate the state, and describe what happened.

    The initiator is uniform over all nodes. Idealized pairing draws the
    partner uniformly with replacement over all n nodes; distinct-pair
    draws uniformly over the other n - 1. A non-GTFT initiator leaves the
    population unchanged but still advances the clock.
    """
    rng = ensure_rng(rng)
    initiators, partners = next(_pair_blocks(state.n, cfg.pairing == "distinct-pair", 1, rng))
    initiator, partner = initiators.item(), partners.item()
    j, j_new = _apply(state, initiator, partner)
    return InteractionRecord(
        initiator, partner, state.node_kind(initiator), state.node_kind(partner), j, j_new
    )


def undo_interaction(state: PopulationState, record: InteractionRecord) -> None:
    """Roll back one interact() call."""
    _rollback(state, record.initiator, record.index_before, record.index_after)


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
    visits only its GTFT initiators, in step order and with _apply()'s
    clamp rule, so the trajectory equals stepping _apply() over the same
    draws and is deterministic given the seed.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
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
    draws are tallied by that class, and _apply() steps one initiator of
    each class and is rolled back. Returns how often each successor count
    vector appeared; the self loop shows up under z0 itself.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
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
        initiator = int(np.argmax(label == j))  # the first node of that grid index
        # node n - 1 is GTFT (m >= 1), so it stands for every non-defector partner
        before, after = _apply(state, initiator, state.n_allc if down else n - 1)
        key = state.counts()
        counts[key] = counts.get(key, 0) + int(tally[cls])
        _rollback(state, initiator, before, after)
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
