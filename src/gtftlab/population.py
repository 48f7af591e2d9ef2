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

``run`` draws its pairs in 2**16 blocks, as int32 up to n = 2**31, and
yields its records as it goes. It steps each block's GTFT moves in numpy,
grouped by node and packed 8 to a byte, through a per-k table of 8-move
clamp maps, and reads the records off the labels before and after each
move. Records of one slice that repeat a count vector share its tuple and
its average-generosity float, so a kept trajectory holds each visited
vector about once per slice.
``sample_one_step_counts`` draws in the same blocks, tallies the draws by
class and reads each class's successor off the start. The per-step rule
that both are held equal to, one interaction at a time, is a test oracle
in ``tests/test_population.py``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ehrenfest import (DEFAULT_STATE_CAP, CapExceededError, EhrenfestParams, MultinomialDist,
                        _check_count, _check_generosity, _check_mix, _check_share, _check_state,
                        stationary_closed)
from .rng import ensure_rng

PAIRING_MODES = ("idealized", "distinct-pair")


def generosity_grid(k: int, g_hat: float) -> tuple[float, ...]:
    """The k <= DEFAULT_STATE_CAP equidistant generosity values 0 = g_1 < ... < g_k = g_hat."""
    _check_count("k", k, 2)
    _check_generosity("g_hat", g_hat)
    if k > DEFAULT_STATE_CAP:  # refused before the k floats are built
        raise CapExceededError(f"k={k} generosity values exceed cap {DEFAULT_STATE_CAP}")
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
        _check_mix(self.alpha, self.beta)
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


def _mean_generosity(grid: tuple[float, ...], counts: np.ndarray, m: int) -> np.ndarray:
    """sum_j g_j z_j / m for each row z of ``counts``: the products summed column by column.

    The running sum adds the columns one at a time in grid order, as a sum
    from 0 does (every product is >= 0, so 0 + x is x), so each row's figure
    equals ``sum(map(operator.mul, grid, z)) / m`` bitwise.
    """
    return np.add.accumulate(counts * np.array(grid), axis=-1)[..., -1] / m


def _pair_blocks(n: int, distinct: bool, count: int, rng: np.random.Generator):
    """``count`` (initiators, partners) node draws, as array pairs of at most 2**16.

    The partner is uniform over all n nodes, or with ``distinct`` over the
    other n - 1: draws from 0..n-2 at or above the initiator shift up by one.
    The draws are int32 up to n = 2**31, int64 past it: below 2**32 numpy
    draws both dtypes by the same 32-bit rule, so the values and the
    generator state are those of int64 draws.
    """
    stride = 1 << 16
    dtype = np.int32 if n <= 1 << 31 else np.int64
    for done in range(0, count, stride):
        size = min(stride, count - done)
        initiators = rng.integers(0, n, size=size, dtype=dtype)
        partners = rng.integers(0, n - 1 if distinct else n, size=size, dtype=dtype)
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
    of 2**16, so memory does not grow with the number of records. Each
    block steps only its GTFT initiators, node by node in 8-move chunks
    (``_block_moves``); each node sees its moves in step order, so the
    trajectory is deterministic given the seed and equals stepping the
    per-step oracle of the tests over the same draws. Within each slice of
    about 2**14 counts, records with equal counts share one counts tuple
    and one average-generosity float: a trajectory visits few of the
    C(m + k - 1, k - 1) count vectors, so a kept list of records holds
    each about once per slice. The pairs are drawn as int32 up to
    n = 2**31, with the values and generator state of int64 draws.
    """
    _check_count("steps", steps, 0)
    _check_count("record_every", record_every, 1)
    rng = ensure_rng(rng)
    if initial_counts is None:
        labels = rng.integers(0, cfg.k, size=cfg.m, dtype=np.int32)
    else:
        labels = np.repeat(np.arange(cfg.k, dtype=np.int32),
                           _check_state(initial_counts, cfg.k, cfg.m))
    return _trajectory(cfg, labels, steps, record_every, rng)


def _trajectory(cfg: PopulationConfig, labels: np.ndarray, steps: int, record_every: int,
                rng: np.random.Generator) -> Iterator[tuple[int, tuple[int, ...], float]]:
    """run()'s records, from the GTFT nodes' grid labels 0..k-1 in node order.

    A block's GTFT moves are stepped by ``_block_moves``; z at each record
    time is z at the block's start plus a running sum, per segment between
    record times, of the labels after each move less the labels before it,
    so a clamped move cancels.
    """
    grid, k, m, n_allc, start = cfg.grid, cfg.k, cfg.m, cfg.n_allc, cfg.n_allc + cfg.n_alld
    z = np.bincount(labels, minlength=k)
    # a slice of records holds about 2**14 counts, so memory does not grow with k
    rows = max(1, (1 << 14) // k)
    yield 0, tuple(z.tolist()), _mean_generosity(grid, z, m).item()
    begin = 0
    for initiators, partners in _pair_blocks(cfg.n, cfg.pairing == "distinct-pair", steps, rng):
        end = begin + len(initiators)
        offsets = np.flatnonzero(initiators >= start)
        # segments end at each record time inside the block, the last at the block's end
        marks = np.append(np.arange(begin - begin % record_every + record_every, end,
                                    record_every), end)
        records = len(marks) - (end % record_every != 0)
        stops = np.searchsorted(offsets, marks - begin)
        slots = (initiators.take(offsets) - start).astype(np.min_scalar_type(m - 1))
        met = partners.take(offsets)
        del offsets
        down = (met >= n_allc) & (met < start)
        del met
        labels, after, before = _block_moves(labels, slots, down, k)
        del slots, down
        for first in range(0, len(marks), rows):
            last = min(first + rows, len(marks))
            done, size = stops[first - 1] if first else 0, (last - first) * k
            # each move's column in the slice's segment-by-label table
            cell = np.repeat(np.arange(0, size, k, dtype=np.int32),
                             np.diff(stops[first:last], prepend=done))
            moved = (np.bincount(cell + after[done:stops[last - 1]], minlength=size)
                     - np.bincount(cell + before[done:stops[last - 1]], minlength=size))
            del cell
            counts = z + np.cumsum(moved.reshape(last - first, k), axis=0)
            z = counts[-1]
            keep = max(0, min(last, records) - first)
            # records with equal counts share one tuple and one float, built once per distinct
            # row; _mean_generosity works row by row, so each float keeps its bits
            row = np.dtype((np.void, counts.itemsize * k))
            distinct, which = np.unique(counts[:keep].view(row).ravel(), return_inverse=True)
            distinct = distinct.view(counts.dtype).reshape(-1, k)
            shared = list(map(tuple, distinct.tolist()))
            means = _mean_generosity(grid, distinct, m).tolist()
            which = which.tolist()
            yield from zip(marks[first:first + keep].tolist(), map(shared.__getitem__, which),
                           map(means.__getitem__, which))
        begin = end


@lru_cache(maxsize=16)
def _clip_table(k: int) -> np.ndarray:
    """Every prefix map of an 8-move chunk, as clip(x + shift, lo, hi) on the labels 0..k-1.

    Column p * 256 + code of the (3, 9 * 256) result holds (shift, lo, hi)
    of a chunk's first p moves, where move i goes down when bit i of code
    is set; p = 0 is the identity. Composing clip(x + s, lo, hi) with one
    move d gives clip(x + s + d, clip(lo + d, 0, k - 1), clip(hi + d, 0, k - 1)).
    The table is cached per k, so it is read-only; its size does not grow with k.
    """
    down = (np.arange(256) >> np.arange(8)[:, None]) & 1
    table = np.empty((3, 9, 256), dtype=np.int32)
    table[:, 0] = np.array([0, 0, k - 1])[:, None]
    for p in range(8):
        d = 1 - 2 * down[p]
        table[0, p + 1] = table[0, p] + d
        table[1:, p + 1] = np.clip(table[1:, p] + d, 0, k - 1)
    table = table.reshape(3, -1)
    table.flags.writeable = False
    return table


def _block_moves(labels: np.ndarray, slots: np.ndarray, down: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step one block's GTFT moves, given in step order by node slot and direction.

    Returns the labels after the block, and each move's label after and
    before it, in step order. The moves are grouped by node, in step order
    within each node, and laid out 8 to a row, so each row is an 8-move
    chunk of one node and its directions pack into one byte code. One
    loop over the chunk index carries every node's label through its
    chunk's map from ``_clip_table``; each move's label is then read off
    its chunk's start label and its prefix map.
    """
    shift, lo, hi = _clip_table(k)
    n_moves = len(slots)
    order = np.argsort(slots, kind="stable")
    # only the nodes that move in the block enter the loop, so its arrays are O(moves)
    per_node = np.bincount(slots)
    moving = np.flatnonzero(per_node)
    per_node = per_node.take(moving)
    chunks = (per_node + 7) >> 3
    base = np.cumsum(chunks) - chunks
    # each move's place in the rows: 8 per chunk of its node, in step order
    place = np.empty(n_moves, dtype=np.int32)
    place[order] = np.arange(n_moves, dtype=np.int32) + np.repeat(
        (8 * base - np.cumsum(per_node) + per_node).astype(np.int32), per_node)
    del order
    bits = np.zeros(8 * chunks.sum(), dtype=bool)
    bits[place] = down
    codes = np.packbits(bits, bitorder="little")
    del bits
    node = np.repeat(np.arange(len(moving), dtype=np.int32), chunks)
    chunk = np.arange(len(node), dtype=np.int32) - np.repeat(base.astype(np.int32), chunks)
    # each node's chunk maps by chunk index; a node without a chunk c keeps its label there
    maps = np.zeros((chunks.max(initial=0), len(moving)), dtype=np.int32)
    maps[chunk, node] = np.minimum(per_node.take(node) - 8 * chunk, 8) * 256 + codes
    starts = np.empty((len(maps) + 1, len(moving)), dtype=np.int32)
    starts[0] = labels.take(moving)
    for now, then, s, low, high in zip(starts, starts[1:], shift.take(maps), lo.take(maps),
                                       hi.take(maps)):
        np.add(now, s, out=then)
        np.maximum(then, low, out=then)
        np.minimum(then, high, out=then)
    del maps
    column = codes[:, None] + np.arange(256, 9 * 256, 256, dtype=np.int32)
    before = np.empty(column.shape, dtype=np.int32)
    before[:, 0] = starts[chunk, node]
    after = before[:, :1] + shift.take(column)
    np.maximum(after, lo.take(column), out=after)
    np.minimum(after, hi.take(column), out=after)
    del column
    before[:, 1:] = after[:, :-1]
    labels = labels.copy()
    labels[moving] = starts[-1]
    return labels, after.take(place), before.take(place)


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
    z0 = _check_state(z0, cfg.k, cfg.m)
    rng = ensure_rng(rng)
    k, n_allc, start = cfg.k, cfg.n_allc, cfg.n_allc + cfg.n_alld
    # each node's grid index, 0 for AllC and AllD
    label = np.repeat(np.arange(k + 1), [start, *z0])
    tally = np.zeros(2 * (k + 1), dtype=np.int64)
    for initiators, partners in _pair_blocks(cfg.n, cfg.pairing == "distinct-pair", n_samples,
                                             rng):
        defector = (partners >= n_allc) & (partners < start)
        # take: indexing by the int32 draws, label[initiators], goes the slow way round
        tally += np.bincount(2 * label.take(initiators) + defector, minlength=2 * (k + 1))
    counts: dict[tuple[int, ...], int] = {}
    for cls in np.flatnonzero(tally).tolist():
        j, down = divmod(cls, 2)
        z = z0.tolist()
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
    weight vanishes, and under distinct-pair a GTFT node that is not alone
    among defectors, else the up weight vanishes: either walk is
    degenerate (simulation still works).
    """
    _check_share(cfg.beta)
    pool = cfg.n - 1 if cfg.pairing == "distinct-pair" else cfg.n
    if cfg.n_alld == pool:
        raise ValueError(f"under distinct-pair the one GTFT node meets only the {pool} "
                         f"defectors of n={cfg.n}: the up weight is 0, the count walk degenerate")
    share = cfg.m / cfg.n
    return EhrenfestParams(
        k=cfg.k, a=share * (pool - cfg.n_alld) / pool, b=share * cfg.n_alld / pool, m=cfg.m
    )


def stationary_of_population(cfg: PopulationConfig) -> MultinomialDist:
    """Closed-form stationary law of the count vector, through ``to_ehrenfest``."""
    return stationary_closed(to_ehrenfest(cfg))
