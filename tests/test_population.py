"""Tests for the agent-level dynamics and the urn-walk reduction."""

import dataclasses
import hashlib
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gtftlab.ehrenfest import (DEFAULT_STATE_CAP, CapExceededError, build_kernel,
                               stationary_closed, transition_row)
from gtftlab.population import (
    PAIRING_MODES,
    PopulationConfig,
    _clip_table,
    _mean_generosity,
    _pair_blocks,
    generosity_grid,
    run,
    sample_one_step_counts,
    stationary_of_population,
    to_ehrenfest,
)
from gtftlab.rng import stream

CFG = PopulationConfig(n=40, alpha=0.25, beta=0.25, k=3, g_hat=0.25)


# ------------------------------------------------------------------ grid, config


def test_generosity_grid_examples():
    assert generosity_grid(2, 0.25) == (0.0, 0.25)
    assert generosity_grid(6, 1.0) == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    assert generosity_grid(np.int64(2), 0.25) == (0.0, 0.25)
    # k = 3.5 and 3.0 ended on a TypeError from range()
    for k in (3.5, 3.0, 1):
        with pytest.raises(ValueError, match="need an integer k >= 2"):
            generosity_grid(k, 0.25)


@pytest.mark.parametrize("build", [
    lambda k: generosity_grid(k, 0.25),
    lambda k: PopulationConfig(n=40, alpha=0.25, beta=0.25, k=k, g_hat=0.25),
], ids=["grid", "config"])
def test_a_grid_past_the_cap_is_refused_before_it_is_built(build):
    # a tuple of 3*10^8 generosity values once ended only on the allocator
    tracemalloc.start()
    try:
        for k in (DEFAULT_STATE_CAP + 1, 3 * 10**8):
            with pytest.raises(CapExceededError, match=f"^k={k} generosity values exceed cap "):
                build(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_generosity_grid_shape():
    for k in (2, 5, 9):
        for g_hat in (0.25, 1.0):
            grid = generosity_grid(k, g_hat)
            assert grid[0] == 0.0 and grid[-1] == g_hat
            assert all(lo < hi for lo, hi in zip(grid, grid[1:]))


def test_config_counts():
    cfg = PopulationConfig(n=10, alpha=0.2, beta=0.3, k=2, g_hat=0.25)
    assert (cfg.n_allc, cfg.n_alld, cfg.m) == (2, 3, 5)


def test_config_rejects_fractional_counts():
    with pytest.raises(ValueError):
        PopulationConfig(n=10, alpha=0.25, beta=0.25, k=2, g_hat=0.25)
    # n = 40.5 was accepted; k = 3.5 ended on a TypeError from range()
    for n, k in ((40.5, 3), (40.0, 3), (40, 3.5), (40, 3.0)):
        with pytest.raises(ValueError, match="need an integer"):
            PopulationConfig(n=n, alpha=0.25, beta=0.25, k=k, g_hat=0.25)
    assert PopulationConfig(n=np.int64(40), alpha=0.25, beta=0.25, k=np.int8(3), g_hat=0.25).m == 20


def test_config_rejects_bad_fractions():
    with pytest.raises(ValueError):
        PopulationConfig(n=10, alpha=0.5, beta=0.5, k=2, g_hat=0.25)
    with pytest.raises(ValueError):
        PopulationConfig(n=10, alpha=0.2, beta=0.3, k=2, g_hat=0.25, pairing="nearest")
    # a NaN fraction once passed this check and failed converting NaN to an integer
    for alpha, beta in ((math.nan, 0.25), (0.25, math.nan)):
        with pytest.raises(ValueError, match="need alpha, beta >= 0"):
            PopulationConfig(n=40, alpha=alpha, beta=beta, k=3, g_hat=0.25)


# ------------------------------------------------------------------ start


def test_init_with_explicit_counts():
    assert list(run(CFG, 0, 1, stream(20, "explicit"), (20, 0, 0))) == [(0, (20, 0, 0), 0.0)]
    with pytest.raises(ValueError):
        run(CFG, 0, 1, stream(20, "explicit"), (19, 0, 0))


def test_init_uniform_random_marginal():
    draws = 100_000
    cfg = PopulationConfig(n=8, alpha=0.25, beta=0.25, k=4, g_hat=1.0)
    rng = stream(20, "init")
    counts = np.zeros(cfg.k)
    for _ in range(draws // cfg.m):
        [(_, z, _)] = run(cfg, 0, 1, rng)
        counts += z
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-4


# ------------------------------------------------------------------ per-step oracle
#
# The agent rule one interaction at a time. run() and sample_one_step_counts()
# are held equal to it over the same draws.


class OracleState:
    """Mutable population snapshot: node layout is fixed, GTFT indices evolve.

    Nodes 0..n_allc-1 are AllC, the next n_alld are AllD, and the last m
    are GTFT. ``idx`` holds the 1-based grid index of each GTFT node and
    ``z`` the per-index counts; the oracle keeps both consistent as it steps.
    """

    def __init__(self, cfg: PopulationConfig, idx: np.ndarray):
        self.n, self.k, self.m = cfg.n, cfg.k, cfg.m
        self.n_allc = cfg.n_allc
        self.gtft_start = cfg.n_allc + cfg.n_alld
        self.idx = idx.tolist()
        self.z = [self.idx.count(j) for j in range(1, self.k + 1)]
        self.t = 0

    def counts(self) -> tuple[int, ...]:
        return tuple(self.z)

    def avg_generosity(self, grid: tuple[float, ...]) -> float:
        return _mean_generosity(grid, np.array(self.z), self.m).item()


def reference_population(cfg, initial_counts=None, rng=None) -> OracleState:
    """The oracle's start: the given counts laid out in grid order, or m uniform 1-based draws."""
    if initial_counts is not None:
        idx = np.repeat(np.arange(1, cfg.k + 1), initial_counts)
    else:
        idx = rng.integers(1, cfg.k + 1, size=cfg.m)
    return OracleState(cfg, idx)


class InteractionRecord(NamedTuple):
    initiator: int
    partner: int
    initiator_kind: str
    partner_kind: str
    index_before: int | None
    index_after: int | None


def node_kind(state: OracleState, node: int) -> str:
    if node < state.n_allc:
        return "allc"
    if node < state.gtft_start:
        return "alld"
    return "gtft"


def _apply(state: OracleState, initiator: int, partner: int):
    """Advance the clock one interaction; return the initiator's (index before, after).

    Both are None when the initiator is not GTFT. The partner matters only
    as defector or not.
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


def _rollback(state: OracleState, initiator: int, j: int | None, j_new: int | None) -> None:
    """Undo one _apply() call, given its initiator and returned index change."""
    state.t -= 1
    if j is not None and j != j_new:
        state.idx[initiator - state.gtft_start] = j
        state.z[j_new - 1] -= 1
        state.z[j - 1] += 1


def interact(state: OracleState, cfg: PopulationConfig,
             rng: np.random.Generator) -> InteractionRecord:
    """Sample one interaction, mutate the state, and describe what happened.

    The initiator is uniform over all nodes. Idealized pairing draws the
    partner uniformly with replacement over all n nodes; distinct-pair
    draws uniformly over the other n - 1. A non-GTFT initiator leaves the
    population unchanged but still advances the clock.
    """
    initiators, partners = next(_pair_blocks(state.n, cfg.pairing == "distinct-pair", 1, rng))
    initiator, partner = initiators.item(), partners.item()
    j, j_new = _apply(state, initiator, partner)
    return InteractionRecord(
        initiator, partner, node_kind(state, initiator), node_kind(state, partner), j, j_new
    )


def undo_interaction(state: OracleState, record: InteractionRecord) -> None:
    """Roll back one interact() call."""
    _rollback(state, record.initiator, record.index_before, record.index_after)


# ------------------------------------------------------------------ interact


def test_interact_truncates_at_top():
    state = reference_population(CFG, (0, 0, 20))
    rng = stream(21, "trunc")
    hit_top = 0
    for _ in range(500):
        rec = interact(state, CFG, rng)
        if rec.initiator_kind != "gtft":
            continue
        if rec.partner_kind == "alld":
            assert rec.index_after == max(rec.index_before - 1, 1)
        else:
            assert rec.index_after == min(rec.index_before + 1, CFG.k)
            if rec.index_before == CFG.k:
                hit_top += 1
    assert hit_top > 0  # the truncation case actually occurred


def test_interact_increments_on_gtft_partner_regardless_of_its_value():
    cfg = PopulationConfig(n=8, alpha=0.0, beta=0.25, k=4, g_hat=1.0)
    state = reference_population(cfg, (6, 0, 0, 0))
    rng = stream(22, "inc")
    seen = False
    for _ in range(200):
        rec = interact(state, cfg, rng)
        if rec.initiator_kind == "gtft" and rec.partner_kind == "gtft":
            assert rec.index_after == min(rec.index_before + 1, cfg.k)
            seen = True
    assert seen


def test_interact_only_initiator_updates():
    state = reference_population(CFG, (7, 6, 7))
    rng = stream(23, "one-sided")
    before = list(state.idx)
    rec = interact(state, CFG, rng)
    changed = [i for i, (x, y) in enumerate(zip(before, state.idx)) if x != y]
    if rec.initiator_kind != "gtft" or rec.index_before == rec.index_after:
        assert changed == []
    else:
        slot = rec.initiator - (state.n_allc + state.n_alld)
        assert changed == [slot]


def test_interact_preserves_type_counts_and_simplex():
    state = reference_population(CFG, (7, 6, 7))
    rng = stream(24, "conserve")
    for _ in range(2000):
        interact(state, CFG, rng)
        assert sum(state.z) == CFG.m
        assert all(c >= 0 for c in state.z)
    assert state.t == 2000


def test_increment_frequency_is_one_minus_beta():
    # interior start so neither truncation interferes
    n = 1_000_000
    counts = sample_one_step_counts(CFG, (0, 20, 0), n, stream(25, "incfreq"))
    ups = counts.get((0, 19, 1), 0)
    downs = counts.get((1, 19, 0), 0)
    moves = ups + downs
    p = 1 - CFG.beta
    sigma = math.sqrt(p * (1 - p) / moves)
    assert abs(ups / moves - p) <= 4 * sigma


def test_null_interaction_rate():
    state = reference_population(CFG, (7, 6, 7))
    rng = stream(26, "null")
    n = 100_000
    nulls = sum(
        1 for _ in range(n) if interact(state, CFG, rng).initiator_kind != "gtft"
    )
    p = CFG.alpha + CFG.beta
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(nulls / n - p) <= 4 * sigma


def test_distinct_pair_never_self():
    cfg = PopulationConfig(n=8, alpha=0.25, beta=0.25, k=3, g_hat=0.5,
                           pairing="distinct-pair")
    state = reference_population(cfg, (4, 0, 0))
    rng = stream(27, "distinct")
    for _ in range(20_000):
        rec = interact(state, cfg, rng)
        assert rec.partner != rec.initiator


def test_idealized_pair_can_self():
    state = reference_population(CFG, (7, 6, 7))
    rng = stream(28, "self")
    records = [interact(state, CFG, rng) for _ in range(5000)]
    assert any(rec.partner == rec.initiator for rec in records)


PINNED_INTERACT = {
    # sha256 of repr() of 2000 records and the generator's next draw, recorded
    # when interact() read its pair through _pairs()
    "idealized": ("829327b0df670ee6139340f4bbdcbe84a0b19cf917f0db736ce625f4cf220786", 986134931),
    "distinct-pair": ("e8c01c3051520c958250536f4c56764685404646667da8bffd5f5f1088809af4", 886159632),
}


@pytest.mark.parametrize("pairing", PAIRING_MODES)
def test_interact_records_are_pinned(pairing):
    cfg = PopulationConfig(n=8, alpha=0.25, beta=0.25, k=3, g_hat=0.5, pairing=pairing)
    state = reference_population(cfg, (2, 1, 1))
    rng = stream(37, "pinned", pairing)
    records = [interact(state, cfg, rng) for _ in range(2000)]
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (digest, rng.integers(1 << 30)) == PINNED_INTERACT[pairing]


def test_undo_interaction_restores_state():
    state = reference_population(CFG, (7, 6, 7), rng=stream(29, "undo"))
    rng = stream(29, "undo-run")
    for _ in range(200):
        before = (list(state.idx), list(state.z), state.t)
        rec = interact(state, CFG, rng)
        undo_interaction(state, rec)
        assert (state.idx, state.z, state.t) == (before[0], before[1], before[2])


# ------------------------------------------------------------------ run


def test_run_records_cadence_and_simplex():
    rows = list(run(CFG, 1000, 100, stream(30, "cadence")))
    assert [t for t, _, _ in rows] == list(range(0, 1001, 100))
    for _, z, wg in rows:
        assert sum(z) == CFG.m and all(c >= 0 for c in z)
        assert 0.0 <= wg <= CFG.g_hat


def test_run_zero_steps():
    rows = list(run(CFG, 0, 40, stream(31, "zero"), initial_counts=(20, 0, 0)))
    assert rows == [(0, (20, 0, 0), 0.0)]


def test_run_deterministic_given_seed():
    first = list(run(CFG, 5000, 100, stream(32, "det")))
    second = list(run(CFG, 5000, 100, stream(32, "det")))
    assert first == second


def test_run_absorbs_without_defectors():
    cfg = PopulationConfig(n=10, alpha=0.2, beta=0.0, k=2, g_hat=0.25)
    rows = list(run(cfg, 2000, 2000, stream(33, "absorb"), initial_counts=(8, 0)))
    assert rows[-1][1] == (0, 8)
    assert rows[-1][2] == pytest.approx(0.25)


def _pairs(n, distinct, count, rng):
    """The draws of _pair_blocks() one (initiator, partner) pair at a time."""
    return itertools.chain.from_iterable(
        zip(initiators.tolist(), partners.tolist())
        for initiators, partners in _pair_blocks(n, distinct, count, rng)
    )


def reference_run(cfg, steps, record_every, rng, initial_counts=None):
    """run() written as the per-step rule: _apply() over _pairs(), same draws."""
    state, grid = reference_population(cfg, initial_counts, rng), cfg.grid
    rows = [(0, state.counts(), state.avg_generosity(grid))]
    for initiator, partner in _pairs(cfg.n, cfg.pairing == "distinct-pair", steps, rng):
        _apply(state, initiator, partner)
        if state.t % record_every == 0:
            rows.append((state.t, state.counts(), state.avg_generosity(grid)))
    return rows


BLOCK = 1 << 16


@pytest.mark.parametrize("pairing", PAIRING_MODES)
@pytest.mark.parametrize(
    "cfg_args, initial_counts",
    [
        ((8, 0.25, 0.25, 3, 0.5), (4, 0, 0)),  # the bottom clamp fires
        ((8, 0.25, 0.25, 3, 0.5), (0, 0, 4)),  # the top clamp fires
        ((10, 0.2, 0.0, 2, 0.25), (8, 0)),  # no defectors: absorbs at the top
    ],
)
def test_run_equals_the_apply_loop(pairing, cfg_args, initial_counts):
    cfg = PopulationConfig(*cfg_args, pairing=pairing)
    for steps in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
        key = (35, pairing, steps, *initial_counts)
        # every step's record; a cadence keeps the ones at multiples of it
        each = reference_run(cfg, steps, 1, stream(*key), initial_counts)
        for record_every in (1, 7, cfg.n, steps + 1):
            got = list(run(cfg, steps, record_every, stream(*key), initial_counts))
            assert got == [row for row in each if row[0] % record_every == 0]


EDGES = [
    # m = 1: one node takes every GTFT move and absorbs at the top
    ((2, 0.5, 0.0, 3, 0.5), (1, 0, 0), (1, 7, 2)),
    # m = 2
    ((4, 0.25, 0.25, 4, 0.5), None, (1, 7, 4)),
    # k = 300: the nodes leave the bottom clamp and drift up into the top one
    ((10, 0.1, 0.4, 300, 0.5), (5,) + (0,) * 299, (97,)),
    # m = 1 of n = 2**16: the first block and the 3-step last block have no GTFT initiator
    ((1 << 16, 0.5, 0.5 - 2**-16, 3, 0.5), None, (1, 7, 1 << 16)),
]


@pytest.mark.parametrize("pairing", PAIRING_MODES)
@pytest.mark.parametrize("cfg_args, initial_counts, cadences", EDGES)
def test_run_equals_the_apply_loop_at_the_edges(pairing, cfg_args, initial_counts, cadences):
    cfg = PopulationConfig(*cfg_args, pairing=pairing)
    steps = 2 * BLOCK + 3
    key = (41, pairing, "edges")
    for record_every in (*cadences, steps + 1):
        got_rng, ref_rng = stream(*key), stream(*key)
        got = list(run(cfg, steps, record_every, got_rng, initial_counts))
        assert got == reference_run(cfg, steps, record_every, ref_rng, initial_counts)
        # the same draws: run() leaves the generator where the per-step loop does
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    if cfg.n == 1 << 16:
        rng = stream(*key)
        reference_population(cfg, initial_counts, rng)
        gtft = [(initiators >= cfg.n - cfg.m).sum() for initiators, _ in
                _pair_blocks(cfg.n, cfg.pairing == "distinct-pair", steps, rng)]
        assert gtft[0] == 0 and gtft[1] > 0


def test_run_equals_the_apply_loop_on_the_large_benchmark_config():
    # the benchmark's n=1000, k=6 trajectory, from a draw of its stationary law
    cfg = PopulationConfig(n=1000, alpha=0.2, beta=0.1, k=6, g_hat=0.25)
    start = tuple(stream(42, "start").multinomial(cfg.m, stationary_of_population(cfg).p).tolist())
    got = list(run(cfg, 60_000, cfg.n, stream(42, "large"), start))
    assert got == reference_run(cfg, 60_000, cfg.n, stream(42, "large"), start)


@pytest.mark.parametrize("steps", [0, 3])
def test_run_equals_the_apply_loop_from_a_large_random_start(steps):
    # m = 5 * 10**5 GTFT nodes drawn at random: the same start, records and draws
    cfg = PopulationConfig(n=10**6, alpha=0.25, beta=0.25, k=3, g_hat=0.25)
    got_rng, ref_rng = stream(44, "large-start"), stream(44, "large-start")
    got = list(run(cfg, steps, 1, got_rng))
    assert got == reference_run(cfg, steps, 1, ref_rng)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("k", [2, 3, 9, 10, 300])
def test_clip_table_holds_every_prefix_of_8_moves(k):
    # (shift, lo, hi) at p * 256 + code against the first p moves stepped one by one
    shift, lo, hi = _clip_table(k)
    x = np.arange(k)
    for p in range(9):
        for code in range(256):
            y = x
            for i in range(p):
                y = np.clip(y + (-1 if code >> i & 1 else 1), 0, k - 1)
            c = p * 256 + code
            assert (np.clip(x + shift[c], lo[c], hi[c]) == y).all(), (p, code)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(2, 60), m=st.integers(1, 10**6),
       g_hat=st.floats(0.0, 1.0, exclude_min=True))
def test_mean_generosity_equals_the_sum_in_grid_order(data, k, m, g_hat):
    grid = generosity_grid(k, g_hat)
    rows = data.draw(st.lists(st.lists(st.integers(0, m), min_size=k, max_size=k), min_size=1,
                              max_size=5))
    got = _mean_generosity(grid, np.array(rows), m).tolist()
    assert got == [sum(map(operator.mul, grid, z)) / m for z in rows]


def test_run_streams_its_records_at_large_k():
    # at k=300 a block's 2**16 records hold 2 * 10**7 counts; they are built in
    # slices of about 2**14 counts. The per-move loop peaked at 8.6 MB here
    cfg = PopulationConfig(n=40, alpha=0.25, beta=0.25, k=300, g_hat=0.25)
    tracemalloc.start()
    try:
        rows = sum(1 for _ in run(cfg, 70_000, 1, stream(43, "stream")))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 70_001
    assert peak < 8e6


def test_records_with_equal_counts_share_one_tuple_and_one_float():
    # 25,000 steps are one block and one slice of records after t = 0
    rows = list(run(CFG, 25_000, CFG.n, stream(45, "shared")))
    first = {}
    for _, counts, avg in rows[1:]:
        kept = first.setdefault(counts, (counts, avg))
        assert kept[0] is counts and kept[1] is avg
    assert len(first) < len(rows) // 5


def test_a_kept_trajectory_holds_each_count_vector_once_per_slice():
    # the benchmark's n=40 trajectory over 10**6 steps: 25,001 records of about
    # 90 count vectors. With a tuple and a float per record it held 4.7-4.8 MB
    list(run(CFG, 1000, CFG.n, stream(47, "warm")))  # the grid and clip table are built
    tracemalloc.start()
    try:
        rows = list(run(CFG, 10**6, CFG.n, stream(47, "kept")))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 25_001
    assert held < 3.5e6


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("n, dtype", [(2, np.int32), (40, np.int32), (1000, np.int32),
                                      (1 << 31, np.int32), ((1 << 31) + 1, np.int64)])
def test_pair_blocks_draw_as_int64_draws_do(n, dtype, distinct):
    # below 2**32 numpy draws int32 and int64 by one rule: same values, same generator state
    got_rng, ref_rng = stream(46, n, distinct), stream(46, n, distinct)
    blocks = _pair_blocks(n, distinct, BLOCK + 5, got_rng)
    for (initiators, partners), size in zip(blocks, (BLOCK, 5), strict=True):
        assert initiators.dtype == dtype and partners.dtype == dtype
        want = ref_rng.integers(0, n, size=size)
        assert np.array_equal(initiators, want)
        want = ref_rng.integers(0, n - 1 if distinct else n, size=size)
        assert np.array_equal(partners, want + (distinct & (want >= initiators)))
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def populations(draw):
    n = draw(st.integers(2, 30))
    n_allc = draw(st.integers(0, n - 1))
    n_alld = draw(st.integers(0, n - 1 - n_allc))
    return PopulationConfig(
        n=n, alpha=n_allc / n, beta=n_alld / n, k=draw(st.integers(2, 40)), g_hat=0.5,
        pairing=draw(st.sampled_from(PAIRING_MODES)),
    )


@settings(max_examples=12, deadline=None)
@given(
    cfg=populations(), steps=st.integers(0, 3 * BLOCK),
    record_every=st.integers(1, 100) | st.integers(1, 3 * BLOCK), seed=st.integers(0, 2**32 - 1),
)
def test_run_equals_the_apply_loop_anywhere(cfg, steps, record_every, seed):
    got = list(run(cfg, steps, record_every, stream(seed, "prop")))
    assert got == reference_run(cfg, steps, record_every, stream(seed, "prop"))


def reference_one_step_counts(cfg, z0, n_samples, rng):
    """sample_one_step_counts() as the per-sample rule: _apply() then _rollback() over _pairs()."""
    state, counts = reference_population(cfg, z0), {}
    for initiator, partner in _pairs(cfg.n, cfg.pairing == "distinct-pair", n_samples, rng):
        j, j_new = _apply(state, initiator, partner)
        counts[state.counts()] = counts.get(state.counts(), 0) + 1
        _rollback(state, initiator, j, j_new)
    return counts


def assert_one_step_equals_the_apply_loop(cfg, z0, n_samples, seed):
    got_rng, ref_rng = stream(seed, "one-step"), stream(seed, "one-step")
    got = sample_one_step_counts(cfg, z0, n_samples, got_rng)
    assert got == reference_one_step_counts(cfg, z0, n_samples, ref_rng)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_samples", [0, 1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
@pytest.mark.parametrize("z0", [(7, 6, 7), (20, 0, 0), (0, 3, 17), (0, 0, 20)])
def test_one_step_equals_the_apply_loop(z0, n_samples):
    # criterion 3's population and start (7, 6, 7), both corners and an edge
    assert_one_step_equals_the_apply_loop(CFG, z0, n_samples, 38)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cfg=populations(), n_samples=st.integers(0, 3 * BLOCK),
       seed=st.integers(0, 2**32 - 1))
def test_one_step_equals_the_apply_loop_anywhere(data, cfg, n_samples, seed):
    labels = data.draw(st.lists(st.integers(0, cfg.k - 1), min_size=cfg.m, max_size=cfg.m))
    z0 = tuple(np.bincount(labels, minlength=cfg.k).tolist())
    assert_one_step_equals_the_apply_loop(cfg, z0, n_samples, seed)


def test_one_step_rejects_negative_samples():
    with pytest.raises(ValueError):
        sample_one_step_counts(CFG, (7, 6, 7), -5, stream(39, "negative"))


def test_run_validates_when_called():
    # ValueError at the call itself, not at the first next(): nothing is streamed
    rng = stream(36, "eager")
    for args in ((-1, 40, rng), (10, 0, rng), (10, 40, rng, (20, 0))):
        with pytest.raises(ValueError):
            run(CFG, *args)


def test_run_matches_interact_distributionally():
    # same dynamics through both entry points: compare mean final counts
    totals_run = np.zeros(3)
    totals_int = np.zeros(3)
    reps = 200
    for rep in range(reps):
        rows = list(run(CFG, 300, 300, stream(34, "a", rep), initial_counts=(20, 0, 0)))
        totals_run += rows[-1][1]
        state = reference_population(CFG, (20, 0, 0))
        rng = stream(34, "b", rep)
        for _ in range(300):
            interact(state, CFG, rng)
        totals_int += state.counts()
    # agree within 5 sigma of the per-coordinate spread
    diff = np.abs(totals_run - totals_int) / reps
    assert np.all(diff < 5 * np.sqrt(CFG.m) / math.sqrt(reps))


# ------------------------------------------------------------------ reduction


def test_to_ehrenfest_values():
    params = to_ehrenfest(CFG)
    assert (params.k, params.m) == (3, 20)
    assert params.a == pytest.approx(0.375)
    assert params.b == pytest.approx(0.125)
    assert params.lam == pytest.approx(3.0)


def test_to_ehrenfest_weights_sum():
    for alpha, beta, n in [(0.25, 0.25, 40), (0.1, 0.4, 40), (0.0, 0.2, 10)]:
        cfg = PopulationConfig(n=n, alpha=alpha, beta=beta, k=3, g_hat=0.5)
        params = to_ehrenfest(cfg)
        assert params.a + params.b == pytest.approx(1 - alpha - beta)


def test_to_ehrenfest_rejects_degenerate_beta():
    cfg = PopulationConfig(n=10, alpha=0.2, beta=0.0, k=2, g_hat=0.25)
    with pytest.raises(ValueError):
        to_ehrenfest(cfg)


@pytest.mark.parametrize("n", [2, 5])
def test_to_ehrenfest_names_a_lone_gtft_node_among_defectors(n):
    # the up weight is 0 under distinct-pair; this once raised "need a, b > 0 ... got a=0.0",
    # naming rates the caller never gave
    cfg = PopulationConfig(n=n, alpha=0.0, beta=(n - 1) / n, k=3, g_hat=0.5,
                           pairing="distinct-pair")
    message = f"one GTFT node meets only the {n - 1} defectors of n={n}"
    for call in (to_ehrenfest, stationary_of_population):
        with pytest.raises(ValueError, match=message):
            call(cfg)
    # idealized pairing lets the node meet itself, a cooperator
    params = to_ehrenfest(dataclasses.replace(cfg, pairing="idealized"))
    assert params.a == pytest.approx(1 / n**2) and params.b == pytest.approx((n - 1) / n**2)


def test_stationary_of_population_values():
    assert stationary_of_population(CFG).p == pytest.approx((1 / 13, 3 / 13, 9 / 13))
    uniform_cfg = PopulationConfig(n=40, alpha=0.25, beta=0.5, k=4, g_hat=1.0)
    assert stationary_of_population(uniform_cfg).p == pytest.approx((0.25,) * 4)


def test_stationary_matches_chain_closed_form():
    chain = stationary_closed(to_ehrenfest(CFG))
    pop = stationary_of_population(CFG)
    assert pop.m == chain.m
    np.testing.assert_allclose(pop.p, chain.p, atol=1e-14)


def test_one_step_frequencies_match_kernel_row():
    n = 400_000
    distinct = PopulationConfig(n=20, alpha=0.25, beta=0.25, k=3, g_hat=0.25,
                                pairing="distinct-pair")
    for cfg, tag, z0 in (
        (CFG, "interior", (7, 6, 7)),
        (CFG, "corner", (20, 0, 0)),
        (CFG, "edge", (0, 3, 17)),
        (distinct, "distinct", (4, 3, 3)),
    ):
        counts = sample_one_step_counts(cfg, z0, n, stream(35, "corr", tag))
        row = transition_row(z0, to_ehrenfest(cfg))
        assert set(counts) <= set(row)
        for y, p in row.items():
            freq = counts.get(y, 0) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * sigma, (tag, y, freq, p)


@st.composite
def lumpable_configs(draw):
    """(n, alpha, beta, k, g_hat, pairing) with k**m * n**2 <= 10**5: a labelled chain to lump."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    most = max(m for m in range(1, n) if k**m * n * n <= 10**5 or m == 1)
    m = draw(st.integers(1, min(most, n - 1)))
    n_alld, pairing = draw(st.integers(1, n - m)), draw(st.sampled_from(PAIRING_MODES))
    # a lone GTFT node among defectors only meets defectors under distinct-pair: up weight 0,
    # which to_ehrenfest refuses (test_to_ehrenfest_names_a_lone_gtft_node_among_defectors)
    assume(pairing == "idealized" or n_alld < n - 1)
    return PopulationConfig(n=n, alpha=(n - m - n_alld) / n, beta=n_alld / n, k=k,
                            g_hat=draw(st.floats(0, 1)), pairing=pairing)


@settings(max_examples=40, deadline=None)
@given(cfg=lumpable_configs())
@example(cfg=PopulationConfig(n=12, alpha=1 / 3, beta=0.25, k=3, g_hat=0.25,
                              pairing="distinct-pair"))  # 3**5 labellings of 5 GTFT nodes
@example(cfg=PopulationConfig(n=8, alpha=0.25, beta=0.25, k=4, g_hat=0.25))  # 4**4 labellings
def test_the_count_process_is_the_urn_walk_by_exact_lumping(cfg):
    # the labelled chain over the GTFT nodes' grid indices, one _apply per ordered pair of
    # nodes, lumps by count vector: every labelling of a count vector has the same row of
    # count-to-count chances, and that row is the urn walk's kernel row
    n, k, m = cfg.n, cfg.k, cfg.m
    pairs = [(i, j) for i in range(n) for j in range(n)
             if cfg.pairing == "idealized" or i != j]
    chance = Fraction(1, len(pairs))
    lumped: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for idx in itertools.product(range(1, k + 1), repeat=m):
        state = OracleState(cfg, np.array(idx))
        z, row = state.counts(), {}
        for initiator, partner in pairs:
            j, j_new = _apply(state, initiator, partner)
            y = state.counts()
            row[y] = row.get(y, 0) + chance
            _rollback(state, initiator, j, j_new)
        assert lumped.setdefault(z, row) == row, (z, idx)
    states, _, kernel = build_kernel(to_ehrenfest(cfg))
    assert len(lumped) == len(states)
    rank = {z: r for r, z in enumerate(map(tuple, states.tolist()))}
    exact = np.zeros(kernel.shape, dtype=object)
    for z, row in lumped.items():
        assert sum(row.values()) == 1
        for y, p in row.items():
            exact[rank[z], rank[y]] = p
    dense = kernel.toarray()
    assert ((exact != 0) == (dense != 0)).all()
    # a few roundings in to_ehrenfest's a and b and in the self loop's 1 - sum
    ulps = [abs(Fraction(x) - p) / Fraction(math.ulp(float(p)))
            for x, p in zip(dense.flat, exact.flat) if p]
    assert max(ulps) <= 8
