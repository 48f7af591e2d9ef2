"""Tests for the urn walk: kernel, stationary law, absorption, coupling, mixing."""

import hashlib
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from gtftlab import ehrenfest
from gtftlab.ehrenfest import (
    DEFAULT_STEP_LIMIT,
    CapExceededError,
    EhrenfestParams,
    MixingEstimate,
    MultinomialDist,
    ResidualError,
    StepLimitError,
    _coupling_times,
    _flow_residual,
    _hit_table,
    _kernel_moves,
    _pair_moves,
    _rank,
    _rank_table,
    _tv_scan,
    absorption_times,
    build_kernel,
    corner_labels,
    coupled_run,
    detailed_balance_residual,
    enumerate_states,
    estimate_mixing,
    expected_absorption_closed,
    geometric_weights,
    mixing_bound,
    solve_stationary_exact,
    state_array,
    state_count,
    stationary_closed,
    tmix_exact,
    transition_row,
    tv_distance_exact,
)
from gtftlab.rng import stream

LAMBDA_PAIRS = ((0.2, 0.6), (0.3, 0.3), (0.5, 0.25), (0.6, 0.2))  # a/b in {1/3, 1, 2, 3}


def hitting_time_oracle(k: int, a: float, b: float) -> float:
    """Expected absorption time of the +-k walk by solving the linear system.

    Independent of the martingale formula: h(z) = 1 + a h(z+1) + b h(z-1)
    + (1-a-b) h(z) on the interior, h(+-k) = 0.
    """
    n = 2 * k - 1
    system = np.zeros((n, n))
    rhs = np.ones(n)
    for row in range(n):
        system[row, row] = a + b
        if row + 1 < n:
            system[row, row + 1] = -a
        if row - 1 >= 0:
            system[row, row - 1] = -b
    return float(np.linalg.solve(system, rhs)[k - 1])


def exact_geometric_weights(lam: float, k: int) -> tuple[list[int], int]:
    """Oracle: integers proportional to lam**(j-1), j = 1..k, and their sum, exactly.

    A finite float lam is num / 2**e, so lam**(j-1) * 2**(e(k-1)) is the
    integer num**(j-1) * 2**(e(k-j)).
    """
    num, den = lam.as_integer_ratio()
    shift = den.bit_length() - 1
    weights, power = [], 1
    for j in range(k):
        weights.append(power << shift * (k - 1 - j))
        power *= num
    return weights, sum(weights)


def assert_matches_exact_weights(p, lam: float, k: int) -> None:
    weights, total = exact_geometric_weights(lam, k)
    exact = np.array([w / total for w in weights])
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p, exact, rtol=1e-12, atol=1e-300)


def fill_states(k: int, m: int) -> list[tuple[int, ...]]:
    """Oracle: the count vectors in lexicographically decreasing order, by recursion."""
    out: list[tuple[int, ...]] = []

    def fill(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            fill(prefix + (first,), remaining - first, slots - 1)

    fill((), m, k)
    return out


def dict_kernel(params: EhrenfestParams) -> sp.csr_matrix:
    """Oracle: the kernel assembled row by row from ``transition_row`` and an index dict."""
    states = fill_states(params.k, params.m)
    index = {x: i for i, x in enumerate(states)}
    rows, cols, vals = [], [], []
    for i, x in enumerate(states):
        for y, p in transition_row(x, params).items():
            rows.append(i)
            cols.append(index[y])
            vals.append(p)
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(states), len(states)))


SMALL_K = st.integers(2, 7)
SMALL_M = st.integers(1, 8)


@st.composite
def small_params(draw):
    a = draw(st.floats(min_value=1e-3, max_value=1.0))
    b = draw(st.floats(min_value=1e-3, max_value=1.0))
    assume(a + b <= 1.0)
    return EhrenfestParams(k=draw(SMALL_K), a=a, b=b, m=draw(SMALL_M))


# beta below ~1e-308 makes lam = (1 - beta)/beta overflow to inf
BETAS = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)


# ------------------------------------------------------------------ params, states


def test_params_validation():
    with pytest.raises(ValueError):
        EhrenfestParams(k=1, a=0.3, b=0.3, m=4)
    with pytest.raises(ValueError):
        EhrenfestParams(k=2, a=0.0, b=0.3, m=4)
    with pytest.raises(ValueError):
        EhrenfestParams(k=2, a=0.7, b=0.7, m=4)
    # m = 4.5 once gave a finite mixing_bound; m = 4.0 a TypeError in the solver
    for k, m in ((3, 4.5), (3, 4.0), (2.5, 4), (3.0, 4)):
        with pytest.raises(ValueError, match="need an integer"):
            EhrenfestParams(k=k, a=0.4, b=0.2, m=m)
    assert EhrenfestParams(k=3, a=0.4, b=0.2, m=5).lam == pytest.approx(2.0)
    assert EhrenfestParams(k=np.int64(3), a=0.4, b=0.2, m=np.int8(4)).m == 4


def test_enumerate_states_small_and_counts():
    assert enumerate_states(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(enumerate_states(3, 1)) == 3
    assert state_count(6, 20) == 53130
    states = enumerate_states(3, 4)
    assert len(states) == state_count(3, 4) == len(set(states))
    assert all(sum(x) == 4 for x in states)


def test_enumerate_states_cap():
    with pytest.raises(CapExceededError):
        enumerate_states(6, 20, cap=1000)


@settings(max_examples=60, deadline=None)
@given(k=SMALL_K, m=SMALL_M)
@example(k=2, m=1)
@example(k=7, m=8)
def test_state_array_matches_recursive_oracle_and_ranks(k, m):
    states = state_array(k, m)
    assert enumerate_states(k, m) == fill_states(k, m)
    assert np.iinfo(states.dtype).max >= m and states.dtype.itemsize == 1
    np.testing.assert_array_equal(_rank(states, _rank_table(k, m), m), np.arange(len(states)))


@settings(max_examples=60, deadline=None)
@given(params=small_params())
@example(params=EhrenfestParams(k=3, a=0.5, b=0.5, m=4))  # self loops of mass 0
@example(params=EhrenfestParams(k=7, a=0.7, b=0.3, m=8))
def test_kernel_matches_dict_oracle_entry_for_entry(params):
    states, table, kernel = build_kernel(params)
    oracle = dict_kernel(params)
    assert list(map(tuple, states.tolist())) == fill_states(params.k, params.m)
    np.testing.assert_array_equal(_rank(states, table, params.m), np.arange(len(states)))
    assert kernel.shape == oracle.shape
    assert (kernel != oracle).nnz == 0


@settings(max_examples=60, deadline=None)
@given(params=small_params(), seed=st.integers(0, 2**32 - 1))
@example(params=EhrenfestParams(k=6, a=0.7, b=0.3, m=20), seed=0)
@example(params=EhrenfestParams(k=3, a=0.5, b=0.5, m=4), seed=0)  # self loops of mass 0
def test_flow_residual_is_the_l1_distance_of_one_sparse_step(params, seed):
    # each side sums at most 2k - 1 terms per state, whose masses add to at most 2 over the
    # states; 4 k eps leaves room over the worst seen, 0.67 k eps in 3000 random draws
    states, _, kernel = build_kernel(params)
    _, _, (pairs, _) = _kernel_moves(params, cap=len(states))
    mu = np.random.default_rng(seed).dirichlet(np.ones(len(states)))
    product = np.abs(mu @ kernel - mu).sum()
    assert abs(_flow_residual(mu, pairs) - product) <= 4 * params.k * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(k=SMALL_K, m=SMALL_M, data=st.data())
def test_log_pmf_matches_scalar_pmf(k, m, data):
    # integer cell weights include empty cells, which the pmf must handle
    weights = data.draw(st.lists(st.integers(0, 10), min_size=k, max_size=k).filter(any))
    dist = MultinomialDist(m=m, p=tuple(np.array(weights) / sum(weights)))
    states = fill_states(k, m)
    expect = np.array([dist.pmf(x) for x in states])
    np.testing.assert_allclose(np.exp(dist.log_pmf(np.array(states))), expect, rtol=1e-12, atol=0)


def test_log_pmf_rejects_non_compositions():
    dist = MultinomialDist(m=3, p=(0.5, 0.5))
    for bad in ([[3, 0, 0]], [[2, 0]], [[4, -1]], [3, 0], [[2.5, 0.5]], [[np.nan, 3.0]],
                [[np.inf, -np.inf]]):
        with pytest.raises(ValueError, match="is not a composition of 3 into 2 parts"):
            dist.log_pmf(np.array(bad))
    # integral floats are counts, as they are for pmf
    rows = np.array([[3, 0], [1, 2]])
    assert dist.log_pmf(rows.astype(float)).tobytes() == dist.log_pmf(rows).tobytes()


def reference_pmf(dist: MultinomialDist, x) -> float:
    """MultinomialDist.pmf written as the per-cell loop, one lgamma and one log per cell."""
    if len(x) != len(dist.p) or sum(x) != dist.m:
        raise ValueError(f"{x} is not a composition of {dist.m} into {len(dist.p)} parts")
    log_coef = math.lgamma(dist.m + 1) - sum(math.lgamma(xi + 1) for xi in x)
    log_prob = 0.0
    for xi, q in zip(x, dist.p):
        if xi == 0:
            continue
        if q == 0.0:
            return 0.0
        log_prob += xi * math.log(q)
    return math.exp(log_coef + log_prob)


@st.composite
def pmf_cases(draw):
    """A law over k in 2..8 cells, some empty or tiny, and a composition of m <= 10^4."""
    k, m = draw(st.integers(2, 8)), draw(st.integers(1, 10**4))
    cell = st.just(0.0) | st.floats(1e-300, 1e-250) | st.floats(1e-3, 1.0)
    weights = draw(st.lists(cell, min_size=k, max_size=k).filter(any))
    p = tuple((np.array(weights) / sum(weights)).tolist())
    # counts on every cell, or on the non-empty cells only, where the pmf is not 0
    cells = draw(st.sampled_from([range(k), [j for j in range(k) if p[j] > 0]]))
    cuts = sorted(draw(st.lists(st.integers(0, m), min_size=len(cells) - 1,
                                max_size=len(cells) - 1)))
    x = [0] * k
    for j, lo, hi in zip(cells, [0] + cuts, cuts + [m]):
        x[j] = hi - lo
    form = draw(st.sampled_from([int, float, np.int64]))
    return MultinomialDist(m=m, p=p), tuple(map(form, x))


@settings(max_examples=300, deadline=None)
@given(case=pmf_cases())
@example(case=(MultinomialDist(m=20, p=(0.0, 0.5, 0.5)), (0, 9, 11)))
@example(case=(MultinomialDist(m=20, p=(0.0, 0.5, 0.5)), (1.0, 9.0, 10.0)))
# np.log of this weight is one ulp off math.log's on hosts where numpy uses SIMD logs
@example(case=(MultinomialDist(m=10_000, p=(0.6069010136690235, 0.3930989863309765)),
               (5000, 5000)))
def test_pmf_equals_the_per_cell_loop_bitwise(case):
    dist, x = case
    assert dist.pmf(x).hex() == reference_pmf(dist, x).hex()


def test_pmf_is_pinned_on_the_benchmark_instances():
    # sha256 of the pmf and log_pmf bytes over every state of the four large
    # instances of the exact benchmark, recorded with the per-cell pmf loop
    pmf, log_pmf = hashlib.sha256(), hashlib.sha256()
    for k, m, a, b in ((4, 20, 0.7, 0.3), (5, 20, 0.7, 0.3), (4, 60, 0.7, 0.3), (6, 20, 0.7, 0.3)):
        dist = stationary_closed(EhrenfestParams(k=k, a=a, b=b, m=m))
        states = enumerate_states(k, m)
        pmf.update(np.array([dist.pmf(x) for x in states]).tobytes())
        log_pmf.update(dist.log_pmf(np.array(states)).tobytes())
    assert pmf.hexdigest() == "58917fb5df2ea68883885cb3a946c5a4a866883ba33d4dacec1be86d305ab59d"
    assert log_pmf.hexdigest() == "5caa74805007642ad2b8feefb65e47beeb50bc203f372a4c7f39da326d2376bc"


def test_pmf_at_a_trillion_balls_builds_no_table():
    dist = MultinomialDist(m=10**12, p=(0.3, 0.7))
    x = (3 * 10**11 + 17, 7 * 10**11 - 17)
    assert dist.pmf(x).hex() == reference_pmf(dist, x).hex()
    assert len(dist._log_terms[0]) <= 3  # lgamma of m and of the two counts


def test_log_pmf_leaves_the_pmf_memo_small():
    # one log_pmf call at m = 10^5 must not fill the memo with m + 1 entries
    dist = MultinomialDist(m=10**5, p=(0.3, 0.7))
    dist.pmf((4 * 10**4, 6 * 10**4))
    dist.log_pmf(np.array([[10**5, 0], [5 * 10**4, 5 * 10**4]]))
    assert len(dist._log_terms[0]) <= len(dist.p) + 1


def test_pmf_rejects_non_counts():
    dist = MultinomialDist(m=20, p=(0.2, 0.3, 0.5))
    for bad in ((-1, 1, 20), (2.5, 7.5, 10), (np.float64(0.5), 9.5, 10), (20, 0), (19, 0, 0),
                (-1.0, 1.0, 20.0), (math.inf, -math.inf, 20), (21, -1, 0), (10**6, 20 - 10**6, 0)):
        with pytest.raises(ValueError, match="is not a composition of 20 into 3 parts"):
            dist.pmf(bad)
    # the memo holds only counts in 0..m, and whole counts of any type still work
    assert all(0 <= i <= 20 and i % 1 == 0 for i in dist._log_terms[0])
    want = reference_pmf(dist, (2, 8, 10))
    assert dist.pmf((2.0, 8.0, 10.0)) == dist.pmf(tuple(np.array([2, 8, 10]))) == want


def test_multinomial_rejects_non_finite_cells():
    with pytest.raises(ValueError):
        MultinomialDist(m=3, p=(math.nan, math.nan, math.nan))


def test_multinomial_rejects_bad_trial_counts():
    for m in (2.5, -2, 2.0, math.nan, "3"):
        with pytest.raises(ValueError, match="need an integer m"):
            MultinomialDist(m=m, p=(0.5, 0.5))
    dist = MultinomialDist(m=np.int64(2), p=(0.5, 0.5))
    assert dist.pmf((1, 1)) == pytest.approx(0.5)
    assert MultinomialDist(m=0, p=(0.5, 0.5)).pmf((0, 0)) == 1.0


def test_multinomial_pmf_sums_to_one():
    dist = MultinomialDist(m=5, p=(0.2, 0.3, 0.5))
    total = sum(dist.pmf(x) for x in enumerate_states(3, 5))
    assert total == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ kernel


def test_transition_row_two_urns_single_ball():
    params = EhrenfestParams(k=2, a=0.4, b=0.3, m=1)
    assert transition_row((1, 0), params) == {(0, 1): 0.4, (1, 0): pytest.approx(0.6)}


def test_transition_row_three_urn_example():
    params = EhrenfestParams(k=3, a=0.4, b=0.2, m=2)
    row = transition_row((1, 1, 0), params)
    assert row[(0, 2, 0)] == pytest.approx(0.2)
    assert row[(1, 0, 1)] == pytest.approx(0.2)
    assert row[(2, 0, 0)] == pytest.approx(0.1)
    assert row[(1, 1, 0)] == pytest.approx(0.5)


def test_transition_row_support_and_mass():
    params = EhrenfestParams(k=4, a=0.3, b=0.25, m=6)
    for x in enumerate_states(4, 6):
        row = transition_row(x, params)
        assert len(row) <= 2 * (params.k - 1) + 1
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for v in row.values())


def test_transition_row_keys_are_int_tuples():
    params = EhrenfestParams(k=3, a=0.3, b=0.3, m=4)
    for x in [(2.0, 2.0, 0.0), np.array([2, 2, 0]), (2, 2, 0)]:
        row = transition_row(x, params)
        assert row == transition_row((2, 2, 0), params)
        assert all(type(c) is int for key in row for c in key)


BAD_COUNTS = [(2.5, 1.5, 0), (4, 0), (5, -1, 0), (3, 0, 0)]  # fractional, k, sign, m


@pytest.mark.parametrize("x", BAD_COUNTS)
def test_transition_row_rejects_bad_counts(x):
    with pytest.raises(ValueError):
        transition_row(x, EhrenfestParams(k=3, a=0.3, b=0.3, m=4))


def test_last_urn_self_loop_probability():
    params = EhrenfestParams(k=4, a=0.3, b=0.25, m=6)
    row = transition_row((0, 0, 0, 6), params)
    assert row[(0, 0, 0, 6)] == pytest.approx(1 - params.b)


# ------------------------------------------------------------------ stationary law


def test_stationary_closed_uniform_when_balanced():
    dist = stationary_closed(EhrenfestParams(k=4, a=0.3, b=0.3, m=5))
    np.testing.assert_allclose(dist.p, 0.25)


def test_stationary_closed_geometric_weights():
    dist = stationary_closed(EhrenfestParams(k=3, a=0.4, b=0.2, m=7))
    np.testing.assert_allclose(dist.p, [1 / 7, 2 / 7, 4 / 7], atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=1e-12, max_value=1e12), k=st.integers(2, 400))
@example(lam=18.0, k=400)
@example(lam=99.0, k=1000)
@example(lam=19.0, k=300)
@example(lam=2.0, k=1024)
def test_geometric_weights_match_exact_oracle(lam, k):
    assert_matches_exact_weights(geometric_weights(lam, k), lam, k)


@pytest.mark.parametrize("k", [3.5, 3.0, 0, True, "3"])
def test_geometric_weights_reject_non_integer_cell_counts(k):
    # np.arange(3.5) has four entries: 3.5 once gave a 4-vector
    with pytest.raises(ValueError, match="k"):
        geometric_weights(2.0, k)


def test_geometric_weights_are_plain_powers_when_finite():
    for lam in (0.1, 0.5, 1.0, 1.5, 3.0, 18.0):
        for k in (2, 3, 17, 200):
            weights = np.power(lam, np.arange(k, dtype=float))
            if np.isfinite(weights.sum()):
                np.testing.assert_array_equal(geometric_weights(lam, k), weights / weights.sum())


@settings(max_examples=60, deadline=None)
@given(beta=BETAS, k=st.integers(2, 400))
@example(beta=0.05, k=300)
@example(beta=0.01, k=1000)
@example(beta=0.5 - 1e-13, k=6)
@example(beta=0.5 - 1e-9, k=300)
def test_stationary_closed_matches_exact_oracle(beta, k):
    params = EhrenfestParams(k=k, a=1.0 - beta, b=beta, m=5)
    assert_matches_exact_weights(stationary_closed(params).p, params.lam, k)


def test_stationary_two_urns_is_binomial():
    params = EhrenfestParams(k=2, a=0.5, b=0.25, m=6)
    lam = params.lam
    dist = stationary_closed(params)
    for x1 in range(7):
        x = (x1, 6 - x1)
        expect = lam ** (6 - x1) / (1 + lam) ** 6 * math.comb(6, x1)
        assert dist.pmf(x) == pytest.approx(expect, rel=1e-12)


def test_exact_solver_matches_closed_form_grid():
    for k in (2, 3, 4):
        for m in (1, 3, 5):
            for a, b in LAMBDA_PAIRS:
                params = EhrenfestParams(k=k, a=a, b=b, m=m)
                states, pi = solve_stationary_exact(params)
                assert pi.sum() == pytest.approx(1.0, abs=1e-12)
                dist = stationary_closed(params)
                pmf = np.array([dist.pmf(x) for x in states])
                np.testing.assert_allclose(pi, pmf, atol=1e-10)


def test_exact_solver_is_pinned_on_the_benchmark_instances():
    # sha256 of pi's bytes over the 72 tiny and four large instances of the
    # exact benchmark, recorded when each tree edge became
    # log a - log b + log(x_j / y_{j+1})
    digest = hashlib.sha256()
    for k in (2, 3, 4):
        for m in range(1, 7):
            for a, b in LAMBDA_PAIRS:
                digest.update(solve_stationary_exact(EhrenfestParams(k=k, a=a, b=b, m=m))[1])
    for k, m, a, b in ((4, 20, 0.7, 0.3), (5, 20, 0.7, 0.3), (4, 60, 0.7, 0.3), (6, 20, 0.7, 0.3)):
        digest.update(solve_stationary_exact(EhrenfestParams(k=k, a=a, b=b, m=m))[1])
    assert digest.hexdigest() == "e23aae165aa65252bd75c675f1ec7751704fa98674152016238fdb82adefff13"


def test_exact_solver_agrees_to_1e12():
    params = EhrenfestParams(k=3, a=0.4, b=0.2, m=3)
    states, pi = solve_stationary_exact(params)
    dist = stationary_closed(params)
    pmf = np.array([dist.pmf(x) for x in states])
    np.testing.assert_allclose(pi, pmf, atol=1e-12)


def test_exact_solver_at_half_a_million_states():
    # the solver raises unless ||pi P - pi||_1 <= 1e-12, its default tol
    params = EhrenfestParams(k=4, a=0.7, b=0.3, m=143)
    states, pi = solve_stationary_exact(params)
    assert len(states) == state_count(4, 143) == 508_080
    closed = np.exp(stationary_closed(params).log_pmf(np.array(states)))
    assert np.abs(pi - closed).max() <= 1e-10


def test_exact_solver_far_from_its_root():
    # log pi at the mode is about m log(1/0.3) = 1.2e5 above the root
    # (m, 0); plain rounding of log pi at that size left a residual near 4e-12
    params = EhrenfestParams(k=2, a=0.7, b=0.3, m=100_000)
    states, pi = solve_stationary_exact(params)
    assert len(states) == 100_001
    closed = np.exp(stationary_closed(params).log_pmf(np.array(states)))
    assert np.abs(pi - closed).max() <= 1e-10


def test_exact_solver_rejects_a_law_off_by_1e9_at_any_one_state(monkeypatch):
    # the flow residual moves by about 2e-9 times the chance of leaving the state: 1e-10 or more
    flow_residual = ehrenfest._flow_residual
    for row in range(state_count(3, 4)):

        def perturbed(px, pairs, row=row):
            px = px.copy()
            px[row] += 1e-9
            return flow_residual(px, pairs)

        monkeypatch.setattr(ehrenfest, "_flow_residual", perturbed)
        with pytest.raises(ResidualError, match="residual"):
            solve_stationary_exact(EhrenfestParams(k=3, a=0.4, b=0.2, m=4))


def test_exact_solver_raises_above_its_residual_bound():
    # the residual here is about 3e-17, not zero
    params = EhrenfestParams(k=3, a=0.4, b=0.2, m=4)
    with pytest.raises(ResidualError, match="residual"):
        solve_stationary_exact(params, tol=1e-20)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0])
def test_exact_solver_rejects_a_tol_that_no_residual_can_meet(tol):
    # these once ran the solve and blamed it: "residual 4.391e-17 exceeds tol nan"
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_stationary_exact(EhrenfestParams(k=3, a=0.4, b=0.2, m=4), tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k, a, b, m", [(3, 5e-324, 0.5, 4), (3, 0.5, 5e-324, 4),
                                        (4, 5e-324, 5e-324, 6), (4, 3e-310, 2e-310, 20)])
def test_exact_solver_where_a_move_probability_underflows(k, a, b, m):
    # a tree edge's up or down entry is 0 or subnormal here: its log ratio once read
    # log(0), and two-sum turned -inf and inf into NaN. The flows are subnormal too,
    # so only the closed form can tell a wrong pi here
    params = EhrenfestParams(k=k, a=a, b=b, m=m)
    states, pi = solve_stationary_exact(params)
    closed = np.exp(stationary_closed(params).log_pmf(np.array(states)))
    assert np.abs(pi - closed).max() <= 1e-12


def test_exact_solver_two_urn_midpoint():
    params = EhrenfestParams(k=2, a=0.3, b=0.3, m=2)
    states, pi = solve_stationary_exact(params)
    assert pi[states.index((1, 1))] == pytest.approx(0.5, abs=1e-12)


def test_detailed_balance_residual_small_for_closed_form():
    for k in (2, 3, 4):
        for a, b in LAMBDA_PAIRS:
            params = EhrenfestParams(k=k, a=a, b=b, m=4)
            assert detailed_balance_residual(params) < 1e-12


def test_detailed_balance_residual_flags_perturbation():
    params = EhrenfestParams(k=3, a=0.4, b=0.2, m=4)
    good = stationary_closed(params)
    p = np.array(good.p)
    p[0] += 1e-3
    p /= p.sum()
    bad = MultinomialDist(m=4, p=tuple(p))
    assert detailed_balance_residual(params, dist=bad) > 1e-6


@settings(max_examples=60, deadline=None)
@given(params=small_params(), seed=st.integers(0, 2**32 - 1))
@example(params=EhrenfestParams(k=3, a=0.5, b=0.5, m=4), seed=0)
def test_detailed_balance_residual_is_bitwise_the_transition_row_oracle(params, seed):
    # a law that is not stationary, so that every pair has a residual to get right
    p = np.random.default_rng(seed).dirichlet(np.ones(params.k))
    dist = MultinomialDist(m=params.m, p=tuple(p))
    states = fill_states(params.k, params.m)
    px = dict(zip(states, np.exp(dist.log_pmf(np.array(states))).tolist()))
    rows = {x: transition_row(x, params) for x in states}
    oracle = max(abs(px[x] * p_xy - px[y] * rows[y][x])
                 for x in states for y, p_xy in rows[x].items() if y != x)
    assert detailed_balance_residual(params, dist=dist) == oracle


def test_detailed_balance_two_state_chain_exact():
    params = EhrenfestParams(k=2, a=0.4, b=0.1, m=1)
    assert detailed_balance_residual(params) < 1e-15


# ------------------------------------------------------------------ absorption


def test_absorption_closed_balanced():
    assert expected_absorption_closed(4, 0.5, 0.5) == 16.0
    assert expected_absorption_closed(6, 0.3, 0.3) == 60.0


def test_absorption_closed_matches_hitting_time_oracle():
    for k, a, b in [
        (4, 0.5, 0.5), (8, 0.6, 0.2), (6, 0.3, 0.35), (1, 0.2, 0.5), (5, 0.45, 0.55),
        (6, 0.3, 0.3), (4, 0.2, 0.2),
        # near balance, where the r = (a/b)^k form cancels, and large k, where it overflows
        (4, 0.3, 0.3 + 1e-12), (4, 0.3, 0.3 + 1e-9), (6, 0.5, 0.5 - 1e-14), (400, 0.9, 0.1),
    ]:
        assert expected_absorption_closed(k, a, b) == pytest.approx(
            hitting_time_oracle(k, a, b), rel=1e-10
        )


def test_absorption_closed_validates_weights():
    for a, b in ((0.5, 0.0), (0.0, 0.5)):
        with pytest.raises(ValueError, match="need a, b > 0"):
            expected_absorption_closed(3, a, b)


def test_absorption_rejects_non_integer_k():
    # +-2.5 is never hit: the walks ran to the step limit, the closed form gave 11.69
    with pytest.raises(ValueError, match="need an integer k"):
        absorption_times(2.5, 0.3, 0.3, 5, stream(5, "absorb-k2.5"))
    with pytest.raises(ValueError, match="need an integer k"):
        expected_absorption_closed(2.5, 0.3, 0.2)
    assert expected_absorption_closed(np.int64(4), 0.5, 0.5) == 16.0


def test_absorption_closed_respects_min_bound():
    # biased lazy pairs exercise the k/|a-b| branch; moving pairs the k^2 branch
    for k in (2, 4, 8):
        for a, b in ((0.6, 0.2), (0.7, 0.1), (0.55, 0.45), (0.5, 0.5)):
            value = expected_absorption_closed(k, a, b)
            cap = k * k if a == b else min(k / abs(a - b), k * k)
            assert value <= cap + 1


def test_absorption_single_site_mean():
    # k=1 absorbs at the first move: geometric with success a+b
    taus = absorption_times(1, 0.3, 0.5, 50_000, stream(3, "absorb-k1"))
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - 1 / 0.8) < 3 * se
    assert expected_absorption_closed(1, 0.3, 0.5) == pytest.approx(1 / 0.8)


def test_absorption_times_single_runs_match_closed():
    rng = stream(4, "absorb-one")
    taus = np.concatenate([absorption_times(3, 0.5, 0.3, 1, rng) for _ in range(20_000)])
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - expected_absorption_closed(3, 0.5, 0.3)) < 3 * se


def test_absorption_batch_matches_closed():
    for k, a, b in [(8, 0.6, 0.2), (6, 0.3, 0.35)]:
        taus = absorption_times(k, a, b, 50_000, stream(5, "absorb", k))
        se = taus.std(ddof=1) / math.sqrt(taus.size)
        assert abs(taus.mean() - expected_absorption_closed(k, a, b)) < 3 * se


def test_absorption_step_limit():
    with pytest.raises(StepLimitError):
        absorption_times(10, 0.05, 0.05, 1, stream(6, "limit"), step_limit=5)


def reference_absorption_times(k, a, b, n_runs, rng, step_limit=DEFAULT_STEP_LIMIT):
    """absorption_times with every walk's position in one array indexed by the live walks."""
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


def walk_moves(k):
    """The +-k walk's moves, positions 1-k..k-1 as states 0..2k-2 and +-k as the met state 2k-1."""
    state = {z: z + k - 1 for z in range(1 - k, k)} | {-k: 2 * k - 1, k: 2 * k - 1}
    up = [state[z + 1] for z in range(1 - k, k)] + [2 * k - 1]
    down = [state[z - 1] for z in range(1 - k, k)] + [2 * k - 1]
    return np.array(up), np.array(down)


@pytest.mark.parametrize("k", range(1, 9))
def test_walk_hit_table_is_the_dense_absorbing_chains_survival(k):
    # in moves: the transient block Q of the non-lazy walk, S_n = (Q^n 1)[start]; both
    # sides sum non-negative terms, so row n differs by at most about n ulps
    n_max = 300
    for a, b in [(0.05, 0.9), (0.3, 0.3), (0.45, 0.15), (0.6, 0.4), (0.01, 0.02), (1e-7, 1e-7)]:
        p, q = a / (a + b), b / (a + b)
        transient = np.diag(np.full(2 * k - 2, p), 1) + np.diag(np.full(2 * k - 2, q), -1)
        survival, want = np.ones(2 * k - 1), [1.0]
        for _ in range(n_max):
            survival = transient @ survival
            want.append(survival[k - 1])
        got = _hit_table(walk_moves(k), p, q, np.array([k - 1]), np.array([0.0]), n_max)[:, 0]
        assert (np.abs(got - want) <= np.arange(n_max + 1) * np.finfo(float).eps * want).all()


def exact_step_cdf(k, a, b, n_max):
    """P(tau <= n), n = 0..n_max, of the lazy +-k walk from 0, by iterating its law on -k..k."""
    law = np.zeros(2 * k + 1)
    law[k] = 1.0
    cdf = [0.0]
    for _ in range(n_max):
        inner = law[1:-1]
        law = np.concatenate(([law[0]], np.zeros(2 * k - 1), [law[-1]]))
        law[2:] += a * inner
        law[:-2] += b * inner
        law[1:-1] += (1 - a - b) * inner
        cdf.append(law[0] + law[-1])
    return np.array(cdf)


WALKS = [  # (k, a, b): k = 1, a = b, b > a, slow and lazy, and a + b = 1
    (1, 0.3, 0.5),
    (2, 0.5, 0.5),
    (3, 0.5, 0.3),
    (4, 0.2, 0.2),
    (5, 0.01, 0.02),
    (6, 0.7, 0.2),
    (3, 0.6, 0.4),
]


@pytest.mark.parametrize("k, a, b", WALKS)
def test_absorption_times_have_the_exact_step_law(k, a, b):
    # 20,000 draws against P(tau <= n) at every n up to the 0.999 quantile,
    # each within 5 binomial sigma
    draws = 20_000
    taus = np.sort(absorption_times(k, a, b, draws, stream(21, "walk-law", k, a, b)))
    want = exact_step_cdf(k, a, b, 20 * math.ceil(expected_absorption_closed(k, a, b)))
    n_max = int(np.searchsorted(want, 0.999))
    assert n_max < want.size - 1
    got = np.searchsorted(taus, np.arange(n_max + 1), side="right") / draws
    sigma = np.sqrt(want[:n_max + 1] * (1 - want[:n_max + 1]) / draws)
    assert (np.abs(got - want[:n_max + 1]) <= 5 * sigma + 1 / draws).all()


@pytest.mark.parametrize("k, a, b", WALKS)
def test_absorption_times_have_the_law_of_the_step_loop(k, a, b):
    # two-sample KS, the step loop against 5x as many sampled times; p >= 1e-3
    want = reference_absorption_times(k, a, b, 2000, stream(22, "loop", k, a, b))
    got = absorption_times(k, a, b, 10_000, stream(22, "sampled", k, a, b))
    assert got.dtype == np.int64
    assert ks_2samp(want, got).pvalue >= 1e-3


@pytest.mark.parametrize("k, a, b", [(3, 0.3, 0.3), (1, 0.2, 0.5), (4, 0.7, 0.2)])
def test_absorption_step_limit_raises_exactly_past_the_unlimited_times(k, a, b):
    for seed in range(5):
        taus = absorption_times(k, a, b, 20, stream(seed, "walk-limit"))
        top = int(taus.max())
        for limit in sorted({0, 1, top - 1, top, top + 1, 2 * top}):
            try:
                got = absorption_times(k, a, b, 20, stream(seed, "walk-limit"), step_limit=limit)
            except StepLimitError as exc:
                assert top > limit and f"no absorption within {limit} steps" in str(exc)
            else:
                assert top <= limit and np.array_equal(got, taus), (seed, top, limit)


def test_absorption_times_of_no_runs_is_an_empty_int64_array():
    taus = absorption_times(3, 0.3, 0.3, 0, stream(23, "none"))
    assert taus.dtype == np.int64 and taus.shape == (0,)


def test_absorption_cost_does_not_grow_with_one_over_a_plus_b():
    # the step loop took about 0.2 s per run here, and would take days for 1000
    start = time.perf_counter()
    taus = absorption_times(2, 1e-7, 1e-7, 1000, stream(24, "slow-walk"))
    assert time.perf_counter() - start < 1.0
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - expected_absorption_closed(2, 1e-7, 1e-7)) < 3 * se


@pytest.mark.parametrize("rate", [1e-300, 5e-324])
def test_absorption_at_rates_near_the_float_floor_is_past_any_step_limit(rate):
    # the walk needs about 4 / (2 rate) steps, past int64; this once ended on
    # numpy's "lam value too large"
    with pytest.raises(StepLimitError, match="no absorption"):
        absorption_times(2, rate, rate, 5, 1)


# ------------------------------------------------------------------ coupling, mixing


def test_coupled_run_zero_when_equal():
    params = EhrenfestParams(k=3, a=0.3, b=0.2, m=5)
    assert coupled_run(params, [2] * 5, [2] * 5, stream(7, "eq")) == 0


def test_coupled_run_coalesces_and_validates_labels():
    params = EhrenfestParams(k=3, a=0.3, b=0.2, m=6)
    x0, y0 = corner_labels(params)
    tau = coupled_run(params, x0, y0, stream(8, "coal"))
    assert tau > 0
    with pytest.raises(ValueError):
        coupled_run(params, [0] * 6, y0, stream(9, "bad"))


def test_coupled_run_accepts_array_starts():
    params = EhrenfestParams(k=3, a=0.3, b=0.2, m=6)
    x0, y0 = corner_labels(params)
    tau = coupled_run(params, x0, y0, stream(8, "coal"))
    assert coupled_run(params, np.array(x0), np.array(y0), stream(8, "coal")) == tau


@pytest.mark.parametrize(
    "x0, y0",
    [
        (np.array([0] * 4), np.array([2] * 4)),  # label 0 in an array start
        ([1.5] * 4, [1] * 4),  # a fractional label
        ([1] * 4, [4] * 4),  # a label above k
        ([1] * 3, [3] * 3),  # wrong length
        ([[1, 2]] * 4, [[3, 3]] * 4),  # m rows, but not a vector of labels
    ],
)
def test_coupled_run_rejects_bad_labels(x0, y0):
    params = EhrenfestParams(k=3, a=0.3, b=0.2, m=4)
    with pytest.raises(ValueError):
        coupled_run(params, x0, y0, stream(9, "bad"))
    with pytest.raises(ValueError):
        coupled_run(params, y0, x0, stream(9, "bad"))


def reference_coupled_run(params, x0, y0, rng, step_limit=DEFAULT_STEP_LIMIT):
    """coupled_run written as the per-step rule, with the same draws."""
    k, a, b, m = params.k, params.a, params.b, params.m
    x, y = list(x0), list(y0)
    unmatched = sum(1 for xi, yi in zip(x, y) if xi != yi)
    if unmatched == 0:
        return 0
    t = 0
    while t < step_limit:
        size = min(1 << 14, step_limit - t)
        coords = rng.integers(0, m, size=size).tolist()
        moves = rng.random(size)
        ups = (moves < a).tolist()
        downs = ((moves >= a) & (moves < a + b)).tolist()
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
    raise StepLimitError(f"coupling did not coalesce within {step_limit} steps")


def exact_pick_law(k, a, b, lo, hi, n_max):
    """Oracle: P(tau <= n), n = 0..n_max, of one ball (m = 1) whose copies start at labels lo, hi.

    Every up/down/stay sequence of length n_max is enumerated in exact
    rationals of the float weights.
    """
    a, b = Fraction(a), Fraction(b)
    met = [Fraction(0)] * (n_max + 1)

    def walk(lo, hi, t, weight):
        if lo == hi:
            met[t] += weight
        elif t < n_max:
            walk(lo + 1, min(hi + 1, k), t + 1, weight * a)
            walk(max(lo - 1, 1), hi - 1, t + 1, weight * b)
            walk(lo, hi, t + 1, weight * (1 - a - b))

    walk(lo, hi, 0, Fraction(1))
    return list(itertools.accumulate(met))


ONE_BALL = [  # (k, a, b, lo, hi): corners and inner starts, a = b, b > a, a + b < 1 and = 1
    (2, 0.5, 0.5, 1, 2),
    (5, 0.1, 0.6, 1, 4),
    (3, 0.6, 0.3, 1, 3),
    (3, 0.3, 0.3, 1, 2),
    (4, 0.4, 0.4, 1, 4),
    (4, 0.2, 0.1, 2, 3),
    (5, 0.45, 0.45, 2, 5),
    (6, 0.7, 0.2, 1, 6),
]
N_ENUMERATED = 8


@pytest.mark.parametrize("k, a, b, lo, hi", ONE_BALL)
def test_hit_table_gives_the_enumerated_one_ball_law(k, a, b, lo, hi):
    # a pick moves the ball w.p. r = a + b, so P(N > n) = sum_j C(n, j) r^j (1-r)^(n-j) S_j
    want = exact_pick_law(k, a, b, lo, hi, N_ENUMERATED)
    column, up, down = _pair_moves(k)
    survival = _hit_table((up, down), a / (a + b), b / (a + b), np.array([column[lo - 1, hi - 1]]),
                          np.array([0.0]), N_ENUMERATED)[:, 0]
    r = a + b
    for n in range(N_ENUMERATED + 1):
        got = sum(math.comb(n, j) * r**j * (1 - r) ** (n - j) * survival[j] for j in range(n + 1))
        assert 1 - got == pytest.approx(float(want[n]), rel=1e-12, abs=1e-15), n


@pytest.mark.parametrize("k, a, b, lo, hi", ONE_BALL)
def test_one_ball_coupling_time_has_the_enumerated_law(k, a, b, lo, hi):
    # at m = 1, tau is the ball's own pick count N; 20,000 draws of the shared
    # sampler against P(tau <= n) for n <= 8, each within 5 binomial sigma
    want = exact_pick_law(k, a, b, lo, hi, N_ENUMERATED)
    column, up, down = _pair_moves(k)
    draws = 20_000
    taus = _coupling_times((up, down), a, b, 1, np.array([column[lo - 1, hi - 1]]), draws,
                           stream(17, "one", k, lo, hi), DEFAULT_STEP_LIMIT, "coupling")
    for n in range(N_ENUMERATED + 1):
        p = float(want[n])
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(np.mean(taus <= n) - p) <= 5 * sigma + 1 / draws, (n, p)


# the starts once pinned bitwise against the step loop, and a = b and b > a cases:
# corners, inner and equal balls, a + b < 1 and a + b = 1, couplings from 1 to
# about 35,000 steps
KS_CASES = [
    ((2, 0.5, 0.5, 1), [1], [2], 200),
    ((3, 0.6, 0.3, 5), [1, 2, 3, 1, 2], [3, 3, 1, 2, 2], 1000),
    ((6, 0.2, 0.5, 12), [1, 6, 2, 5, 3, 4, 1, 1, 6, 2, 3, 3],
     [6, 1, 2, 4, 5, 4, 3, 1, 6, 1, 6, 2], 500),
    ((4, 0.7, 0.2, 16), None, None, 1000),
    ((4, 0.7, 0.2, 64), None, None, 500),
    ((8, 0.3, 0.3, 40), None, None, 300),
    ((8, 0.1, 0.1, 40), None, None, 300),
    ((8, 0.05, 0.05, 40), None, None, 200),
]


@pytest.mark.parametrize("chain, x0, y0, trials", KS_CASES,
                         ids=[",".join(map(str, case[0])) for case in KS_CASES])
def test_coupled_run_has_the_law_of_the_step_loop(chain, x0, y0, trials):
    # two-sample KS, step loop against 5x as many sampled couplings; p >= 1e-3
    params = EhrenfestParams(*chain)
    if x0 is None:
        x0, y0 = corner_labels(params)
    rng = stream(18, "loop", *chain)
    want = [reference_coupled_run(params, x0, y0, rng) for _ in range(trials)]
    rng = stream(18, "sampled", *chain)
    got = [coupled_run(params, x0, y0, rng) for _ in range(5 * trials)]
    assert ks_2samp(want, got).pvalue >= 1e-3


@pytest.mark.parametrize("chain, x0, y0", [
    ((3, 0.6, 0.3, 5), [1, 2, 3, 1, 2], [3, 3, 1, 2, 2]),
    ((4, 0.3, 0.3, 8), None, None),
    ((2, 0.3, 0.3, 1), [1], [2]),
])
def test_step_limit_raises_exactly_past_the_unlimited_coupling_time(chain, x0, y0):
    params = EhrenfestParams(*chain)
    if x0 is None:
        x0, y0 = corner_labels(params)
    for seed in range(5):
        tau = coupled_run(params, x0, y0, stream(seed, "limit"))
        for limit in sorted({0, 1, tau - 1, tau, tau + 1, 2 * tau}):
            try:
                got = coupled_run(params, x0, y0, stream(seed, "limit"), step_limit=limit)
            except StepLimitError:
                assert tau > limit, (seed, tau, limit)
            else:
                assert tau <= limit and got == tau, (seed, tau, limit)
        # a batch of corner couplings raises iff its slowest one is past the limit
        column, up, down = _pair_moves(params.k)
        taus = _coupling_times((up, down), params.a, params.b, params.m,
                               np.full(params.m, column[0, params.k - 1]), 50,
                               stream(seed, "batch"), DEFAULT_STEP_LIMIT, "coupling")
        for limit in (taus.max() - 1, taus.max()):
            try:
                estimate_mixing(params, 0.25, 50, stream(seed, "batch"), step_limit=int(limit))
            except StepLimitError:
                assert taus.max() > limit
            else:
                assert taus.max() <= limit


def test_estimate_mixing_criterion_6_values_are_pinned():
    # t_hat of acceptance criterion 6, recorded from the per-ball sampler;
    # the exact corner law's 0.75-quantiles are 97, 225, 513, 1148 and 71, 225, 488, 875
    seed, trials = 20260810, 500
    for key, size, chain, t_hat in [
        ("c6m", 8, (4, 0.7, 0.2, 8), 96),
        ("c6m", 16, (4, 0.7, 0.2, 16), 227),
        ("c6m", 32, (4, 0.7, 0.2, 32), 518),
        ("c6m", 64, (4, 0.7, 0.2, 64), 1175),
        ("c6k", 2, (2, 0.7, 0.2, 16), 71),
        ("c6k", 4, (4, 0.7, 0.2, 16), 230),
        ("c6k", 8, (8, 0.7, 0.2, 16), 484),
        ("c6k", 16, (16, 0.7, 0.2, 16), 878),
    ]:
        est = estimate_mixing(EhrenfestParams(*chain), 0.25, trials, stream(seed, key, size))
        assert est.t_hat == t_hat, (key, size)


@pytest.mark.parametrize("bad", [2.5, True, -1, "3", None])
def test_coupling_rejects_non_integer_step_limits(bad):
    params = EhrenfestParams(k=3, a=0.3, b=0.2, m=4)
    x0, y0 = corner_labels(params)
    with pytest.raises(ValueError, match="step_limit"):
        coupled_run(params, x0, y0, stream(19, "bad"), step_limit=bad)
    with pytest.raises(ValueError, match="step_limit"):
        estimate_mixing(params, 0.25, 10, stream(19, "bad"), step_limit=bad)


@pytest.mark.parametrize("bad", [2.5, True, 0, -3, "10", np.float64(10.0)])
def test_estimate_mixing_rejects_non_integer_trials(bad):
    with pytest.raises(ValueError, match="trials"):
        estimate_mixing(EhrenfestParams(k=3, a=0.3, b=0.2, m=4), 0.25, bad, stream(19, "bad"))


def test_coupled_run_step_limit():
    params = EhrenfestParams(k=4, a=0.3, b=0.3, m=8)
    x0, y0 = corner_labels(params)
    with pytest.raises(StepLimitError):
        coupled_run(params, x0, y0, stream(10, "lim"), step_limit=3)


def test_coupled_run_stops_at_step_limit_on_a_stay_step():
    # with a + b < 1 the limit can fall on a step that moves no ball
    params = EhrenfestParams(k=2, a=0.3, b=0.3, m=1)
    for seed in range(200):
        try:
            tau = coupled_run(params, [1], [2], stream(seed, "x"), step_limit=1)
        except StepLimitError:
            continue
        assert tau <= 1, (seed, tau)


def test_mean_coupling_time_within_analytic_envelope():
    params = EhrenfestParams(k=4, a=0.3, b=0.3, m=32)
    x0, y0 = corner_labels(params)
    rng = stream(11, "env")
    taus = [coupled_run(params, x0, y0, rng) for _ in range(1000)]
    envelope = 2 * params.k**2 * params.m * (math.log(params.m) + 1)
    assert np.mean(taus) <= envelope


def test_estimate_mixing_fields_and_quantile():
    params = EhrenfestParams(k=2, a=0.25, b=0.25, m=16)
    est = estimate_mixing(params, 0.25, 200, stream(12, "est"))
    assert est.method == "coupling-tail"
    assert est.trials == 200 and est.epsilon == 0.25
    assert est.t_hat > 0


def test_estimate_upper_bounds_exact_tmix_on_small_instances():
    instances = [
        EhrenfestParams(k=2, a=0.25, b=0.25, m=16),
        EhrenfestParams(k=3, a=0.4, b=0.2, m=8),
        EhrenfestParams(k=4, a=0.2, b=0.4, m=6),
    ]
    for params in instances:
        exact = tmix_exact(params, epsilon=0.25)
        est = estimate_mixing(params, 0.25, 400, stream(13, "vs", params.k, params.m))
        assert est.t_hat >= exact.t_hat, (params, est.t_hat, exact.t_hat)


def test_estimate_roughly_doubles_with_m():
    small = estimate_mixing(
        EhrenfestParams(k=4, a=0.7, b=0.2, m=8), 0.25, 200, stream(14, "m8")
    )
    large = estimate_mixing(
        EhrenfestParams(k=4, a=0.7, b=0.2, m=32), 0.25, 200, stream(14, "m32")
    )
    assert large.t_hat > 2 * small.t_hat


def test_mixing_bound_formula_and_monotonicity():
    balanced = EhrenfestParams(k=3, a=0.3, b=0.3, m=8)
    assert mixing_bound(balanced) == pytest.approx(2 * 9 / 0.6 * 8 * math.log2(32))
    biased = EhrenfestParams(k=3, a=0.6, b=0.2, m=8)
    assert mixing_bound(biased) == pytest.approx(2 * min(3 / 0.4, 9 / 0.8) * 8 * math.log2(32))
    slow = EhrenfestParams(k=3, a=0.02, b=0.01, m=8)
    assert mixing_bound(slow) == pytest.approx(2 * min(3 / 0.01, 9 / 0.03) * 8 * math.log2(32))
    for params, bigger in [
        (balanced, EhrenfestParams(k=3, a=0.3, b=0.3, m=16)),
        (balanced, EhrenfestParams(k=4, a=0.3, b=0.3, m=8)),
    ]:
        assert mixing_bound(bigger) > mixing_bound(params)


def test_exact_tmix_is_within_the_bound_over_slow_walks():
    # 400 instances; with k^2 in place of k^2/(a+b), 48 of them broke the
    # bound, e.g. (2, .01, .01, 2) mixes at 88 against a bound of 48
    for k, m, a, b in itertools.product((2, 3, 4, 6), (1, 2, 4, 6),
                                        (0.01, 0.03, 0.1, 0.3, 0.45),
                                        (0.01, 0.03, 0.1, 0.3, 0.45)):
        params = EhrenfestParams(k=k, a=a, b=b, m=m)
        assert tmix_exact(params).t_hat <= mixing_bound(params), params


def test_bound_dominates_estimate():
    for params in [
        EhrenfestParams(k=2, a=0.25, b=0.25, m=16),
        EhrenfestParams(k=3, a=0.4, b=0.2, m=8),
        EhrenfestParams(k=4, a=0.7, b=0.2, m=16),
    ]:
        est = estimate_mixing(params, 0.25, 300, stream(15, "dom", params.k))
        assert est.t_hat <= mixing_bound(params)


# ------------------------------------------------------------------ exact TV distance


def test_tv_distance_at_time_zero():
    params = EhrenfestParams(k=3, a=0.4, b=0.2, m=4)
    dist = stationary_closed(params)
    x0 = (4, 0, 0)
    assert tv_distance_exact(params, 0, x0) == pytest.approx(1 - dist.pmf(x0), abs=1e-12)


@pytest.mark.parametrize("x0", BAD_COUNTS)
def test_tv_distance_rejects_bad_counts(x0):
    with pytest.raises(ValueError):
        tv_distance_exact(EhrenfestParams(k=3, a=0.3, b=0.3, m=4), 2, x0)


def test_tv_distance_monotone_nonincreasing():
    params = EhrenfestParams(k=2, a=0.25, b=0.25, m=10)
    x0 = (10, 0)
    values = [tv_distance_exact(params, t, x0) for t in range(0, 121, 10)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_tv_below_quarter_at_mixing_bound():
    for params in [
        EhrenfestParams(k=2, a=0.25, b=0.25, m=16),
        EhrenfestParams(k=3, a=0.4, b=0.2, m=8),
        EhrenfestParams(k=4, a=0.2, b=0.4, m=5),
    ]:
        t_bound = math.ceil(mixing_bound(params))
        top = tuple([params.m] + [0] * (params.k - 1))
        bottom = tuple([0] * (params.k - 1) + [params.m])
        for x0 in (top, bottom):
            assert tv_distance_exact(params, t_bound, x0) <= 0.25


def test_tmix_exact_corners_equal_all_starts():
    # d(t), maximized over every start state, is nonincreasing in t, so the
    # corner mixing time equals the all-starts one iff d crosses epsilon there
    for params in [
        EhrenfestParams(k=3, a=0.4, b=0.2, m=4),
        EhrenfestParams(k=4, a=0.2, b=0.4, m=3),
    ]:
        starts = enumerate_states(params.k, params.m)

        def d(t):
            return max(tv_distance_exact(params, t, x0) for x0 in starts)

        for epsilon in (0.5, 0.25, 0.1):
            corners = tmix_exact(params, epsilon=epsilon)
            assert corners.method == "exact-tv"
            assert d(corners.t_hat) <= epsilon
            assert corners.t_hat == 0 or d(corners.t_hat - 1) > epsilon


SCAN_INSTANCES = [(2, 0.25, 0.25, 16), (3, 0.4, 0.2, 10), (4, 0.7, 0.2, 8), (5, 0.3, 0.3, 4),
                  (4, 0.7, 0.3, 20)]


def scan_starts(k: int, m: int) -> list[tuple[int, ...]]:
    """Both corners and the most even composition of m into k parts."""
    return [(m,) + (0,) * (k - 1), (0,) * (k - 1) + (m,),
            tuple(m // k + (i < m % k) for i in range(k))]


def reference_tv_scan(params: EhrenfestParams, inits, steps: int) -> list[float]:
    """Oracle: d(0..steps) stepping the point masses by ``mus @ kernel``."""
    states, table, kernel = build_kernel(params)
    pi = np.exp(stationary_closed(params).log_pmf(states))
    mus = np.zeros((len(inits), len(states)))
    mus[np.arange(len(inits)), _rank(np.asarray(inits), table, params.m)] = 1.0
    values = []
    for _ in range(steps + 1):
        values.append(0.5 * float(np.abs(mus - pi).sum(axis=1).max()))
        mus = mus @ kernel
    return values


@pytest.mark.parametrize("k, a, b, m, steps",
                         [(*instance, 200) for instance in SCAN_INSTANCES]
                         + [(3, 0.02, 0.45, 1, 50), (6, 0.3, 0.2, 20, 20)])
def test_tv_scan_equals_stepping_by_the_kernel(k, a, b, m, steps):
    # the scan holds the kernel's transpose; the same product, so the same bits
    params = EhrenfestParams(k=k, a=a, b=b, m=m)
    starts = scan_starts(k, m)
    for inits in (starts, starts[:2], starts[2:]):
        scanned = list(itertools.islice(_tv_scan(params, inits, 10**6), steps + 1))
        assert scanned == reference_tv_scan(params, inits, steps)


def test_tv_scan_digest_is_pinned():
    # sha256 of d(0..200) over the three starts together, then each alone, on
    # each instance; recorded from the scan that stepped by ``mus @ kernel``
    digest = hashlib.sha256()
    for k, a, b, m in SCAN_INSTANCES:
        params = EhrenfestParams(k=k, a=a, b=b, m=m)
        starts = scan_starts(k, m)
        for inits in [starts] + [[x0] for x0 in starts]:
            digest.update(np.array(list(itertools.islice(_tv_scan(params, inits, 10**6), 201))))
    assert digest.hexdigest() == "d934223cb718d78d7d240b99cafb21bf788c21b51c665ac9edb9fc15fadc356c"
    for epsilon, t_hats in ((0.25, [59, 73, 65, 52, 174]), (0.01, [160, 174, 135, 162, 359])):
        assert [tmix_exact(EhrenfestParams(k=k, a=a, b=b, m=m), epsilon).t_hat
                for k, a, b, m in SCAN_INSTANCES] == t_hats


def test_tmix_exact_stops_at_its_step_limit():
    # the bound's 4 * ceil(mixing_bound) + 1 is 163,841 steps here, seconds of scan
    params = EhrenfestParams(k=32, a=0.05, b=0.05, m=1)
    start = time.perf_counter()
    with pytest.raises(StepLimitError, match="through t=1000"):
        tmix_exact(params, 1e-20, step_limit=1000)
    assert time.perf_counter() - start < 1.0
    # a limit at or past the crossing changes nothing
    t_hat = tmix_exact(params).t_hat
    assert tmix_exact(params, step_limit=t_hat).t_hat == t_hat
    with pytest.raises(StepLimitError, match=f"through t={t_hat - 1}"):
        tmix_exact(params, step_limit=t_hat - 1)


def test_tmix_exact_stops_at_its_step_limit_when_the_bound_overflows():
    # mixing_bound is inf here; math.ceil(inf) once ended the call on an OverflowError
    params = EhrenfestParams(k=2, a=1e-310, b=1e-310, m=1)
    assert mixing_bound(params) == math.inf
    with pytest.raises(StepLimitError, match="through t=50"):
        tmix_exact(params, step_limit=50)
