"""Tests for the repeated-game engine: matrices, payoffs, and their cross-checks."""

import hashlib
import itertools
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from gtftlab import games
from gtftlab.games import (
    ALLC,
    ALLD,
    GameConfig,
    RewardVector,
    expected_payoff_closed,
    expected_payoff_series,
    gtft,
    initial_distribution,
    simulate_games,
    transition_matrix,
)
from gtftlab.rng import ensure_rng

DONATION = RewardVector.donation(3, 2)
GENERAL = RewardVector(R=3, S=0, T=5, P=1)
ALL_STRATS = [ALLC, ALLD, gtft(0.0), gtft(0.3), gtft(1.0)]


def resolvent_entries(g: float, g_other: float, cfg: GameConfig) -> np.ndarray:
    """(I - delta M)^(-1) for the GTFT(g) vs GTFT(g_other) round chain, by linear solve.

    Nonsingular whenever delta < 1, since M is row stochastic.
    """
    m = transition_matrix(gtft(g), gtft(g_other))
    return np.linalg.solve(np.eye(4) - cfg.delta * m, np.eye(4))


def paper_resolvent(g: float, gp: float, delta: float) -> np.ndarray:
    """The sixteen closed-form entries of (I - delta M)^(-1) for GTFT vs GTFT.

    Frozen oracle, independent of the linear-solve path. The [4,1] entry
    carries the correction term (1-d)*d*g*gp in its numerator; without it
    the matrix would not satisfy q1 A v = f for the known f.
    """
    d = delta
    w = (1 - g) * (1 - gp)
    d1 = 1 - d * w
    d2 = 1 - d * d * w
    return np.array(
        [
            [1 / (1 - d), 0, 0, 0],
            [
                (-d * d * g * gp + d * d * gp + d * g) / ((1 - d) * d2),
                1 / d2,
                d * (1 - g) / d2,
                0,
            ],
            [
                (-d * d * g * gp + d * d * g + d * gp) / ((1 - d) * d2),
                d * (1 - gp) / d2,
                1 / d2,
                0,
            ],
            [
                (
                    d * d * (g * gp * (d * w + 1) + g * g * (1 - gp) + gp * gp * (1 - g))
                    + (1 - d) * d * g * gp
                )
                / ((1 - d) * d1 * d2),
                d * (d * gp * w + g * (1 - gp)) / (d1 * d2),
                d * (d * g * w + gp * (1 - g)) / (d1 * d2),
                1 / d1,
            ],
        ]
    )


# ------------------------------------------------------------------ reference payoffs
# The closed forms and the series-backed dispatch that computed payoffs before
# the round-chain solve by state reduction. Their terms cancel as delta -> 1.


def reference_payoff_gtft_vs_allc(g, cfg: GameConfig, rv: RewardVector):
    """Closed form for GTFT(g) against an always-cooperator. Independent of g."""
    f = (1 - cfg.s1) * (rv.T - rv.R) + rv.R / (1 - cfg.delta)
    if np.ndim(g):
        return np.full(np.shape(g), f)
    return float(f)


def reference_payoff_gtft_vs_alld(g, cfg: GameConfig, rv: RewardVector):
    """Closed form for GTFT(g) against an always-defector."""
    g = np.asarray(g, dtype=float)
    out = (
        cfg.s1 * rv.S
        + (1 - cfg.s1) * rv.P
        + (g * (rv.S - rv.P) + rv.P) * cfg.delta / (1 - cfg.delta)
    )
    return out if out.ndim else float(out)


def reference_payoff_gtft_vs_gtft(g, g_other, cfg: GameConfig, rv: RewardVector):
    """Closed form for GTFT(g) against GTFT(g_other); broadcasts over arrays."""
    g = np.asarray(g, dtype=float)
    gp = np.asarray(g_other, dtype=float)
    d, s1 = cfg.delta, cfg.s1
    w = (1 - g) * (1 - gp)
    denom2 = 1 - d * d * w
    out = (
        s1 * (rv.T + s1 * (rv.R - rv.T))
        + (1 - s1) * (rv.P + s1 * (rv.S - rv.P))
        - (1 - s1) * (rv.R - rv.T) * (d * d * w + d * (1 - g)) / denom2
        - (1 - s1) * (rv.R - rv.S) * (d * d * w + d * (1 - gp)) / denom2
        + (1 - s1) ** 2
        * (rv.R - rv.S - rv.T + rv.P)
        * (d * w * (1 + d * w))
        / (1 - d * d * w * w)
        + rv.R * d / (1 - d)
    )
    return out if out.ndim else float(out)


def reference_payoff_closed(me, opp, cfg: GameConfig, rv: RewardVector) -> float:
    """Expected row payoff via closed form.

    Closed forms exist for a GTFT row player against each opponent kind.
    For an AllC or AllD row player the chain is evaluated through the
    series route at tolerance 1e-12 instead of a bespoke formula.
    """
    if me.is_gtft:
        if opp.kind == "allc":
            return reference_payoff_gtft_vs_allc(me.g, cfg, rv)
        if opp.kind == "alld":
            return reference_payoff_gtft_vs_alld(me.g, cfg, rv)
        return reference_payoff_gtft_vs_gtft(me.g, opp.g, cfg, rv)
    return expected_payoff_series(me, opp, cfg, rv, tol=1e-12)


def reference_gtft_payoff(g, opp, cfg: GameConfig, rv: RewardVector):
    """``expected_payoff_closed`` for a GTFT row of generosity g, by the reference forms."""
    if opp is ALLC:
        return reference_payoff_gtft_vs_allc(g, cfg, rv)
    if opp is ALLD:
        return reference_payoff_gtft_vs_alld(g, cfg, rv)
    return reference_payoff_gtft_vs_gtft(g, opp, cfg, rv)


# Each payoff re-recorded on the round-chain solve is held to its reference
# form within this share of max(1, |value|), at delta <= 0.99.
REFERENCE_REL_TOL = 1e-14


def assert_near_reference(value, reference) -> None:
    value, reference = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
    bound = REFERENCE_REL_TOL * np.maximum(1.0, np.abs(reference))
    assert np.all(np.abs(value - reference) <= bound), (value, reference)


def mp_payoff(me, opp, cfg: GameConfig, rv: RewardVector):
    """Oracle: q1 (I - delta M)^-1 v by a 50-digit solve.

    q1 and M are built from the exact strategy numbers: 1 - g is taken
    at 50 digits, and M's rows sum to exactly one.
    """
    def rule(s):
        if s.kind == "allc":
            return 1, 1, 1
        if s.kind == "alld":
            return 0, 0, 0
        return mpmath.mpf(cfg.s1), 1, mpmath.mpf(s.g)

    def joint(a, b):
        return [a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b)]

    with mpmath.workdps(50):
        (me1, me_c, me_d), (opp1, opp_c, opp_d) = rule(me), rule(opp)
        rows = [joint(a, b) for a, b in zip((me_c, me_d, me_c, me_d), (opp_c, opp_c, opp_d, opp_d))]
        a = mpmath.eye(4) - mpmath.mpf(cfg.delta) * mpmath.matrix(rows)
        visits = mpmath.lu_solve(a.T, mpmath.matrix(joint(me1, opp1)))
        return mpmath.fsum(mpmath.mpf(v) * o for v, o in zip(rv.as_array(), visits))


# ------------------------------------------------------------------ types


def test_reward_vector_ordering_enforced():
    with pytest.raises(ValueError):
        RewardVector(R=5, S=0, T=3, P=1)  # T < R
    with pytest.raises(ValueError):
        RewardVector(R=3, S=2, T=5, P=1)  # P < S


@pytest.mark.parametrize("field", ["R", "S", "T", "P"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_reward_vector_names_a_non_finite_field(field, value):
    # T = inf once passed the ordering and failed later as "math domain error"
    rewards = dict(R=3.0, S=0.0, T=5.0, P=1.0) | {field: value}
    with pytest.raises(ValueError, match=f"reward {field} must be finite"):
        RewardVector(**rewards)


def test_donation_constructor():
    rv = RewardVector.donation(3, 2)
    assert (rv.R, rv.S, rv.T, rv.P) == (1, -2, 3, 0)
    assert rv.R + rv.P == rv.T + rv.S
    assert rv.donation_params() == (3, 2)
    with pytest.raises(ValueError):
        RewardVector.donation(2, 2)
    with pytest.raises(ValueError):
        GENERAL.donation_params()


def test_donation_rejects_zero_cost():
    # with no cost T equals R, so the generic ordering check would fire instead
    with pytest.raises(ValueError, match="donation game needs benefit > cost > 0"):
        RewardVector.donation(3, 0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        games.Strategy("titfortat")
    with pytest.raises(ValueError):
        gtft(1.5)
    assert gtft(0.3).is_gtft and not ALLC.is_gtft


def test_game_config_validation():
    with pytest.raises(ValueError):
        GameConfig(delta=1.0)
    with pytest.raises(ValueError):
        GameConfig(delta=0.5, s1=1.0)
    with pytest.raises(ValueError):
        GameConfig(delta=0.5, g_hat=1.5)


# ------------------------------------------------------------------ matrices


def test_transition_matrix_gtft_vs_allc_matches_known_rows():
    g = 0.3
    m = transition_matrix(gtft(g), ALLC)
    expected = np.array(
        [[1, 0, 0, 0], [g, 0, 1 - g, 0], [1, 0, 0, 0], [g, 0, 1 - g, 0]]
    )
    np.testing.assert_allclose(m, expected)


def test_transition_matrix_gtft_vs_alld_matches_known_rows():
    g = 0.3
    m = transition_matrix(gtft(g), ALLD)
    expected = np.array(
        [[0, 1, 0, 0], [0, g, 0, 1 - g], [0, 1, 0, 0], [0, g, 0, 1 - g]]
    )
    np.testing.assert_allclose(m, expected)


def test_transition_matrix_gtft_vs_gtft_dd_row():
    m = transition_matrix(gtft(0.1), gtft(0.2))
    np.testing.assert_allclose(m[3], [0.02, 0.08, 0.18, 0.72])
    full = np.array(
        [
            [1, 0, 0, 0],
            [0.1, 0, 0.9, 0],
            [0.2, 0.8, 0, 0],
            [0.02, 0.08, 0.18, 0.72],
        ]
    )
    np.testing.assert_allclose(m, full)


def test_transition_matrix_alld_vs_alld():
    m = transition_matrix(ALLD, ALLD)
    np.testing.assert_allclose(m, np.tile([0, 0, 0, 1.0], (4, 1)))


def test_rows_stochastic_for_all_pairs():
    for me in ALL_STRATS:
        for opp in ALL_STRATS:
            m = transition_matrix(me, opp)
            assert np.all(m >= 0) and np.all(m <= 1)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_initial_distribution_examples():
    cfg = GameConfig(delta=0.9, s1=0.5)
    np.testing.assert_allclose(
        initial_distribution(gtft(0.3), ALLC, cfg), [0.5, 0, 0.5, 0]
    )
    np.testing.assert_allclose(
        initial_distribution(gtft(0.3), gtft(0.7), cfg), [0.25, 0.25, 0.25, 0.25]
    )
    np.testing.assert_allclose(initial_distribution(ALLC, ALLD, cfg), [0, 1, 0, 0])
    assert initial_distribution(gtft(0.1), gtft(0.9), cfg).sum() == pytest.approx(1.0)


# ------------------------------------------------------------------ payoffs


def test_closed_form_spot_values():
    cfg = GameConfig(delta=0.9, s1=0.5)
    assert expected_payoff_closed(gtft(0.3), ALLC, cfg, DONATION) == pytest.approx(11.0)
    assert expected_payoff_closed(gtft(0.0), ALLD, cfg, DONATION) == pytest.approx(-1.0)
    single = GameConfig(delta=0.0, s1=0.5)
    assert expected_payoff_closed(gtft(0.0), gtft(0.0), single, DONATION) == pytest.approx(0.5)


def test_series_single_round_at_delta_zero():
    cfg = GameConfig(delta=0.0, s1=0.25)
    for me in ALL_STRATS:
        for opp in ALL_STRATS:
            q1 = initial_distribution(me, opp, cfg)
            expect = float(q1 @ GENERAL.as_array())
            assert expected_payoff_series(me, opp, cfg, GENERAL) == pytest.approx(expect)


def test_series_matches_closed_on_g_delta_grid():
    # 5x5 grid of (g, delta) against AllC, within 1e-10
    for g in np.linspace(0, 1, 5):
        for delta in np.linspace(0, 0.9, 5):
            cfg = GameConfig(delta=float(delta), s1=0.5)
            closed = expected_payoff_closed(gtft(float(g)), ALLC, cfg, DONATION)
            series = expected_payoff_series(gtft(float(g)), ALLC, cfg, DONATION, tol=1e-12)
            assert series == pytest.approx(closed, abs=1e-10)


def test_gtft_gtft_donation_formula_matches_series():
    cfg = GameConfig(delta=0.9, s1=0.5)
    b, c = 3.0, 2.0
    g = gp = 0.25
    donation_form = (b - c) / (1 - 0.9) + (
        c * 0.9 * (1 - g) - b * 0.9 * (1 - gp) + c - b
    ) / (2 * (1 - 0.81 * (1 - g) * (1 - gp)))
    series = expected_payoff_series(gtft(g), gtft(gp), cfg, DONATION, tol=1e-12)
    assert series == pytest.approx(donation_form, abs=1e-10)
    assert expected_payoff_closed(gtft(g), gtft(gp), cfg, DONATION) == pytest.approx(
        donation_form, abs=1e-12
    )


def closed_series_grid():
    cases = []
    for rv in (DONATION, GENERAL):
        for s1 in (0.0, 0.5, 0.9):
            for delta in (0.0, 0.3, 0.6, 0.9):
                cfg = GameConfig(delta=delta, s1=s1)
                for g in (0.0, 0.25, 0.7, 1.0):
                    for opp in (ALLC, ALLD, gtft(0.1), gtft(0.8)):
                        cases.append((gtft(g), opp, cfg, rv))
    return cases


def test_closed_matches_series_on_large_grid():
    cases = closed_series_grid()
    assert len(cases) >= 100
    for me, opp, cfg, rv in cases:
        closed = expected_payoff_closed(me, opp, cfg, rv)
        series = expected_payoff_series(me, opp, cfg, rv, tol=1e-11)
        assert series == pytest.approx(closed, abs=1e-9), (me, opp, cfg, rv)


def test_non_gtft_row_player_payoffs_are_series_backed():
    # the round-chain solve stands in for the series these rows once ran
    cfg = GameConfig(delta=0.8, s1=0.5)
    for me in (ALLC, ALLD):
        for opp in ALL_STRATS:
            closed = expected_payoff_closed(me, opp, cfg, GENERAL)
            series = expected_payoff_series(me, opp, cfg, GENERAL, tol=1e-12)
            assert closed == pytest.approx(series, abs=1e-10)


def test_series_rejects_bad_tol():
    cfg = GameConfig(delta=0.5)
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            expected_payoff_series(ALLC, ALLC, cfg, DONATION, tol=tol)


# uniform on [0, 1 - 1e-12], or 1 - 10^-e for e uniform on [0, 12]
DELTA = st.one_of(st.floats(0.0, 1.0 - 1e-12), st.floats(0.0, 12.0).map(lambda e: 1.0 - 10.0**-e))
STRATEGY = st.one_of(st.sampled_from([ALLC, ALLD]), st.floats(0.0, 1.0).map(gtft))


@settings(max_examples=300, deadline=None)
@given(
    me=STRATEGY,
    opp=STRATEGY,
    delta=DELTA,
    s1=st.floats(0.0, 1.0, exclude_max=True),
    rv=st.sampled_from([DONATION, GENERAL]),
)
@example(me=gtft(0.0), opp=gtft(0.0), delta=1 - 1e-10, s1=0.0, rv=DONATION)
@example(me=gtft(1e-9), opp=gtft(1e-9), delta=1 - 1e-10, s1=0.5, rv=DONATION)
@example(me=ALLC, opp=gtft(0.1), delta=1 - 1e-12, s1=0.5, rv=GENERAL)
@example(me=gtft(0.2), opp=gtft(0.1), delta=1 - 1e-12, s1=0.9, rv=GENERAL)
def test_payoff_matches_a_50_digit_solve_over_the_whole_domain(me, opp, delta, s1, rv):
    cfg = GameConfig(delta=delta, s1=s1)
    got = expected_payoff_closed(me, opp, cfg, rv)
    with mpmath.workdps(50):
        err = abs(mpmath.mpf(got) - mp_payoff(me, opp, cfg, rv)) * (1 - mpmath.mpf(delta))
        assert err <= 1e-15 * rv.max_abs, (float(err / rv.max_abs), got)


@pytest.mark.parametrize("one_minus_delta", [1.0, 0.1, 1e-6, 1e-8, 1e-10, 1e-12])
def test_tft_against_tft_from_defection_earns_exactly_zero(one_minus_delta):
    # both defect in round one and forever after; the old closed form gave 0.50 at 1e-10
    cfg = GameConfig(delta=1.0 - one_minus_delta, s1=0.0)
    assert expected_payoff_closed(gtft(0.0), gtft(0.0), cfg, DONATION) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    grid=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
    delta=DELTA,
    s1=st.floats(0.0, 1.0, exclude_max=True),
    rv=st.sampled_from([DONATION, GENERAL]),
)
def test_payoff_against_allc_is_bitwise_constant_in_generosity(grid, delta, s1, rv):
    # q1 and M do not depend on g against AllC, which check_local_optimality reads with !=
    cfg = GameConfig(delta=delta, s1=s1)
    values = expected_payoff_closed(np.array(grid), ALLC, cfg, rv)
    scalars = [expected_payoff_closed(gtft(g), ALLC, cfg, rv) for g in grid]
    assert values.tolist() == scalars == [scalars[0]] * len(grid)


def test_payoff_rejects_a_generosity_outside_the_unit_interval():
    cfg = GameConfig(delta=0.9)
    for g in (1.5, -0.5, np.nan, np.array([0.2, 1.5])):
        with pytest.raises(ValueError, match="generosity"):
            expected_payoff_closed(g, ALLC, cfg, DONATION)
        with pytest.raises(ValueError, match="generosity"):
            expected_payoff_closed(ALLD, g, cfg, DONATION)


def test_payoff_broadcasts_like_the_scalar_calls():
    cfg = GameConfig(delta=0.99, s1=0.3)
    g = np.linspace(0.0, 1.0, 7)
    table = expected_payoff_closed(g[:, None], g[None, :], cfg, GENERAL)
    assert table.shape == (7, 7)
    assert table.tolist() == [[expected_payoff_closed(gtft(a), gtft(b), cfg, GENERAL)
                               for b in g] for a in g]


# ------------------------------------------------------------------ resolvent


def test_resolvent_identity_at_delta_zero():
    cfg = GameConfig(delta=0.0)
    np.testing.assert_allclose(resolvent_entries(0.3, 0.7, cfg), np.eye(4), atol=1e-14)


def test_resolvent_rejects_generosity_outside_unit_interval():
    for g, gp in [(-0.1, 0.5), (0.5, 1.5), (-5.0, -5.0), (np.nan, 0.5)]:
        with pytest.raises(ValueError):
            resolvent_entries(g, gp, GameConfig(delta=0.9))


def test_resolvent_first_row_and_spot_entry():
    for g, gp in [(0.0, 0.0), (0.25, 0.25), (0.9, 0.1)]:
        cfg = GameConfig(delta=0.9)
        a = resolvent_entries(g, gp, cfg)
        assert a[0, 0] == pytest.approx(1 / (1 - 0.9), abs=1e-12)
        np.testing.assert_allclose(a[0, 1:], 0.0, atol=1e-14)
    a = resolvent_entries(0.25, 0.25, GameConfig(delta=0.9))
    assert a[1, 1] == pytest.approx(1 / (1 - 0.81 * 0.5625), abs=1e-12)


def test_resolvent_matches_formula_oracle_on_grid():
    for g in (0.0, 0.25, 0.5, 1.0):
        for gp in (0.0, 0.4, 1.0):
            for delta in (0.1, 0.5, 0.9, 0.99):
                cfg = GameConfig(delta=delta)
                solved = resolvent_entries(g, gp, cfg)
                np.testing.assert_allclose(
                    solved, paper_resolvent(g, gp, delta), atol=1e-10
                )


def test_closed_form_matches_resolvent_route_on_random_configs():
    # randomized sweep: q1 (I - delta M)^-1 v must equal the closed form
    rng = np.random.default_rng(99)
    for _ in range(300):
        delta = float(rng.uniform(0, 0.98))
        s1 = float(rng.uniform(0, 0.99))
        g, gp = (float(v) for v in rng.uniform(0, 1, size=2))
        vals = np.sort(rng.uniform(-5, 5, size=4))
        rv = RewardVector(S=vals[0], P=vals[1], R=vals[2], T=vals[3])
        cfg = GameConfig(delta=delta, s1=s1)
        q1 = initial_distribution(gtft(g), gtft(gp), cfg)
        via_resolvent = float(q1 @ resolvent_entries(g, gp, cfg) @ rv.as_array())
        closed = expected_payoff_closed(gtft(g), gtft(gp), cfg, rv)
        assert closed == pytest.approx(via_resolvent, abs=1e-8 * max(1, abs(closed)))


def test_resolvent_reproduces_gtft_gtft_payoff():
    cfg = GameConfig(delta=0.9, s1=0.3)
    g, gp = 0.2, 0.6
    q1 = initial_distribution(gtft(g), gtft(gp), cfg)
    via_resolvent = float(q1 @ resolvent_entries(g, gp, cfg) @ GENERAL.as_array())
    assert via_resolvent == pytest.approx(
        expected_payoff_closed(gtft(g), gtft(gp), cfg, GENERAL), abs=1e-10
    )


# ------------------------------------------------------------------ simulation


def reference_simulate_games(me, opp, cfg, rv, n_games, rng):
    """Lockstep oracle for ``simulate_games``: the same law, other draws.

    All games advance together, one round per pass, until each has hit its
    geometric stopping time. Each pass draws both actions and then whether
    to go on, over the live games in index order.
    """
    rng = ensure_rng(rng)
    v = rv.as_array()
    v_col = v[games._SWAP]
    pay_me = np.zeros(n_games)
    pay_opp = np.zeros(n_games)
    rounds = np.zeros(n_games, dtype=np.int64)
    p_me, me_c, me_d = games._coop(me, cfg.s1)
    p_opp, opp_c, opp_d = games._coop(opp, cfg.s1)
    live = np.arange(n_games)
    while live.size:
        mc = rng.random(live.size) < p_me
        tc = rng.random(live.size) < p_opp
        state = 2 * (~mc).astype(np.int64) + (~tc).astype(np.int64)
        pay_me[live] += v[state]
        pay_opp[live] += v_col[state]
        rounds[live] += 1
        more = rng.random(live.size) < cfg.delta
        live = live[more]
        p_me = np.where(tc[more], me_c, me_d)
        p_opp = np.where(mc[more], opp_c, opp_d)
    return pay_me, pay_opp, rounds


def reference_length_first_games(me, opp, cfg, rv, n_games, rng):
    """Length-first oracle for ``simulate_games``: plays every round of every game.

    Every game's round count R ~ Geometric(1 - delta) is drawn up front, in
    game order. The games are then ordered by R, longest first and ties in
    game order, so the games still playing round r are a prefix of that
    order. Each round draws the row player's actions over the prefix, then
    the column player's, and adds both payoffs into prefix slices; one
    scatter at the end puts the payoffs back in game order.

    Raises ValueError for a game too long for R to share an int64 sort key
    with the game index (about 2**63 / n_games rounds).
    """
    if not (isinstance(n_games, (int, np.integer)) and n_games >= 0):
        raise ValueError(f"n_games must be a non-negative integer, got {n_games!r}")
    rng = ensure_rng(rng)
    v = rv.as_array()
    v_col = v[games._SWAP]
    rounds = rng.geometric(1.0 - cfg.delta, n_games)
    # -R in the high bits and the game index in the low ones: the keys are
    # unique, so the order does not depend on the sort algorithm numpy picks
    bits = int(max(n_games - 1, 1)).bit_length()
    if n_games and rounds.max() >= 1 << (63 - bits):
        raise ValueError(f"a game of {rounds.max()} rounds is too long to simulate")
    key = np.arange(n_games) - (rounds << bits)
    key.sort()
    pay_me = np.zeros(n_games)
    pay_opp = np.zeros(n_games)
    me_rule, opp_rule = games._coop(me, cfg.s1), games._coop(opp, cfg.s1)
    p_me, p_opp = me_rule[0], opp_rule[0]
    me_next, opp_next = map(np.array, games._answers(me_rule, opp_rule))
    live, r = n_games, 1
    while live:
        state = 2 * (rng.random(live) >= p_me)
        state += rng.random(live) >= p_opp
        pay_me[:live] += v[state]
        pay_opp[:live] += v_col[state]
        r += 1
        # the games with R >= r are the keys below (1 - r) << bits
        live = int(np.searchsorted(key, (1 - r) << bits))
        p_me = me_next[state[:live]]
        p_opp = opp_next[state[:live]]
    order = key & ((1 << bits) - 1)
    out_me = np.empty(n_games)
    out_opp = np.empty(n_games)
    out_me[order] = pay_me
    out_opp[order] = pay_opp
    return out_me, out_opp, rounds


def pull(sample, expected) -> float:
    """|mean - expected| in standard errors of the mean; exact when the sample is constant."""
    se = sample.std(ddof=1) / np.sqrt(sample.size)
    if se == 0:
        return 0.0 if sample.mean() == pytest.approx(expected, abs=1e-12) else np.inf
    return abs(sample.mean() - expected) / se


def two_sample_pull(a, b) -> float:
    """|mean(a) - mean(b)| in standard errors of the difference."""
    se = np.hypot(a.std(ddof=1) / np.sqrt(a.size), b.std(ddof=1) / np.sqrt(b.size))
    if se == 0:
        return 0.0 if a.mean() == b.mean() else np.inf
    return abs(a.mean() - b.mean()) / se


def test_simulation_delta_zero_is_one_round():
    cfg = GameConfig(delta=0.0, s1=0.5)
    _, _, rounds = simulate_games(gtft(0.5), ALLC, cfg, DONATION, 1000, 1)
    assert np.all(rounds == 1)


def test_simulation_alld_vs_alld_zero_payoff():
    cfg = GameConfig(delta=0.9, s1=0.5)
    pay_me, pay_opp, _ = simulate_games(ALLD, ALLD, cfg, DONATION, 1000, 2)
    assert np.all(pay_me == 0) and np.all(pay_opp == 0)


def test_simulate_games_deterministic_given_seed():
    cfg = GameConfig(delta=0.9, s1=0.5)
    first = simulate_games(gtft(0.2), gtft(0.7), cfg, GENERAL, 1, 1234)
    second = simulate_games(gtft(0.2), gtft(0.7), cfg, GENERAL, 1, 1234)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_simulate_games_rejects_bad_game_counts():
    cfg = GameConfig(delta=0.9, s1=0.5)
    for bad in (-1, 2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="n_games"):
            simulate_games(ALLC, ALLD, cfg, DONATION, bad, 1)
    pay_me, _, _ = simulate_games(ALLC, ALLD, cfg, DONATION, np.int64(3), 1)
    assert pay_me.shape == (3,)


def test_long_games_need_no_array_sized_by_the_longest():
    cfg = GameConfig(delta=0.999, s1=0.5)
    rng = np.random.default_rng(8)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        _, _, rounds = simulate_games(gtft(0.3), gtft(0.6), cfg, GENERAL, 3, rng)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds.max() >= 1000
    # an int64 table over 0..max(rounds) alone would take 8 * max(rounds) bytes
    assert peak < 8 * rounds.max()
    assert elapsed < 1.0


def test_games_too_long_to_play_are_sampled_exactly():
    # at delta = 1 - 2**-53 games last about 9e15 rounds, which could never be played
    cfg = GameConfig(delta=1 - 2**-53, s1=0.5)
    t0 = time.perf_counter()
    pay_me, pay_opp, rounds = simulate_games(ALLC, ALLD, cfg, DONATION, 4096, 1)
    assert time.perf_counter() - t0 < 1.0
    assert rounds.max() > 2**53
    np.testing.assert_array_equal(pay_me, rounds * DONATION.S)
    np.testing.assert_array_equal(pay_opp, rounds * DONATION.T)
    # four counts and three sums, each rounded once, past 2**53
    slack = 1 + 8 * np.finfo(float).eps
    for rv in (DONATION, GENERAL):
        v = rv.as_array()
        for i, (me, opp) in enumerate(itertools.product(ALL_STRATS, repeat=2)):
            pay_me, pay_opp, rounds = simulate_games(me, opp, cfg, rv, 4096, [i, 53])
            low, high = v.min() * rounds, v.max() * rounds
            for pay in (pay_me, pay_opp):
                assert np.all(np.isfinite(pay))
                assert np.all(pay >= np.where(low < 0, slack, 1 / slack) * low), (me, opp)
                assert np.all(pay <= slack * high), (me, opp)


def test_rounds_are_geometric_mean():
    cfg = GameConfig(delta=0.8, s1=0.5)
    _, _, rounds = simulate_games(ALLC, ALLC, cfg, DONATION, 200_000, 3)
    # mean 1/(1-delta) = 5
    se = rounds.std(ddof=1) / np.sqrt(rounds.size)
    assert abs(rounds.mean() - 5.0) < 4 * se


def test_monte_carlo_matches_closed_forms():
    cfg = GameConfig(delta=0.9, s1=0.5)
    for opp in (ALLC, ALLD, gtft(0.4)):
        pay_me, _, _ = simulate_games(gtft(0.2), opp, cfg, DONATION, 200_000, 4)
        closed = expected_payoff_closed(gtft(0.2), opp, cfg, DONATION)
        se = pay_me.std(ddof=1) / np.sqrt(pay_me.size)
        assert abs(pay_me.mean() - closed) < 3 * se, opp


def test_column_payoffs_match_swapped_closed_form():
    cfg = GameConfig(delta=0.9, s1=0.5)
    _, pay_opp, _ = simulate_games(ALLD, gtft(0.3), cfg, DONATION, 200_000, 5)
    closed = expected_payoff_closed(gtft(0.3), ALLD, cfg, DONATION)
    se = pay_opp.std(ddof=1) / np.sqrt(pay_opp.size)
    assert abs(pay_opp.mean() - closed) < 3 * se


@pytest.mark.parametrize("delta", [0.0, 0.6, 0.9, 0.99])
def test_simulation_law_matches_the_lockstep_oracle_and_closed_forms(delta):
    cfg = GameConfig(delta=delta, s1=0.5)
    me = gtft(0.2)
    for i, opp in enumerate((ALLC, ALLD, gtft(0.15))):
        new = simulate_games(me, opp, cfg, GENERAL, 50_000, [i, 1])
        old = reference_simulate_games(me, opp, cfg, GENERAL, 50_000, [i, 2])
        played = reference_length_first_games(me, opp, cfg, GENERAL, 50_000, [i, 3])
        expected = (
            expected_payoff_closed(me, opp, cfg, GENERAL),
            expected_payoff_closed(opp, me, cfg, GENERAL),
            1 / (1 - delta),
        )
        for a, b, c, want in zip(new, old, played, expected):
            assert pull(a, want) < 4, (opp, want)
            assert pull(b, want) < 4, (opp, want)
            assert pull(c, want) < 4, (opp, want)
            assert two_sample_pull(a, b) < 4, (opp, want)
            assert two_sample_pull(a, c) < 4, (opp, want)


@pytest.mark.parametrize("me,opp", [(gtft(0.3), gtft(0.6)), (gtft(0.3), ALLD), (ALLC, gtft(0.6))])
def test_each_game_keeps_its_own_round_count(me, opp):
    # a game's payoff given R = r is the sum over its first r rounds, so a
    # scatter that paired payoffs with the wrong games would show here
    cfg = GameConfig(delta=0.6, s1=0.5)
    pay_me, _, rounds = simulate_games(me, opp, cfg, GENERAL, 200_000, 11)
    v = GENERAL.as_array()
    m = transition_matrix(me, opp)
    q = initial_distribution(me, opp, cfg)
    want = 0.0
    for r in range(1, 9):
        want += q @ v
        q = q @ m
        assert pull(pay_me[rounds == r], want) < 5, r


def round_chain_count_law(me, opp, s1: float, max_rounds: int) -> list[dict]:
    """Exact law of (N_CC, N_CD, N_DC, N_DD) given R = r, for r = 1..max_rounds.

    A DP over the round chain's joint states: each round both sides act at
    once, each answering the other's action in the round before. The
    rules are written out here from the strategy kinds, so the law shares
    no code with ``simulate_games``. Entry r - 1 maps count tuples to
    their probability.
    """
    def rule(s):
        if s.kind == "allc":
            return 1.0, 1.0, 1.0
        if s.kind == "alld":
            return 0.0, 0.0, 0.0
        return s1, 1.0, s.g

    def joint(p_row, p_col):
        law = {}
        for x, px in (("C", p_row), ("D", 1 - p_row)):
            for y, py in (("C", p_col), ("D", 1 - p_col)):
                if px * py > 0:
                    law[x + y] = px * py
        return law

    def grown(counts, state):
        at = ("CC", "CD", "DC", "DD").index(state)
        return counts[:at] + (counts[at] + 1,) + counts[at + 1:]

    (row1, row_c, row_d), (col1, col_c, col_d) = rule(me), rule(opp)
    paths = {(state, grown((0, 0, 0, 0), state)): p for state, p in joint(row1, col1).items()}
    laws = []
    for r in range(1, max_rounds + 1):
        if r > 1:
            step = {}
            for (last, counts), p in paths.items():
                law = joint(row_c if last[1] == "C" else row_d, col_c if last[0] == "C" else col_d)
                for state, q in law.items():
                    key = (state, grown(counts, state))
                    step[key] = step.get(key, 0.0) + p * q
            paths = step
        given_r = {}
        for (_, counts), p in paths.items():
            given_r[counts] = given_r.get(counts, 0.0) + p
        laws.append(given_r)
    return laws


# counts up to 9 are the digits of either side's payoff: DC, CC, DD for the
# row player and CD, CC, DD for the column player
DIGIT_REWARDS = RewardVector(R=10, S=0, T=100, P=1)
# fixed before the first run: the three runs make 336 tests of two or more
# cells, so under the exact law one of them fails with probability 0.3%
CHI2_P_MIN = 1e-5


def chi2_pvalue(observed: dict, law: dict) -> float:
    """Pearson chi-square p-value; cells expected below 5 are pooled."""
    n = sum(observed.values())
    cells = sorted(law, key=law.get)
    expected = np.array([n * law[c] for c in cells])
    seen = np.array([observed.get(c, 0) for c in cells], dtype=float)
    small = int(np.searchsorted(expected, 5.0))
    if small:
        # and as many more cells as the pool needs to expect 5 itself
        small = min(max(small, int(np.searchsorted(np.cumsum(expected), 5.0)) + 1), len(cells))
        expected = np.concatenate([[expected[:small].sum()], expected[small:]])
        seen = np.concatenate([[seen[:small].sum()], seen[small:]])
    if expected.size < 2:
        return 1.0
    return float(chi2.sf(((seen - expected) ** 2 / expected).sum(), expected.size - 1))


@pytest.mark.parametrize("s1", [0.0, 0.5, 0.9])
def test_state_counts_have_the_exact_law_of_the_round_chain(s1):
    cfg = GameConfig(delta=0.5, s1=s1)
    for i, (me, opp) in enumerate(itertools.product(ALL_STRATS, repeat=2)):
        laws = round_chain_count_law(me, opp, s1, 7)
        pay_me, pay_opp, rounds = simulate_games(me, opp, cfg, DIGIT_REWARDS, 40_000, [i, 7])
        short = rounds <= 7
        row, col, r = pay_me[short].astype(int), pay_opp[short].astype(int), rounds[short]
        cc, dd = row // 10 % 10, row % 10
        np.testing.assert_array_equal(col // 10 % 10, cc)
        np.testing.assert_array_equal(col % 10, dd)
        counts = np.stack([cc, col // 100, row // 100, dd])
        np.testing.assert_array_equal(counts.sum(axis=0), r)
        for length, law in enumerate(laws, start=1):
            at = counts[:, r == length]
            cells, seen = np.unique(at, axis=1, return_counts=True)
            observed = dict(zip(map(tuple, cells.T.tolist()), seen.tolist()))
            assert set(observed) <= set(law), (me, opp, length)
            assert chi2_pvalue(observed, law) >= CHI2_P_MIN, (me, opp, length)


# ------------------------------------------------------------------ pinned outputs


def digest(parts) -> str:
    """sha256 over the dtype, shape and bytes of each array or scalar in ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        a = np.asarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PIN_CONFIGS = [
    GameConfig(delta=0.0, s1=0.5),
    GameConfig(delta=0.3, s1=0.0),
    GameConfig(delta=0.9, s1=0.5),
    GameConfig(delta=0.99, s1=0.9),
]


def test_round_chain_outputs_are_pinned():
    # recorded before the strategies' round rules were merged into one table,
    # when the reference forms computed the closed parts
    parts = []
    for me, opp in itertools.product(ALL_STRATS + [gtft(0.1), gtft(0.65)], repeat=2):
        m = transition_matrix(me, opp)
        assert m.flags.c_contiguous  # q @ m sums in memory order
        parts.append(m)
        for cfg in PIN_CONFIGS:
            parts.append(initial_distribution(me, opp, cfg))
            for rv in (DONATION, GENERAL):
                parts.append(expected_payoff_series(me, opp, cfg, rv))
                parts.append(reference_payoff_closed(me, opp, cfg, rv))
    assert digest(parts) == "4315dc93da7278c554d236a1a1f3b2206232742f7c26699bbe6cca47bf97670e"


def test_round_chain_payoffs_are_pinned():
    # recorded when every pairing's payoff came from the state-reduction solve
    parts = [
        expected_payoff_closed(me, opp, cfg, rv)
        for me, opp in itertools.product(ALL_STRATS + [gtft(0.1), gtft(0.65)], repeat=2)
        for cfg in PIN_CONFIGS
        for rv in (DONATION, GENERAL)
    ]
    assert digest(parts) == "41d11b1568f452326d48109c947d6ff6ae5e3f020909cb5ae01655eeca500c1b"


def simulation_digest(simulate) -> str:
    """Digest of payoffs, rounds and the generator's next draw over the pinned configs."""
    parts = []
    for cfg in (PIN_CONFIGS[0], PIN_CONFIGS[2]):
        for i, (me, opp) in enumerate(itertools.product(ALL_STRATS, repeat=2)):
            for n_games in (0, 1, 7, 1000):
                rng = np.random.default_rng([i, n_games])
                parts += simulate(me, opp, cfg, GENERAL, n_games, rng)
                parts.append(rng.random())
    return digest(parts)


def test_simulate_games_outputs_are_pinned():
    # recorded on the lockstep loop, before round one was played as the first
    # pass of that loop; the loop is now the test-only oracle
    assert simulation_digest(reference_simulate_games) == (
        "488652e12e85abe2eaf1da4b9609e469c6b7d172a8faa6e0263f75bb71c791ea"
    )


def test_length_first_simulate_games_outputs_are_pinned():
    # recorded when simulate_games began drawing every game's round count
    # first; that loop is now the test-only oracle
    assert simulation_digest(reference_length_first_games) == (
        "8a408b0b67c0b5b8168fc5249219d62b219b6b82063d6236a971e91c4906e897"
    )


def test_two_chain_simulate_games_outputs_are_pinned():
    # recorded when simulate_games began sampling each game's state counts
    # from its two alternating chains
    assert simulation_digest(simulate_games) == (
        "a419ecc14e66e0f114619255672d74c09f677a89c406d71b2e371836717c0604"
    )
