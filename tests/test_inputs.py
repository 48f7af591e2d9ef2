"""Each input kind of the package follows one rule, with one message.

A count is an int or a numpy integer at or above its least value; a
float, a bool or a string is refused with a ValueError that names the
argument. An epsilon lies strictly between 0 and 1; NaN does not. A
count vector is a composition of m into k parts, a label vector holds m
whole numbers in 1..k, a population mix has alpha, beta >= 0 with
alpha + beta < 1, a defector share lies in (0, 1), and a generosity in
[0, 1]. A string or None in place of a real number fails that number's
rule, never with a TypeError. The CLI reports each refusal with exit
code 2.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

import gtftlab
from gtftlab.cli import main
from gtftlab.ehrenfest import (
    EhrenfestParams,
    MixingEstimate,
    MultinomialDist,
    absorption_times,
    coupled_run,
    corner_labels,
    estimate_mixing,
    expected_absorption_closed,
    geometric_weights,
    solve_stationary_exact,
    state_array,
    stationary_closed,
    tmix_exact,
    transition_row,
    tv_distance_exact,
)
from gtftlab.games import (ALLD, GameConfig, RewardVector, Strategy, expected_payoff_closed,
                           expected_payoff_series, gtft, simulate_games)
from gtftlab.meanfield import (avg_stationary_generosity, check_local_optimality, gap_bound,
                               generosity_report, granular_expected_payoff, mean_field_payoff,
                               phi_ratio, stationary_weights, weight_ratio)
from gtftlab.population import (
    PopulationConfig,
    PopulationState,
    generosity_grid,
    init_population,
    run,
    sample_one_step_counts,
    to_ehrenfest,
)

PARAMS = EhrenfestParams(k=3, a=0.4, b=0.2, m=2)
POPULATION = PopulationConfig(n=10, alpha=0.1, beta=0.1, k=3, g_hat=0.5)
GAME = GameConfig(delta=0.5)
DONATION = RewardVector.donation(3.0, 2.0)

# (callable, count argument, least value, the call with that argument set, a valid value)
COUNT_ARGUMENTS = [
    ("MixingEstimate", "t_hat", 0,
     lambda v: MixingEstimate(t_hat=v, method="exact-tv", epsilon=0.25, trials=0), 3),
    ("EhrenfestParams", "k", 2, lambda v: EhrenfestParams(k=v, a=0.4, b=0.2, m=3), 3),
    ("EhrenfestParams", "m", 1, lambda v: EhrenfestParams(k=3, a=0.4, b=0.2, m=v), 3),
    ("MultinomialDist", "m", 0, lambda v: MultinomialDist(m=v, p=(0.5, 0.5)), 2),
    ("geometric_weights", "k", 1, lambda v: geometric_weights(2.0, v), 3),
    ("state_array", "k", 1, lambda v: state_array(v, 2), 3),
    ("state_array", "m", 0, lambda v: state_array(2, v), 3),
    ("coupled_run", "step_limit", 0,
     lambda v: coupled_run(PARAMS, *corner_labels(PARAMS), 1, step_limit=v), 10**6),
    ("estimate_mixing", "trials", 1, lambda v: estimate_mixing(PARAMS, 0.25, v, 1), 5),
    ("estimate_mixing", "step_limit", 0,
     lambda v: estimate_mixing(PARAMS, 0.25, 5, 1, step_limit=v), 10**6),
    ("absorption_times", "k", 1, lambda v: absorption_times(v, 0.4, 0.2, 5, 1), 2),
    ("absorption_times", "n_runs", 0, lambda v: absorption_times(2, 0.4, 0.2, v, 1), 5),
    ("absorption_times", "step_limit", 0,
     lambda v: absorption_times(2, 0.4, 0.2, 5, 1, step_limit=v), 10**6),
    ("expected_absorption_closed", "k", 1, lambda v: expected_absorption_closed(v, 0.4, 0.2), 4),
    ("tv_distance_exact", "t", 0, lambda v: tv_distance_exact(PARAMS, v, (2, 0, 0)), 3),
    ("tmix_exact", "step_limit", 0, lambda v: tmix_exact(PARAMS, step_limit=v), 10**6),
    ("simulate_games", "n_games", 0,
     lambda v: simulate_games(gtft(0.2), ALLD, GAME, DONATION, v, 1), 3),
    ("gap_bound", "k", 2, lambda v: gap_bound(v, 0.1), 3),
    ("check_local_optimality", "grid_size", 2,
     lambda v: check_local_optimality(GAME, DONATION, grid_size=v), 3),
    ("generosity_grid", "k", 2, lambda v: generosity_grid(v, 0.5), 3),
    ("PopulationConfig", "n", 2,
     lambda v: PopulationConfig(n=v, alpha=0.0, beta=0.0, k=3, g_hat=0.5), 4),
    ("run", "steps", 0, lambda v: list(run(POPULATION, v, 1, 1)), 5),
    ("run", "record_every", 1, lambda v: list(run(POPULATION, 5, v, 1)), 2),
    ("sample_one_step_counts", "n_samples", 0,
     lambda v: sample_one_step_counts(POPULATION, (3, 3, 2), v, 1), 5),
]


@pytest.mark.parametrize("name, least, call, good",
                         [row[1:] for row in COUNT_ARGUMENTS],
                         ids=[f"{row[0]}-{row[1]}" for row in COUNT_ARGUMENTS])
def test_every_count_argument_takes_only_integers(name, least, call, good):
    # True once passed for a count of 1, and 2.5 ended on a TypeError or ran a step
    for bad in (2.5, True, least - 1, "3", None):
        with pytest.raises(ValueError, match=f"need an integer {name} >= {least}, got"):
            call(bad)
    call(np.int64(good))


# (callable, the call with epsilon set)
EPSILON_ARGUMENTS = [
    ("MixingEstimate",
     lambda v: MixingEstimate(t_hat=3, method="coupling-tail", epsilon=v, trials=5)),
    ("estimate_mixing", lambda v: estimate_mixing(PARAMS, v, 5, 1)),
    ("tmix_exact", lambda v: tmix_exact(PARAMS, epsilon=v)),
]


@pytest.mark.parametrize("call", [row[1] for row in EPSILON_ARGUMENTS],
                         ids=[row[0] for row in EPSILON_ARGUMENTS])
@pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, -0.1, "0.1", None])
def test_every_epsilon_lies_strictly_between_0_and_1(call, bad):
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got"):
        call(bad)
    call(0.25)


def cli_call(argv):
    """main(argv) as a call: exit 2 raises ValueError with the printed error, and exit 0 returns."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        raise ValueError(err.getvalue())
    assert code == 0


# (callable, the call with the count vector set, m): k = 3 throughout
STATE_ARGUMENTS = [
    ("transition_row", lambda v: transition_row(v, PARAMS), PARAMS.m),
    ("tv_distance_exact", lambda v: tv_distance_exact(PARAMS, 2, v), PARAMS.m),
    ("init_population", lambda v: init_population(POPULATION, v), POPULATION.m),
    ("run", lambda v: list(run(POPULATION, 5, 1, 1, v)), POPULATION.m),
    ("sample_one_step_counts", lambda v: sample_one_step_counts(POPULATION, v, 5, 1),
     POPULATION.m),
    ("log_pmf", lambda v: stationary_closed(PARAMS).log_pmf([v]), PARAMS.m),
    ("pmf", lambda v: stationary_closed(PARAMS).pmf(v), PARAMS.m),
]


@pytest.mark.parametrize("name, call, m", STATE_ARGUMENTS,
                         ids=[row[0] for row in STATE_ARGUMENTS])
def test_every_count_vector_is_a_composition(name, call, m):
    # a string ended on a TypeError everywhere but log_pmf, and log_pmf had a message of its own
    bad = {"string": (str(m), "0", "0"), "fraction": (m - 0.5, 0.5, 0), "negative": (m + 1, -1, 0),
           "length": (m, 0), "sum": (m, 1, 0), "nan": (math.nan, m, 0.0)}
    if name not in ("init_population", "run"):  # where None asks for a random start
        bad["none"] = None  # sample_one_step_counts once drew a random z0 for it
    if name != "pmf":  # pmf's memo reads a bool as a count: a type scan would cost it a fifth
        bad["bool"] = (True, m - 1, 0)
    for x in bad.values():
        with pytest.raises(ValueError, match=f"is not a composition of {m} into 3 parts"):
            call(x)
    call((m, 0, 0))
    call((float(m), 0.0, 0.0))
    call(tuple(np.array([m, 0, 0])))


# (callable, the call with the label vector set, k, m)
LABEL_ARGUMENTS = [
    ("coupled_run-x0", lambda v: coupled_run(PARAMS, v, [1] * PARAMS.m, 1), PARAMS.k, PARAMS.m),
    ("coupled_run-y0", lambda v: coupled_run(PARAMS, [1] * PARAMS.m, v, 1), PARAMS.k, PARAMS.m),
    ("PopulationState", lambda v: PopulationState(POPULATION, v), POPULATION.k, POPULATION.m),
]


@pytest.mark.parametrize("call, k, m", [row[1:] for row in LABEL_ARGUMENTS],
                         ids=[row[0] for row in LABEL_ARGUMENTS])
def test_every_label_vector_holds_m_whole_numbers_in_1_to_k(call, k, m):
    # PopulationState once ended on a TypeError for a fraction and had a message of its own
    rest = [1] * (m - 1)
    for bad in ([1.5] + rest, [0] + rest, [k + 1] + rest, rest, [True] + rest, ["1"] + rest,
                [math.nan] + rest, [[1] * m], np.array([0] * m), None):
        with pytest.raises(ValueError, match=f"labels must be a vector of m={m} whole numbers "
                                             f"in 1..k={k}"):
            call(bad)
    call([k] + rest)
    call(np.array([1.0] * m))


def compare_argv(alpha, beta):
    return ["compare", "--b", "3", "--c", "2", "--delta", "0.9", "--g-hat", "0.25", "--k", "3",
            "--m", "20", f"--populations={alpha!r},{beta!r}", "--out", "compare.csv"]


# a string or None ended on a TypeError; the CLI parses its floats before any rule
NOT_NUMBERS = ("0.1", None)
MIXES = ((-0.1, 0.3), (0.3, -0.1), (0.5, 0.5), (0.7, 0.6), (math.nan, 0.25), (0.25, math.nan))
MIXES_AND_NOT_NUMBERS = MIXES + tuple((v, 0.25) for v in NOT_NUMBERS) + tuple(
    (0.25, v) for v in NOT_NUMBERS)

# (callable, the call with the mix (alpha, beta) set, the bad mixes); (0.25, 0.25) is valid for each
MIX_ARGUMENTS = [
    ("PopulationConfig", lambda a, b: PopulationConfig(n=40, alpha=a, beta=b, k=3, g_hat=0.5),
     MIXES_AND_NOT_NUMBERS),
    ("phi_ratio", phi_ratio, MIXES_AND_NOT_NUMBERS),
    ("granular_expected_payoff",
     lambda a, b: granular_expected_payoff(a, b, 40, 3, GAME, DONATION), MIXES_AND_NOT_NUMBERS),
    ("cli-compare", lambda a, b: cli_call(compare_argv(a, b)), MIXES),
]


@pytest.mark.parametrize("call, bad_mixes", [row[1:] for row in MIX_ARGUMENTS],
                         ids=[row[0] for row in MIX_ARGUMENTS])
def test_every_population_mix_leaves_a_gtft_share(call, bad_mixes, tmp_path, monkeypatch):
    # granular_expected_payoff built its tables for alpha = -0.1; compare divided by 1 - alpha - beta
    monkeypatch.chdir(tmp_path)
    for alpha, beta in bad_mixes:
        with pytest.raises(ValueError, match=r"need alpha, beta >= 0 with alpha \+ beta < 1, got"):
            call(alpha, beta)
    call(0.25, 0.25)


# (case, n): (1 - alpha - beta) * n must be a whole GTFT count; at alpha = beta = 0.25
GTFT_COUNTS = [("infinite", math.inf), ("nan", math.nan), ("fractional", 41), ("zero", 0)]


@pytest.mark.parametrize("n", [row[1] for row in GTFT_COUNTS], ids=[row[0] for row in GTFT_COUNTS])
def test_granular_payoff_needs_a_whole_gtft_count(n):
    # n = inf ended on an OverflowError from round, and n = nan on round's own ValueError
    with pytest.raises(ValueError, match=r"\(1 - alpha - beta\) \* n = .* is not a positive integer"):
        granular_expected_payoff(0.25, 0.25, n, 3, GAME, DONATION)
    granular_expected_payoff(0.25, 0.25, 40, 3, GAME, DONATION)


def stationary_argv(beta):
    return ["stationary", f"--beta={beta!r}", "--k", "3"]


# (callable, the call with the defector share set, the bad shares that reach the share rule)
SHARES = (0.0, 1.0, -0.1, 1.5, math.nan)
SHARE_ARGUMENTS = [
    ("weight_ratio", weight_ratio, SHARES + NOT_NUMBERS),
    ("stationary_weights", lambda v: stationary_weights(v, 3, 4), SHARES + NOT_NUMBERS),
    ("avg_stationary_generosity", lambda v: avg_stationary_generosity(3, v, 0.5),
     SHARES + NOT_NUMBERS),
    ("cli-stationary", lambda v: cli_call(stationary_argv(v)), SHARES),
    # the mix rule comes first here, so only beta = 0 reaches the share rule
    ("phi_ratio", lambda v: phi_ratio(0.25, v), (0.0,)),
    ("granular_expected_payoff",
     lambda v: granular_expected_payoff(0.25, v, 40, 3, GAME, DONATION), (0.0,)),
    ("generosity_report", lambda v: generosity_report(3, 0.25, v, 40, GAME, DONATION), (0.0,)),
    ("to_ehrenfest",
     lambda v: to_ehrenfest(PopulationConfig(n=40, alpha=0.25, beta=v, k=3, g_hat=0.5)), (0.0,)),
]


@pytest.mark.parametrize("call, bad_shares", [row[1:] for row in SHARE_ARGUMENTS],
                         ids=[row[0] for row in SHARE_ARGUMENTS])
def test_every_defector_share_lies_strictly_between_0_and_1(call, bad_shares):
    # weight_ratio(0) ended on a ZeroDivisionError; stationary_weights(1, 3, 4) returned (1, 0, 0)
    for beta in bad_shares:
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\), got"):
            call(beta)
    call(0.25)


# (callable, the name in its message, the call with the generosity set)
GENEROSITY_ARGUMENTS = [
    ("GameConfig", "g_hat", lambda v: GameConfig(delta=0.5, g_hat=v)),
    ("generosity_grid", "g_hat", lambda v: generosity_grid(3, v)),
    ("Strategy", "generosity", lambda v: Strategy("gtft", v)),
    ("expected_payoff_closed", "generosity",
     lambda v: expected_payoff_closed(np.array([0.5, v]), ALLD, GAME, DONATION)),
]


@pytest.mark.parametrize("label, call", [row[1:] for row in GENEROSITY_ARGUMENTS],
                         ids=[row[0] for row in GENEROSITY_ARGUMENTS])
def test_every_generosity_lies_in_0_to_1(label, call):
    for g in (-0.1, 1.5, math.nan, *NOT_NUMBERS):
        with pytest.raises(ValueError, match=rf"{label} must be in \[0, 1\], got"):
            call(g)
    call(0.0)
    call(1.0)


# (callable, the message its rule gives, the call with one real argument set, a valid value)
REAL_ARGUMENTS = [
    ("EhrenfestParams-a", r"need a, b > 0 with a \+ b <= 1",
     lambda v: EhrenfestParams(k=2, a=v, b=0.2, m=3), 0.3),
    ("absorption_times-b", r"need a, b > 0 with a \+ b <= 1",
     lambda v: absorption_times(2, 0.4, v, 5, 1), 0.2),
    ("GameConfig-delta", r"delta must be in \[0, 1\)", lambda v: GameConfig(delta=v), 0.9),
    ("GameConfig-s1", r"s1 must be in \[0, 1\)", lambda v: GameConfig(delta=0.9, s1=v), 0.5),
    ("RewardVector-R", "reward R must be finite", lambda v: RewardVector(v, -2.0, 3.0, 0.0), 1.0),
    ("RewardVector.donation-benefit", "donation game needs benefit > cost > 0",
     lambda v: RewardVector.donation(v, 2.0), 3.0),
    ("MultinomialDist-p", "cell probabilities must be finite",
     lambda v: MultinomialDist(m=2, p=(v, 0.5)), 0.5),
    ("solve_stationary_exact-tol", "tol must be positive",
     lambda v: solve_stationary_exact(PARAMS, tol=v), 1e-12),
    ("expected_payoff_series-tol", "tol must be positive",
     lambda v: expected_payoff_series(gtft(0.2), ALLD, GAME, DONATION, tol=v), 1e-10),
    ("gap_bound", r"bound requires beta in \(0, 1/2\)", lambda v: gap_bound(6, v), 0.1),
    ("mean_field_payoff", "invalid population fractions",
     lambda v: mean_field_payoff(0.1, v, 0.1, GAME, DONATION), 0.1),
]


@pytest.mark.parametrize("message, call, good", [row[1:] for row in REAL_ARGUMENTS],
                         ids=[row[0] for row in REAL_ARGUMENTS])
@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_every_real_argument_refuses_a_non_number_with_its_rule(message, call, good, bad):
    # each of these ended on a TypeError from comparing the string or None with a number
    with pytest.raises(ValueError, match=message):
        call(bad)
    call(good)


@pytest.mark.parametrize("message", [
    "need an integer {name} >=", "epsilon must lie in (0, 1)", "is not a composition of",
    "labels must be a vector of", "need alpha, beta >= 0 with alpha + beta < 1",
    "beta must lie in (0, 1)", "must be in [0, 1], got", "tol must be positive",
])
def test_each_input_rule_has_one_message(message):
    # a second copy of a rule is how two messages, or a TypeError, crept in before
    src = Path(gtftlab.__file__).parent
    found = [f"{path.name}:{number}" for path in sorted(src.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if message in line]
    assert len(found) == 1, found
