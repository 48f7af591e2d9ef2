"""Every count argument of the package follows one integer rule, and every epsilon one level rule.

A count is an int or a numpy integer at or above its least value; a
float, a bool or a string is refused with a ValueError that names the
argument. An epsilon lies strictly between 0 and 1; NaN does not.
"""

import numpy as np
import pytest

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
    tmix_exact,
    tv_distance_exact,
)
from gtftlab.games import ALLD, GameConfig, RewardVector, gtft, simulate_games
from gtftlab.meanfield import check_local_optimality, gap_bound
from gtftlab.population import (
    PopulationConfig,
    generosity_grid,
    run,
    sample_one_step_counts,
)

PARAMS = EhrenfestParams(k=3, a=0.4, b=0.2, m=2)
POPULATION = PopulationConfig(n=10, alpha=0.1, beta=0.1, k=3, g_hat=0.5)
GAME = GameConfig(delta=0.5)
DONATION = RewardVector.donation(3.0, 2.0)

# (callable, count argument, least value, the call with that argument set, a valid value)
COUNT_ARGUMENTS = [
    ("EhrenfestParams", "k", 2, lambda v: EhrenfestParams(k=v, a=0.4, b=0.2, m=3), 3),
    ("EhrenfestParams", "m", 1, lambda v: EhrenfestParams(k=3, a=0.4, b=0.2, m=v), 3),
    ("MultinomialDist", "m", 0, lambda v: MultinomialDist(m=v, p=(0.5, 0.5)), 2),
    ("geometric_weights", "k", 1, lambda v: geometric_weights(2.0, v), 3),
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
    for bad in (2.5, True, least - 1, "3"):
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
@pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, -0.1])
def test_every_epsilon_lies_strictly_between_0_and_1(call, bad):
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\), got"):
        call(bad)
    call(0.25)
