"""Generosity-tuning dynamics in randomly interacting populations.

Simulation plus exact analysis: repeated-game payoffs between fixed
strategies (games), the weighted multi-urn walk the population count
vector follows (ehrenfest), the agent-level dynamics and their exact
reduction to that walk (population), stationary payoff and optimality
analysis (meanfield), and a reproducible command-line front end (cli).
"""

__version__ = "0.1.0"

from .games import (
    ALLC,
    ALLD,
    GameConfig,
    RewardVector,
    Strategy,
    expected_payoff_closed,
    gtft,
    simulate_games,
)
from .ehrenfest import (
    EhrenfestParams,
    MixingEstimate,
    MultinomialDist,
    coupled_run,
    detailed_balance_residual,
    enumerate_states,
    estimate_mixing,
    expected_absorption_closed,
    mixing_bound,
    solve_stationary_exact,
    state_array,
    stationary_closed,
    tmix_exact,
    transition_row,
    tv_distance_exact,
)
from .population import (
    PopulationConfig,
    PopulationState,
    generosity_grid,
    init_population,
    run,
    stationary_of_population,
    to_ehrenfest,
)
from .meanfield import (
    GenerosityReport,
    PayoffComparison,
    avg_stationary_generosity,
    check_local_optimality,
    gap_bound,
    granular_expected_payoff,
    mean_field_payoff,
    optimal_generosity,
)
