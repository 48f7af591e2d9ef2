"""Import-time cost and public names of the package."""

import subprocess
import sys
from types import ModuleType

import gtftlab


def test_import_loads_no_scipy_solvers_or_special_functions():
    # each would add tens of milliseconds to every interpreter that imports gtftlab
    probe = (
        "import gtftlab, sys; "
        "print(sorted(name for name in ('scipy.special', 'scipy.sparse.linalg') "
        "if name in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"


PUBLIC_NAMES = [
    "ALLC", "ALLD", "EhrenfestParams", "GameConfig", "GenerosityReport", "MixingEstimate",
    "MultinomialDist", "PayoffComparison", "PopulationConfig", "PopulationState",
    "RewardVector", "Strategy", "avg_stationary_generosity", "check_local_optimality",
    "coupled_run", "detailed_balance_residual", "enumerate_states", "estimate_mixing",
    "expected_absorption_closed", "expected_payoff_closed", "expected_payoff_series",
    "gap_bound", "generosity_grid", "granular_expected_payoff", "gtft", "init_population",
    "initial_distribution", "mean_field_payoff", "mixing_bound", "optimal_generosity", "run",
    "simulate_games", "solve_stationary_exact", "state_array", "stationary_closed",
    "stationary_of_population", "tmix_exact", "to_ehrenfest", "transition_matrix",
    "transition_row", "tv_distance_exact",
]


def test_public_names_are_pinned():
    # an export added or dropped is a public API change: update this list with it
    names = sorted(name for name, value in vars(gtftlab).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_NAMES
