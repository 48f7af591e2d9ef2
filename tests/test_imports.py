"""Import-time cost, public names and the one integer rule of the package."""

import ast
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

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


def test_only_the_sparse_kernel_loads_scipy_sparse(tmp_path):
    # the stationary solve, the balance check and `stationary --exact` read the
    # kernel's moves, the coupling samplers draw with numpy alone and the distance
    # scan steps by a numpy table of the kernel's entries; only build_kernel's
    # matrix needs scipy
    probe = f"""
import sys
import gtftlab
from gtftlab import cli
from gtftlab.ehrenfest import (EhrenfestParams, build_kernel, corner_labels, coupled_run,
                               detailed_balance_residual, estimate_mixing, solve_stationary_exact,
                               tmix_exact, tv_distance_exact)

def loaded(step):
    print(step, 'scipy' in sys.modules)

loaded('import')
params = EhrenfestParams(k=3, a=0.4, b=0.2, m=4)
solve_stationary_exact(params)
loaded('solve')
detailed_balance_residual(params)
loaded('balance')
argv = ['stationary', '--k', '3', '--a', '0.4', '--b', '0.2', '--m', '4', '--exact',
        '--out', {str(tmp_path / "stationary.json")!r}]
assert cli.main(argv) == cli.EXIT_OK
loaded('cli')
coupled_run(params, *corner_labels(params), 1)
loaded('coupled')
estimate_mixing(params, 0.25, 20, 1)
loaded('estimate')
argv = ['mixing', '--k', '3', '--a', '0.4', '--b', '0.2', '--m', '4', '--trials', '20',
        '--seed', '1', '--sweep', 'm=4,8', '--out', {str(tmp_path / "mixing.json")!r}]
assert cli.main(argv) == cli.EXIT_OK
loaded('mixing')
tmix_exact(params)
loaded('tmix')
tv_distance_exact(params, 3, (4, 0, 0))
loaded('tv')
argv = ['mixing', '--k', '3', '--a', '0.4', '--b', '0.2', '--m', '4', '--trials', '20',
        '--seed', '1', '--exact-scan', '--out', {str(tmp_path / "scan.json")!r}]
assert cli.main(argv) == cli.EXIT_OK
loaded('scan')
build_kernel(params)
loaded('kernel')
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.split() == ["import", "False", "solve", "False", "balance", "False",
                                   "cli", "False", "coupled", "False", "estimate", "False",
                                   "mixing", "False", "tmix", "False", "tv", "False",
                                   "scan", "False", "kernel", "True"]
    assert isinstance(json.loads((tmp_path / "scan.json").read_text())["exact_tmix"], int)


def test_import_builds_no_clip_table_and_a_built_one_is_read_only():
    # run() builds the 8-move clip table of its k on first use, never at import
    probe = "import gtftlab; print(gtftlab.population._clip_table.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "0"
    table = gtftlab.population._clip_table(5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


# one call per cached builder in src/, None for one that holds no array; a builder missing
# here fails the guard below
MEMO_CALLS = {
    "cli.build_parser": None,
    "population._clip_table": (5,),
    "ehrenfest._pair_moves": (4,),
    "ehrenfest._small_chain": (4, 6),
}


def arrays_in(value):
    """Every numpy array in a builder's result, through tuples, lists and named tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def test_every_memoized_array_is_read_only():
    # a cached array is shared by every later caller, so one write would corrupt them all
    import gtftlab.cli  # noqa: F401  every module of src/ is loaded, so every builder is found
    import gtftlab.games  # noqa: F401
    import gtftlab.meanfield  # noqa: F401
    found = {f"{name.rsplit('.', 1)[-1]}.{attr}"
             for name, module in list(sys.modules.items()) if name.startswith("gtftlab.")
             for attr, value in vars(module).items()
             if hasattr(value, "cache_info") and value.__module__ == name}
    assert found == set(MEMO_CALLS)
    for name, args in MEMO_CALLS.items():
        if args is None:
            continue
        module, attr = name.split(".")
        arrays = list(arrays_in(getattr(getattr(gtftlab, module), attr)(*args)))
        assert arrays
        for array in arrays:
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.flat[0] = 0


PUBLIC_NAMES = [
    "ALLC", "ALLD", "EhrenfestParams", "GameConfig", "GenerosityReport", "MixingEstimate",
    "MultinomialDist", "PayoffComparison", "PopulationConfig", "RewardVector", "Strategy",
    "avg_stationary_generosity", "check_local_optimality", "coupled_run",
    "detailed_balance_residual", "enumerate_states", "estimate_mixing",
    "expected_absorption_closed", "expected_payoff_closed", "gap_bound", "generosity_grid",
    "granular_expected_payoff", "gtft", "mean_field_payoff",
    "mixing_bound", "optimal_generosity", "run", "simulate_games", "solve_stationary_exact",
    "state_array", "stationary_closed", "stationary_of_population", "tmix_exact",
    "to_ehrenfest", "transition_row", "tv_distance_exact",
]


def test_public_names_are_pinned():
    # an export added or dropped is a public API change: update this list with it
    names = sorted(name for name, value in vars(gtftlab).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_NAMES


def test_np_integer_is_tested_only_inside_check_count():
    # one integer rule: an inline isinstance(x, (int, np.integer)) once let True pass as a count
    found = []
    for path in sorted(Path(gtftlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for top in ast.walk(tree)
                   if isinstance(top, ast.FunctionDef) and top.name == "_check_count"
                   for node in ast.walk(top)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and id(node) not in allowed
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "integer"
                            for arg in node.args[1:] for sub in ast.walk(arg))):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
