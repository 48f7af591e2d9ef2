"""Import-time cost of the package."""

import subprocess
import sys


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
