"""Runtime dependency guard: the package imports without numpy."""

import subprocess
import sys


def test_import_loads_no_numpy():
    # a fresh interpreter, so modules the test run already loaded do not count
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import blindbargain, sys; assert 'numpy' not in sys.modules",
        ],
        check=True,
        timeout=60,
    )
