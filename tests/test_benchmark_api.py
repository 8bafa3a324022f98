"""The benchmark's table of engine names resolves against these sources.

perfbench/run.py calls the names in its EXPORTED table, and
perfbench/tracer.py wraps the names in TRACED; both are checked by
run.py's import_engine(), which the benchmark runs before anything else.
Running it here makes a refactor that moves one of those names fail the
test suite, not only a benchmark run.  It runs in a fresh interpreter that
writes no bytecode, so nothing under perfbench/ changes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_api_table_resolves():
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; run.import_engine()"
    done = subprocess.run(
        [sys.executable, "-B", "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
