"""Every example script runs to completion.

The examples read the public API the way a user does (``pre.pset``,
``pre.dbg_seconds``, ``pre.schedule_seconds``, ...), so a change to the
framework's shapes that breaks them fails here.  Each script runs in a
child process from a scratch directory, so files an example writes
(``custom_algorithm.py``'s generated bundle) land there, not in the
checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
