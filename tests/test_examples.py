"""Every script under ``examples/`` runs to completion, under ``smoke``.

Each example runs in a fresh interpreter, as a reader would start it,
so a change to the library surface the examples use (the node's DRAM
and snoop tallies, the system builders, the figure tables) shows here.
Together they take about ten seconds, so tier-1 skips them::

    PYTHONPATH=src python -m pytest -m smoke tests/test_examples.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.smoke

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


def test_every_example_is_found():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(script)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
