"""Start-up guard: comm commands load neither numpy nor networkx.

Routes come from the BFS searches in ``repro.network.routing`` and the
vectorized replay engine loads numpy on its first replay, so a process
that only builds fabrics and runs the DES never pays for either library.
Likewise only a sweep that starts worker processes loads
``multiprocessing``.  Each case runs in a fresh interpreter and reports
``sys.modules``; no timing is measured.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

HEAVY = ("numpy", "networkx")

FIG9 = ("from repro import cli; "
        "cli.main(['fig9', '--sizes', '8', '--no-cache', '--no-journal', "
        "'--jobs', '1'])")
FIG6 = ("from repro import cli; "
        "cli.main(['fig6', '--subintervals', '64', '--no-cache', "
        "'--no-journal', '--jobs', '1'])")


def loaded_after(code, modules=HEAVY):
    """Which of ``modules`` a fresh interpreter holds after ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {modules!r} "
             f"if m in sys.modules]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import repro.cli",
    FIG9,
    "from repro.msg.api import build_cluster_world; build_cluster_world()",
    "from repro.core.specs import POWERMANNA; POWERMANNA.node(scale=16)",
], ids=["import-cli", "fig9", "cluster-world", "node"])
def test_comm_and_setup_paths_load_neither_library(code):
    assert loaded_after(code) == []


def test_trace_replay_still_loads_numpy():
    assert loaded_after(FIG6) == ["numpy"]


@pytest.mark.parametrize("code", ["import repro.cli", FIG9],
                         ids=["import-cli", "fig9"])
def test_serial_sweep_leaves_multiprocessing_unloaded(code):
    assert loaded_after(code, ("multiprocessing",)) == []
