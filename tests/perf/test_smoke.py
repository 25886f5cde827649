"""End-to-end smoke gates, kept out of the default run.

These time real replays and figure commands, so they are slow and
host-sensitive; CI's smoke job runs them, and so can anyone locally::

    PYTHONPATH=src python -m pytest -m smoke
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.bench.matmult import (
    _alloc_matrices,
    _per_access_compute_ns,
    _product_trace,
)
from repro.core.specs import POWERMANNA
from repro.memory.mp import replay_reference, replay_traces

from ..memory.test_replay_equivalence import snapshot

pytestmark = pytest.mark.smoke

#: Fig7's naive MatMult point at N=48, caches scaled 1/16.
N = 48


def timed_fig7_replay(replay):
    """Replay fig7's N=48 product trace (caches scaled 1/16) through
    ``replay`` on a fresh node; returns the result, the node's memory and
    the replay's wall time."""
    node = POWERMANNA.node(scale=16)
    trace = _product_trace("naive", _alloc_matrices(0, N), N, None)
    compute_ns = _per_access_compute_ns(node, N, "naive")
    node.memory.reset_timing()
    start = time.perf_counter()
    result = replay(node.memory, [trace], compute_ns, [node._stall])
    return result, node.memory, time.perf_counter() - start


def test_vec_measurably_faster_than_reference():
    """``replay_traces`` sends fig7's single trace to vec.  It must give
    the reference's results and counters exactly (the equivalence
    contract), and stay well ahead of it.  The ratio's median over 12
    runs on a 2-core x86-64 Linux host was 15.4x (12.8x to 20.4x); one
    repeat on a shared runner is noisy, so the gate asks for three
    quarters of that median.

    ``replay_traces`` imports numpy and ``repro.memory.vec`` on its
    first call; that one-off cost is not replay speed, so the import is
    warmed before the timed call."""
    import repro.memory.vec  # noqa: F401

    vec, vec_memory, vec_wall = timed_fig7_replay(replay_traces)
    ref, ref_memory, ref_wall = timed_fig7_replay(replay_reference)
    assert vec == ref
    assert snapshot(vec_memory) == snapshot(ref_memory)
    ratio = ref_wall / vec_wall
    assert ratio >= 11.5, f"vectorized speedup collapsed: {ratio:.2f}x"


REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: Checks a one-round ``figbench/run.py --smoke`` makes per workload
#: (135 in all): every reference row in the cold pass and again in the
#: warm pass, one byte-equality check per warm command, one per traffic
#: load point, and one each for the calibration and set-up children.
SMOKE_CHECKS = {"node_smp": 21, "node_uni": 44, "comm_figs": 46,
                "traffic_load": 24}

#: Each workload's one-round smoke ``cold_wall_s`` in reference seconds:
#: the median of six runs of
#: ``python3 figbench/run.py --smoke --repeats 1 --out FILE`` on a 2-core
#: x86-64 Linux container (Python 3.11).
COLD_CEILING_S = {"node_smp": 0.29, "node_uni": 0.60, "comm_figs": 0.57,
                  "traffic_load": 0.56}

#: How far above its ceiling a cold wall may read before the gate fails.
SLACK = 4.0


def test_figbench_smoke_round_is_correct_and_in_time(tmp_path):
    """One smoke round of every figbench workload, run as figbench runs
    it: the real ``python -m repro`` figure commands in fresh children,
    every printed row checked against ``figbench/reference/smoke``, and
    walls scaled to reference seconds by figbench's calibration child,
    so the ceilings hold across hosts.  The gate fails on a wrong row,
    on a workload that made fewer checks than it should (a skipped or
    shortened workload), and on a cold wall above ``SLACK`` times its
    ceiling."""
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "figbench", "run.py"),
         "--smoke", "--repeats", "1", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == sum(SMOKE_CHECKS.values())

    workloads = json.loads(out.read_text())["workloads"]
    assert sorted(workloads) == sorted(SMOKE_CHECKS)
    for name, run in workloads.items():
        assert run["attempted"] == SMOKE_CHECKS[name], name
        (cold,) = run["samples"]["cold_wall_s"]
        limit = SLACK * COLD_CEILING_S[name]
        assert cold <= limit, (
            f"{name}: cold wall {cold:.3f} s (reference seconds) is above "
            f"{SLACK:g}x its {COLD_CEILING_S[name]} s ceiling")
