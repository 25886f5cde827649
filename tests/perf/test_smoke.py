"""End-to-end smoke gates, kept out of the default run.

These time real replays and kernels, so they are slow and
host-sensitive; CI's perf-smoke job runs them, and so can anyone
locally::

    PYTHONPATH=src python -m pytest -m smoke
"""

import json
import time

import pytest

from repro.bench.matmult import (
    _alloc_matrices,
    _per_access_compute_ns,
    _product_trace,
)
from repro.cli import main
from repro.core.specs import POWERMANNA
from repro.memory.mp import replay_reference, replay_traces
from repro.parallel import JOURNAL_ENV
from repro.perf import KERNELS, SCHEMA

from ..memory.test_replay_equivalence import snapshot

pytestmark = pytest.mark.smoke

#: Fig7's naive MatMult point as ``fig7_matmult`` benchmarks it.
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


def test_bench_quick_writes_a_complete_payload(monkeypatch, tmp_path):
    """``bench --quick`` runs every kernel once, at full size, through the
    sweep executor and writes a payload ``bench --compare`` accepts."""
    monkeypatch.setenv(JOURNAL_ENV, str(tmp_path / "journals"))
    out = tmp_path / "BENCH_perf.quick.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["quick"] is True
    assert set(payload["kernels"]) == set(KERNELS)
    for name, entry in payload["kernels"].items():
        assert entry["wall_s"] > 0, (name, entry)
        assert entry["work"] > 0, (name, entry)
