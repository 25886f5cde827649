"""End-to-end smoke gates, kept out of the default run.

These time real kernels, so they are slow and host-sensitive; CI's
perf-smoke job runs them, and so can anyone locally::

    PYTHONPATH=src python -m pytest -m smoke
"""

import pytest

from repro.perf import run_kernel

pytestmark = pytest.mark.smoke


def test_dispatch_picks_vec_for_one_trace_measurably_faster():
    """``fig7_matmult_scalar`` replays ``fig7_matmult``'s trace through
    the scalar loop directly, bypassing the dispatch that sends it to
    vec: work and check must match exactly (the equivalence contract),
    and the wall ratio must hold up.  One repeat on a shared runner is
    noisy, so the gate asks for 1.5x."""
    vec = run_kernel("fig7_matmult", repeats=1)
    scalar = run_kernel("fig7_matmult_scalar", repeats=1)
    assert vec.work == scalar.work
    assert vec.check == scalar.check
    ratio = scalar.wall_s / vec.wall_s
    assert ratio >= 1.5, f"vectorized speedup collapsed: {ratio:.2f}x"
