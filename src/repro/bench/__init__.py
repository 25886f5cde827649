"""Benchmark implementations.

The three workloads of the paper's evaluation:

* :mod:`repro.bench.hint` — the HINT hierarchical-integration benchmark
  (QUIPS metric), Figure 6.
* :mod:`repro.bench.matmult` — the NASPAR MatMult kernel in its naive and
  transposed versions, Figures 7 and 8.
* :mod:`repro.bench.microbench` — the communication microbenchmarks
  (latency, gap, uni-/bidirectional bandwidth), Figures 9-12.

:mod:`repro.bench.report` renders results as the paper-shaped tables the
benchmark harness prints.
"""

from repro.bench.hint import HintPoint, HintResult, run_hint
from repro.bench.matmult import (
    MatMultResult,
    matmult_sweep,
    run_matmult,
    smp_speedup,
)
from repro.bench.collectives import CollectiveTiming, scaling_sweep
from repro.bench.microbench import CommPoint, comm_sweep
from repro.bench.report import format_table
from repro.bench.traffic import TrafficResult, pattern_comparison, run_pattern

__all__ = [
    "CollectiveTiming",
    "CommPoint",
    "HintPoint",
    "HintResult",
    "MatMultResult",
    "TrafficResult",
    "comm_sweep",
    "format_table",
    "matmult_sweep",
    "pattern_comparison",
    "run_matmult",
    "run_hint",
    "run_pattern",
    "scaling_sweep",
    "smp_speedup",
]
