"""repro.perf — the performance-regression harness.

Times the hot kernels behind the figures (trace replay and the DES
network stack) at fixed scaled sizes and writes ``BENCH_perf.json`` so
every PR has a throughput trajectory to beat.  See
:mod:`repro.perf.harness` for the kernel definitions.
"""

from repro.perf.compare import (
    KernelDelta,
    compare_payloads,
    format_compare_table,
    load_payload,
)
from repro.perf.harness import (
    KERNELS,
    KernelResult,
    SCHEMA,
    bench_payload,
    format_bench_table,
    run_bench,
    write_bench_json,
)

__all__ = [
    "KERNELS",
    "KernelDelta",
    "KernelResult",
    "SCHEMA",
    "bench_payload",
    "compare_payloads",
    "format_bench_table",
    "format_compare_table",
    "load_payload",
    "run_bench",
    "write_bench_json",
]
