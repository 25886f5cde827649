"""The MatMult benchmark (Figures 7 and 8).

The paper runs NASPAR MatMult in two versions, both with odd strides:

a) *naive* — C = A x B with both matrices in row order, so B is walked down
   columns (cache-hostile strided accesses);
b) *transposed* — B is transposed first and the product then streams both
   operands row-wise (runtime includes the transposition).

Runs are trace-driven: the exact address stream goes through the machine's
cache/coherence simulator and the CPU's pipeline/stall models supply the
compute time between references.  For large matrices the harness samples
rows — a cold-start prefix warms the caches, a steady-state window is
measured, and the total is extrapolated — which keeps pure-Python
simulation tractable without touching the shape of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.specs import MachineSpec
from repro.cpu.kernels import matmult_inner_step, matmult_store_step, transpose_step
from repro.memory.address import AddressMap
from repro.memory.trace_gen import (
    matmult_naive_array,
    matmult_transposed_array,
    odd_stride,
    transpose_array,
)
from repro.node.node import NodeModel
from repro.obs import OBS

VERSIONS = ("naive", "transposed")


@dataclass(frozen=True)
class MatMultResult:
    """One MatMult measurement.

    Attributes:
        machine: machine key.
        n: matrix dimension.
        version: "naive" or "transposed".
        cpus: how many node CPUs ran their own multiply concurrently.
        mflops: per-CPU MFLOPS (the paper's Figure-7 metric).
        elapsed_ns: simulated wall time of the slowest CPU.
        sampled: True when row sampling/extrapolation was used.
    """

    machine: str
    n: int
    version: str
    cpus: int
    mflops: float
    elapsed_ns: float
    sampled: bool


def _per_access_compute_ns(node: NodeModel, n: int, version: str) -> float:
    """Average compute charge per trace reference for one (i, j) iteration."""
    inner = matmult_inner_step(node.cpu)
    store = matmult_store_step()
    mix = inner.mix.scaled(n) + store.mix
    refs = inner.memory_refs * n + store.memory_refs
    chain = inner.dependent_fp_chain * n
    return node.pipeline.per_access_compute_ns(mix, refs,
                                               dependent_fp_chain=chain)


def _transpose_compute_ns(node: NodeModel) -> float:
    unit = transpose_step()
    return node.pipeline.per_access_compute_ns(unit.mix, unit.memory_refs)


def _alloc_matrices(cpu_index: int, n: int,
                    elem_bytes: int = 8) -> Tuple[int, int, int, int]:
    """Page-aligned, per-CPU A, B, BT, C base addresses."""
    allocator = AddressMap(base=0x1000_0000 + cpu_index * 0x1000_0000).allocator()
    size = odd_stride(n) * odd_stride(n) * elem_bytes
    base_a = allocator.alloc("a", size)
    base_b = allocator.alloc("b", size)
    base_bt = allocator.alloc("bt", size)
    base_c = allocator.alloc("c", size)
    return base_a, base_b, base_bt, base_c


def _product_trace(version: str, bases: Tuple[int, int, int, int], n: int,
                   row_range: Optional[range]):
    """One CPU's product trace as a stream of per-row arrays, so the whole
    trace never exists at once."""
    base_a, base_b, base_bt, base_c = bases
    rows = range(n) if row_range is None else row_range
    if version == "naive":
        return (matmult_naive_array(base_a, base_b, base_c, n,
                                    row_range=rows[i:i + 1])
                for i in range(len(rows)))
    if version == "transposed":
        return (matmult_transposed_array(base_a, base_bt, base_c, n,
                                         row_range=rows[i:i + 1])
                for i in range(len(rows)))
    raise ValueError(f"version must be one of {VERSIONS}, got {version!r}")


def run_matmult(node: NodeModel, n: int, version: str = "naive",
                cpus: int = 1,
                sample_rows: Optional[Tuple[int, int]] = None,
                machine_key: str = "") -> MatMultResult:
    """Run n x n MatMult on ``cpus`` CPUs of ``node`` (one multiply each).

    ``sample_rows=(warmup, window)`` enables row sampling: ``warmup`` rows
    are replayed to populate the caches (their time discarded), ``window``
    rows are measured, and the per-row steady-state time is extrapolated
    to all n rows.  The transposition pass of the transposed version is
    always replayed in full (it is O(n^2)).

    Traces are emitted as structured arrays, the product a row at a time;
    ``node.run_traces`` replays them vectorized, a multi-CPU run too,
    since each CPU's matrices are its own.
    """
    if n < 2:
        raise ValueError(f"matrix size must be >= 2, got {n}")
    if cpus < 1 or cpus > node.num_cpus:
        raise ValueError(f"cpus must be in 1..{node.num_cpus}, got {cpus}")
    node.reset()
    bases = [_alloc_matrices(cpu, n) for cpu in range(cpus)]
    compute_ns = _per_access_compute_ns(node, n, version)
    flops = 2.0 * n * n * n

    with OBS.label_scope(machine=machine_key or node.name, n=n,
                         version=version):
        transpose_ns = 0.0
        if version == "transposed":
            with OBS.label_scope(phase="transpose"):
                traces = [transpose_array(b[1], b[2], n) for b in bases]
                transpose_ns = node.run_traces(
                    traces, _transpose_compute_ns(node)).elapsed_ns

        with OBS.label_scope(phase="product"):
            if sample_rows is None or sample_rows[0] + sample_rows[1] >= n:
                traces = [_product_trace(version, b, n, None) for b in bases]
                product_ns = node.run_traces(traces, compute_ns).elapsed_ns
                sampled = False
            else:
                warmup, window = sample_rows
                if warmup < 1 or window < 1:
                    raise ValueError("sample_rows counts must be >= 1")
                warm = [_product_trace(version, b, n, range(warmup))
                        for b in bases]
                warm_ns = node.run_traces(warm, compute_ns).elapsed_ns
                measured = [_product_trace(version, b, n,
                                           range(warmup, warmup + window))
                            for b in bases]
                window_ns = node.run_traces(measured, compute_ns).elapsed_ns
                per_row_ns = window_ns / window
                # Cold rows are charged at the warmup rate, the rest at
                # steady state.
                product_ns = warm_ns + per_row_ns * (n - warmup)
                sampled = True

    elapsed = transpose_ns + product_ns
    mflops = flops / elapsed * 1e3 if elapsed > 0 else 0.0
    return MatMultResult(machine=machine_key or node.name, n=n,
                         version=version, cpus=cpus, mflops=mflops,
                         elapsed_ns=elapsed, sampled=sampled)


DEFAULT_SAMPLE = (2, 3)


def matmult_point(spec: MachineSpec, n: int, version: str = "naive",
                  cpus: int = 1, scale: int = 16,
                  sample_threshold: int = 48) -> MatMultResult:
    """One Figure-7 cell: n x n MatMult on a fresh node of ``spec``."""
    node = spec.node(scale=scale)
    sample = DEFAULT_SAMPLE if n > sample_threshold else None
    return run_matmult(node, n, version=version, cpus=cpus,
                       sample_rows=sample, machine_key=spec.key)


def matmult_sweep(spec: MachineSpec, sizes: Sequence[int],
                  version: str = "naive", cpus: int = 1, scale: int = 16,
                  sample_threshold: int = 48) -> List[MatMultResult]:
    """Figure-7 style sweep over matrix sizes on one machine.

    ``scale`` shrinks the caches (line sizes preserved); sizes above
    ``sample_threshold`` use row sampling.
    """
    return [matmult_point(spec, n, version=version, cpus=cpus, scale=scale,
                          sample_threshold=sample_threshold)
            for n in sizes]


def matmult_point_task(config: dict, seed: int) -> MatMultResult:
    """One (machine, size, version) cell as a sweep task (picklable)."""
    return matmult_point(config["spec"], config["n"],
                         version=config["version"], scale=config["scale"])


def smp_point_task(config: dict, seed: int) -> float:
    """One Figure-8 cell (dual-processor speedup) as a sweep task."""
    return smp_speedup(config["spec"], config["n"], config["version"],
                       scale=config["scale"])


def smp_speedup(spec: MachineSpec, n: int, version: str = "naive",
                scale: int = 16,
                sample_threshold: int = 48) -> float:
    """Figure-8 metric: throughput speedup when both CPUs run MatMult.

    Each CPU multiplies its own matrices; the speedup is
    ``cpus * T(1 CPU) / T(all CPUs)`` — 2.0 means no memory contention.
    """
    sample = DEFAULT_SAMPLE if n > sample_threshold else None
    single = run_matmult(spec.node(scale=scale), n, version=version, cpus=1,
                         sample_rows=sample, machine_key=spec.key)
    cpus = spec.num_cpus
    dual = run_matmult(spec.node(scale=scale), n, version=version, cpus=cpus,
                       sample_rows=sample, machine_key=spec.key)
    if dual.elapsed_ns <= 0:
        raise ArithmeticError("dual-CPU run reported zero time")
    return cpus * single.elapsed_ns / dual.elapsed_ns
