"""The HINT benchmark (Figure 6).

HINT (Gustafson & Snell, ref [11]) approximates the integral of
(1-x)/(1+x) over [0, 1] by hierarchical interval refinement: at each step
the interval with the largest removable error is split in two, tightening
the upper and lower Riemann bounds.  Quality is the reciprocal of the
bound gap; the reported metric is QUIPS — quality improvements per second —
plotted against runtime.  Because memory grows linearly with quality, the
QUIPS-versus-time curve maps out the memory hierarchy: the curve drops as
the interval table outgrows the L1, then the L2.

The *computation* here is the real algorithm (both a floating-point DOUBLE
and a fixed-point INT variant).  The *timing* is the reproduction's model:
each refinement scans the live interval records (the paper: data "accessed
in more complex ways than just a consecutive order"), and the scan's
address trace is replayed through the machine's cache simulator at
checkpoint sizes.  The Python implementation selects the split interval
with a heap for speed but charges time for the scan the benchmark actually
performs; see DESIGN.md.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.specs import MachineSpec
from repro.cpu.kernels import hint_scan_step, hint_split_step
from repro.memory.address import AddressMap
from repro.memory.trace_gen import hint_sweep_array
from repro.node.node import NodeModel, run_nodes

RECORD_BYTES = 32  # x0, x1, f(x0), f(x1) — 4 words per interval record
_FIXED_POINT_SCALE = 1 << 30


@dataclass(frozen=True)
class HintPoint:
    """One checkpoint of the QUIPS curve."""

    time_s: float
    quips: float
    subintervals: int
    quality: float


@dataclass(frozen=True)
class HintResult:
    """A full HINT run on one machine.

    Attributes:
        machine: machine key.
        data_type: "double" or "int".
        points: the QUIPS-versus-time curve.
        peak_quips: maximum of the curve (cache-resident performance).
        final_quips: last point (memory-bound performance).
    """

    machine: str
    data_type: str
    points: Tuple[HintPoint, ...]

    @property
    def peak_quips(self) -> float:
        return max(p.quips for p in self.points)

    @property
    def final_quips(self) -> float:
        return self.points[-1].quips

    def quips_at_subintervals(self, m: int) -> float:
        best: Optional[HintPoint] = None
        for point in self.points:
            if point.subintervals <= m:
                best = point
        if best is None:
            raise ValueError(f"no checkpoint at or below {m} subintervals")
        return best.quips


# ---------------------------------------------------------------------------
# The algorithm itself (real computation, heap-accelerated selection)
# ---------------------------------------------------------------------------


def _f_double(x: float) -> float:
    return (1.0 - x) / (1.0 + x)


def _f_int(x_scaled: int) -> int:
    """(1-x)/(1+x) in fixed point with scale 2**30."""
    num = (_FIXED_POINT_SCALE - x_scaled) * _FIXED_POINT_SCALE
    den = _FIXED_POINT_SCALE + x_scaled
    return num // den


# Per data type: f, the interval's ends, the split point and the
# quality numerator (quality = numerator / total removable error).
_REFINEMENTS = {
    "double": (_f_double, 0.0, 1.0, lambda x0, x1: 0.5 * (x0 + x1), 1.0),
    "int": (_f_int, 0, _FIXED_POINT_SCALE, lambda x0, x1: (x0 + x1) // 2,
            _FIXED_POINT_SCALE ** 2),
}


def hint_qualities(max_subintervals: int,
                   checkpoints: Sequence[int],
                   data_type: str = "double") -> Tuple[Tuple[int, float], ...]:
    """Run the refinement and report quality at each checkpoint.

    Returns ``((subintervals, quality), ...)``.  Quality is
    1 / (upper bound - lower bound); f is decreasing on [0, 1] so each
    interval's removable error is (f(x0) - f(x1)) * (x1 - x0).  A ladder
    is computed once per process and shared.
    """
    if data_type not in _REFINEMENTS:
        raise ValueError(f"data_type must be 'double' or 'int', got {data_type!r}")
    targets = tuple(sorted(set(checkpoints)))
    if not targets or targets[-1] > max_subintervals:
        raise ValueError("checkpoints must be nonempty and <= max_subintervals")
    return _ladder(targets, data_type)


@functools.lru_cache(maxsize=None)
def _ladder(targets: Tuple[int, ...],
            data_type: str) -> Tuple[Tuple[int, float], ...]:
    f, x0, x1, midpoint, numerator = _REFINEMENTS[data_type]
    f0, f1 = f(x0), f(x1)
    total = (f0 - f1) * (x1 - x0)
    heap = [(-total, x0, x1, f0, f1)]
    count = 1
    out: List[Tuple[int, float]] = []
    for target in targets:
        while count < target:
            neg_err, x0, x1, f0, f1 = heapq.heappop(heap)
            total += neg_err  # remove the split interval's error
            xm = midpoint(x0, x1)
            fm = f(xm)
            left = (f0 - fm) * (xm - x0)
            right = (fm - f1) * (x1 - xm)
            heapq.heappush(heap, (-left, x0, xm, f0, fm))
            heapq.heappush(heap, (-right, xm, x1, fm, f1))
            total += left + right
            count += 1
        out.append((count, numerator / total if total > 0 else float("inf")))
    return tuple(out)


# ---------------------------------------------------------------------------
# Timing on a machine model
# ---------------------------------------------------------------------------


def default_checkpoints(max_subintervals: int, start: int = 16) -> List[int]:
    """Geometric checkpoint ladder: 16, 32, 64, ... max."""
    points = []
    m = start
    while m < max_subintervals:
        points.append(m)
        m *= 2
    points.append(max_subintervals)
    return points


def run_hint(node: NodeModel, data_type: str = "double",
             max_subintervals: int = 16384,
             checkpoints: Optional[Sequence[int]] = None,
             machine_key: str = "") -> HintResult:
    """Run HINT on a node model and build the Figure-6 curve.

    Per refinement at table size *m* the benchmark pays one scan over the
    m live records plus the split arithmetic.  Scan memory behaviour is
    replayed through the cache simulator at each checkpoint; between
    checkpoints the per-record cost is interpolated from the bracketing
    measurements, and the cumulative runtime integrates
    ``sum_m (m * per_record(m) + split)``.
    """
    return run_hints([(node, data_type)], max_subintervals, checkpoints,
                     machine_key or node.name)[0]


def run_hints(runs: Sequence[Tuple[NodeModel, str]],
              max_subintervals: int = 16384,
              checkpoints: Optional[Sequence[int]] = None,
              machine: str = "") -> List[HintResult]:
    """:func:`run_hint` on each ``(node, data_type)`` of ``runs``, the
    nodes replayed side by side at every checkpoint.  Every node scans
    the same records, so ``run_nodes`` plans each checkpoint's scan once
    for all of them; each result is what :func:`run_hint` gives alone."""
    marks = list(checkpoints) if checkpoints is not None else \
        default_checkpoints(max_subintervals)
    qualities = [dict(hint_qualities(max_subintervals, marks, data_type))
                 for _, data_type in runs]

    for node, _ in runs:
        node.reset()
    allocator = AddressMap().allocator()
    base = allocator.alloc("hint_records", max_subintervals * RECORD_BYTES)

    scan_compute_ns = []
    split_ns = []
    for node, data_type in runs:
        scan_unit = hint_scan_step(data_type)
        scan_compute_ns.append(node.pipeline.per_access_compute_ns(
            scan_unit.mix, scan_unit.memory_refs))
        split_ns.append(node.pipeline.block_ns(
            hint_split_step(data_type).mix))

    # Measure the per-record scan cost at each checkpoint size.
    per_record_at: List[List[Tuple[int, float]]] = [[] for _ in runs]
    for mark in marks:
        trace = hint_sweep_array(base, mark, RECORD_BYTES, seed=mark)
        results = run_nodes([(node, [trace], compute)
                             for (node, _), compute
                             in zip(runs, scan_compute_ns)])
        refs = mark + max(1, int(mark * 0.25))  # scan reads + split writes
        for costs, result in zip(per_record_at, results):
            costs.append((mark, result.elapsed_ns / refs))

    return [HintResult(machine=machine, data_type=data_type,
                       points=_curve(marks, max_subintervals, costs, split,
                                     quality))
            for (_, data_type), costs, split, quality
            in zip(runs, per_record_at, split_ns, qualities)]


def _curve(marks: Sequence[int], max_subintervals: int,
           per_record_at: List[Tuple[int, float]], split_ns: float,
           qualities: Dict[int, float]) -> Tuple[HintPoint, ...]:
    """The QUIPS curve from the measured per-record scan costs: the cost
    at ``m`` records is interpolated between the bracketing marks."""
    points: List[HintPoint] = []
    cumulative_ns = 0.0
    mark_idx = 0
    upper = 0  # the first measured mark >= m
    last = len(per_record_at) - 1
    # Integrate cumulative runtime across all refinements.
    for m in range(1, max_subintervals + 1):
        while upper <= last and per_record_at[upper][0] < m:
            upper += 1
        if upper == 0 or upper > last:
            per_record = per_record_at[min(upper, last)][1]
        else:
            prev_mark, prev_cost = per_record_at[upper - 1]
            mark, cost = per_record_at[upper]
            frac = (m - prev_mark) / (mark - prev_mark)
            per_record = prev_cost + frac * (cost - prev_cost)
        cumulative_ns += m * per_record + split_ns
        if mark_idx < len(marks) and m == marks[mark_idx]:
            time_s = cumulative_ns / 1e9
            quality = qualities[m]
            quips = quality / time_s if time_s > 0 else 0.0
            points.append(HintPoint(time_s=time_s, quips=quips,
                                    subintervals=m, quality=quality))
            mark_idx += 1
    return tuple(points)


def hint_on_machine(spec: MachineSpec, data_type: str = "double",
                    scale: int = 16,
                    max_subintervals: int = 16384) -> HintResult:
    """Convenience: HINT on a fresh single-machine node."""
    node = spec.node(scale=scale)
    return run_hint(node, data_type=data_type,
                    max_subintervals=max_subintervals,
                    machine_key=spec.key)


#: What a HINT (or any trace-replay node) point imports — the cache
#: fingerprint set shared by the fig6/fig7/fig8 sweeps.
NODE_SWEEP_MODULES = ("repro.sim", "repro.memory", "repro.cpu", "repro.node",
                      "repro.core", "repro.bench.hint",
                      "repro.bench.matmult")


def hint_point_task(config: dict, seed: int) -> List[HintResult]:
    """One machine's Figure-6 curves, double then int, as a sweep task
    (module-level: pools pickle it).  The two runs replay side by side
    on fresh nodes (:func:`run_hints`).

    The replay is deterministic, so ``seed`` is unused — it still keys
    the cache fingerprint through the scheduler.
    """
    spec = config["spec"]
    return run_hints([(spec.node(scale=config["scale"]), data_type)
                      for data_type in ("double", "int")],
                     config["max_subintervals"], machine=spec.key)
