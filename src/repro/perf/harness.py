"""Perf-regression harness: time the hot kernels behind the figures.

Every figure in the reproduction funnels through two engines — the
trace-driven cache/TLB replay (:mod:`repro.memory`) and the flit-level
discrete-event kernel (:mod:`repro.sim`).  This harness times one
representative kernel per figure family at fixed, scaled sizes and writes
``BENCH_perf.json`` so each PR leaves a throughput trajectory the next one
has to beat:

* ``fig6_hint`` — HINT refinement + checkpoint scan replays (DOUBLE).
* ``fig7_matmult`` — full naive MatMult address-trace replay (N=48,
  caches scaled 1/16): one trace, so the vectorized engine replays it.
* ``fig8_smp`` — the same naive MatMult run on both CPUs of one node
  at once: vec's per-CPU oracles and issue-time merge of the L2 misses,
  fig8's engine.
* ``fig9_pingpong`` — one-way latency ping-pongs over the full DES stack
  (driver -> NI -> link -> crossbar -> drain): the event-kernel hot loop.
* ``fig11_unidir`` — back-to-back streaming bandwidth (DES under load).
* ``traffic_incast`` — one classed load point of ``traffic --load`` on
  the 32-node two-level crossbar tree under the priority arbiter: the
  contended DES path, where most events come due at the instant they
  are scheduled.
* ``topo_hypercube_1k`` — 1024-node hypercube fabric construction (the
  topology generator + realizer path at sweep scale).

Kernel sizes are identical in ``--quick`` and full mode (only the repeat
count differs) so every ``BENCH_perf.json`` is comparable with every
other recorded on the same host.  Wall times take the *best* of ``repeats``
runs — the minimum is the least noisy estimator of the achievable time.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SCHEMA = "repro.perf/v1"

FIG9_SIZES = (8, 64, 512, 1024)

#: Messages per sender in the ``traffic_incast`` load point.
TRAFFIC_MESSAGES = 6


@dataclass(frozen=True)
class KernelResult:
    """One timed kernel.

    Attributes:
        name: kernel key (``fig7_matmult``, ...).
        wall_s: best wall time over the repeats.
        mean_s: mean wall time over the repeats.
        repeats: how many times the kernel ran.
        work: deterministic work units performed per run (simulated
            memory accesses for replay kernels, processed DES events for
            network kernels).
        work_unit: "accesses" or "events".
        check: a deterministic simulation-side figure from the run (a
            latency, a bandwidth, a QUIPS value) — any drift here means
            the kernel's *semantics* changed, not just its speed.
    """

    name: str
    wall_s: float
    mean_s: float
    repeats: int
    work: int
    work_unit: str
    check: float

    @property
    def rate(self) -> float:
        """Work units per second of host wall time."""
        return self.work / self.wall_s if self.wall_s > 0 else 0.0


# ---------------------------------------------------------------------------
# The kernels.  Each returns (work_units, work_unit_name, check_value).
# ---------------------------------------------------------------------------


def _kernel_fig6_hint() -> Tuple[int, str, float]:
    from repro.bench.hint import hint_on_machine
    from repro.core.specs import POWERMANNA

    result = hint_on_machine(POWERMANNA, data_type="double", scale=16,
                             max_subintervals=2048)
    # run_hint builds its own node; charge the refinement count as work.
    return 2048, "refinements", result.final_quips


def _kernel_fig7_matmult() -> Tuple[int, str, float]:
    from repro.bench.matmult import run_matmult
    from repro.core.specs import POWERMANNA

    node = POWERMANNA.node(scale=16)
    result = run_matmult(node, 48, version="naive",
                         machine_key="powermanna")
    accesses = sum(l1.access_count() for l1 in node.memory.l1s)
    return accesses, "accesses", result.mflops


def _kernel_fig8_smp() -> Tuple[int, str, float]:
    from repro.bench.matmult import run_matmult
    from repro.core.specs import POWERMANNA

    node = POWERMANNA.node(scale=16)
    result = run_matmult(node, 48, version="naive", cpus=2,
                         machine_key="powermanna")
    accesses = sum(l1.access_count() for l1 in node.memory.l1s)
    return accesses, "accesses", result.elapsed_ns


def _kernel_fig9_pingpong() -> Tuple[int, str, float]:
    from repro.msg.api import build_cluster_world

    _, world = build_cluster_world()
    total = 0.0
    for nbytes in FIG9_SIZES:
        total += world.one_way_latency_ns(0, 1, nbytes)
    events = getattr(world.sim, "events_processed", 0)
    return events, "events", total


def _kernel_fig11_unidir() -> Tuple[int, str, float]:
    from repro.msg.api import build_cluster_world

    _, world = build_cluster_world()
    bw = world.unidirectional_mb_s(0, 1, 4096, count=8)
    events = getattr(world.sim, "events_processed", 0)
    return events, "events", bw


def _kernel_traffic_incast() -> Tuple[int, str, float]:
    from repro.bench.traffic import parse_classes, parse_mix, run_load
    from repro.msg.api import build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.qos import QosConfig
    from repro.network.topo import parse_topology

    qos = QosConfig(arbiter="priority", classes=parse_classes(
        "urgent:prio=0:weight=4,bulk:prio=1:weight=1"))
    sim, world = build_topology_world(
        parse_topology("xbar_tree:levels=2,arity=4"),
        crossbar_config=CrossbarConfig(qos=qos))
    result = run_load(
        world, qos=qos, load=0.8, messages=TRAFFIC_MESSAGES, seed=11,
        mix=parse_mix("urgent=incast:0.2:odd,bulk=hotspot:0.8:even"))
    return sim.events_processed, "events", result.elapsed_ns


def _kernel_topo_hypercube_1k() -> Tuple[int, str, float]:
    """Stand up a 1024-node hypercube flit fabric: the generator +
    realizer construction path at sweep scale (no simulation run)."""
    from repro.network.topo import TopologySpec, build_fabric
    from repro.sim.engine import Simulator

    spec = TopologySpec("hypercube",
                        {"dimensions": 8, "nodes_per_router": 4})
    sim = Simulator()
    fabric = build_fabric(sim, spec)
    work = (fabric.graph.number_of_nodes()
            + fabric.graph.number_of_edges())
    return work, "components", float(len(fabric.crossbars))


KERNELS: Dict[str, Callable[[], Tuple[int, str, float]]] = {
    "fig6_hint": _kernel_fig6_hint,
    "fig7_matmult": _kernel_fig7_matmult,
    "fig8_smp": _kernel_fig8_smp,
    "fig9_pingpong": _kernel_fig9_pingpong,
    "fig11_unidir": _kernel_fig11_unidir,
    "traffic_incast": _kernel_traffic_incast,
    "topo_hypercube_1k": _kernel_topo_hypercube_1k,
}


def _warm_imports() -> None:
    """Import the kernels' dependency trees before the clock starts.

    The kernel functions import lazily (so ``import repro.perf`` stays
    light); without this, a single-repeat run would charge the first
    kernel of each family its whole import chain.
    """
    import repro.bench.hint  # noqa: F401
    import repro.bench.matmult  # noqa: F401
    import repro.bench.traffic  # noqa: F401
    import repro.core.specs  # noqa: F401
    import repro.memory.vec  # noqa: F401  (numpy, loaded on first replay)
    import repro.msg.api  # noqa: F401
    import repro.network.topo  # noqa: F401


def _bench_unit(config: Dict[str, str], seed: int) -> Tuple[float, int, str,
                                                            float]:
    """One (kernel, repeat) timing unit as a sweep task (picklable).

    ``_warm_imports`` runs before the clock starts; worker processes
    persist across units, so each worker pays the import chain once.
    """
    _warm_imports()
    fn = KERNELS[config["kernel"]]
    start = time.perf_counter()
    work, unit, check = fn()
    elapsed = time.perf_counter() - start
    return elapsed, work, unit, check


def run_bench(repeats: int = 3,
              kernels: Optional[Sequence[str]] = None,
              jobs: int = 1,
              supervise=None) -> List[KernelResult]:
    """Time every kernel ``repeats`` times, optionally over ``jobs`` workers.

    Each (kernel, repeat) unit is one point of a
    :func:`~repro.parallel.sweep.run_sweep` sweep, in-process at
    ``jobs=1``.  The deterministic work/check values are identical at
    any jobs level (and asserted to be), but wall times are host
    measurements — running timing units concurrently trades timing
    fidelity for throughput, so keep ``jobs=1`` when the walls
    themselves are the deliverable.

    ``supervise`` is the sweep's
    :class:`~repro.parallel.supervise.SuperviseConfig`.  With a journal
    every unit is recorded and the bench is resumable; replayed units
    reuse the interrupted run's wall times, so a resumed bench is
    *reproducible*, not re-measured.
    """
    names = list(kernels) if kernels else list(KERNELS)
    unknown = [n for n in names if n not in KERNELS]
    if unknown:
        raise ValueError(f"unknown kernels {unknown}; have {list(KERNELS)}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    from repro.parallel import run_sweep

    units = [((name, rep), {"kernel": name})
             for name in names for rep in range(repeats)]
    # Timings must always be measured, never replayed: no cache, and no
    # observability capture inside the timed region.
    outcomes = run_sweep("bench", units, _bench_unit, jobs=jobs,
                         cache=None, capture=False, supervise=supervise)
    by_kernel: Dict[str, List[Tuple[float, int, str, float]]] = {}
    for outcome in outcomes:
        by_kernel.setdefault(outcome.key[0], []).append(outcome.value)
    results = []
    for name in names:
        runs = by_kernel[name]
        work, unit, check = runs[0][1], runs[0][2], runs[0][3]
        for elapsed, w, u, c in runs[1:]:
            if (w, c) != (work, check):
                raise AssertionError(
                    f"kernel {name} is nondeterministic: "
                    f"({w}, {c}) != ({work}, {check})")
        walls = [run[0] for run in runs]
        results.append(KernelResult(
            name=name, wall_s=min(walls), mean_s=sum(walls) / len(walls),
            repeats=repeats, work=work, work_unit=unit, check=check))
    return results


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def bench_payload(results: Sequence[KernelResult],
                  quick: bool = False) -> dict:
    """The ``BENCH_perf.json`` document."""
    kernels = {}
    for r in results:
        entry = {
            "wall_s": r.wall_s,
            "mean_s": r.mean_s,
            "repeats": r.repeats,
            "work": r.work,
            "work_unit": r.work_unit,
            f"{r.work_unit}_per_s": r.rate,
            "check": r.check,
        }
        kernels[r.name] = entry
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "kernels": kernels,
    }


def write_bench_json(path: str, results: Sequence[KernelResult],
                     quick: bool = False) -> dict:
    from repro.atomicio import atomic_write_text

    payload = bench_payload(results, quick=quick)
    atomic_write_text(
        path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload


def format_bench_table(results: Sequence[KernelResult]) -> str:
    from repro.bench.report import format_table

    rows = []
    for r in results:
        rows.append([
            r.name,
            f"{r.wall_s:.3f}",
            f"{r.rate:,.0f} {r.work_unit}/s",
            f"{r.check:.4g}",
        ])
    return format_table(
        ["kernel", "best wall (s)", "throughput", "check"],
        rows, title="Hot-kernel performance")
