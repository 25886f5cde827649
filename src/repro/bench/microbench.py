"""Communication microbenchmarks (Figures 9-12).

For PowerMANNA the numbers come from the full discrete-event simulation
(driver + link interface + links + crossbar); for BIP/FM they come from the
calibrated comparator models, mirroring the paper's use of published
measurements.  One :class:`CommPoint` is one (system, size) cell of a
figure.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.comparators.models import bip_model, fm_model
from repro.network.topology import cluster_spec
from repro.ni.dma import DmaNicModel
from repro.ni.driver import DriverConfig
from repro.obs import OBS

#: What a PowerMANNA comm point imports — the cache fingerprint set.
COMM_SWEEP_MODULES = ("repro.sim", "repro.network", "repro.ni", "repro.msg",
                      "repro.node", "repro.core", "repro.comparators",
                      "repro.bench.microbench")

DEFAULT_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
                 8192, 16384, 32768, 65536)
SHORT_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class CommPoint:
    """One (system, message-size) measurement."""

    system: str
    nbytes: int
    latency_us: Optional[float] = None
    gap_us: Optional[float] = None
    unidir_mb_s: Optional[float] = None
    bidir_mb_s: Optional[float] = None


def _streams_count(nbytes: int) -> int:
    """Back-to-back message count: enough for steady state, bounded for
    simulation cost on large messages."""
    if nbytes <= 1024:
        return 12
    if nbytes <= 8192:
        return 8
    return 4


def measure_point(world, a: int, b: int, nbytes: int,
                  metric: str) -> CommPoint:
    """One metric at one size between nodes ``a`` and ``b`` of ``world``.

    ``world`` is anything with the CommWorld measurement surface — a
    flit-level :class:`CommWorld` or a flow-level
    :class:`~repro.network.topo.flow.FlowWorld`.
    """
    with OBS.label_scope(system="PowerMANNA", metric=metric):
        if metric == "latency":
            value = world.one_way_latency_ns(a, b, nbytes) / 1e3
            return CommPoint("PowerMANNA", nbytes, latency_us=value)
        if metric == "gap":
            value = world.send_gap_ns(a, b, nbytes,
                                      count=_streams_count(nbytes)) / 1e3
            return CommPoint("PowerMANNA", nbytes, gap_us=value)
        if metric == "unidir":
            value = world.unidirectional_mb_s(a, b, nbytes,
                                              count=_streams_count(nbytes))
            return CommPoint("PowerMANNA", nbytes, unidir_mb_s=value)
        if metric == "bidir":
            value = world.bidirectional_mb_s(
                a, b, nbytes, rounds=max(2, _streams_count(nbytes) // 2))
            return CommPoint("PowerMANNA", nbytes, bidir_mb_s=value)
    raise ValueError(f"unknown metric {metric!r}")


def topology_point(spec_dict: Dict[str, Any], nbytes: int, metric: str,
                   fifo_words: int = 32,
                   driver_config: DriverConfig = DriverConfig()) -> CommPoint:
    """One metric at one size on a fresh world built from a topology spec.

    The measured pair is the spec world's :meth:`far_pair` — a worst-case
    route — so figures across topologies compare like for like.  On the
    default cluster spec the pair degenerates to ``(0, 1)``.  A fresh
    world per point keeps measurements independent (no warm FIFO or
    in-flight state leaks between sizes).
    """
    from repro.msg.api import build_topology_world
    from repro.network.topo import TopologySpec

    spec = TopologySpec.from_dict(spec_dict)
    _, world = build_topology_world(spec, fifo_words=fifo_words,
                                    driver_config=driver_config)
    a, b = world.far_pair()
    return measure_point(world, a, b, nbytes, metric)


def comparator_point(model: DmaNicModel, nbytes: int) -> CommPoint:
    return CommPoint(
        system=model.name,
        nbytes=nbytes,
        latency_us=model.one_way_latency_ns(nbytes) / 1e3,
        gap_us=model.gap_ns(nbytes) / 1e3,
        unidir_mb_s=model.unidirectional_mb_s(nbytes),
        bidir_mb_s=model.bidirectional_mb_s(nbytes))


def _comm_point_task(config: Dict[str, Any], seed: int) -> CommPoint:
    """One PowerMANNA point as a sweep task (module-level: pools pickle it).

    When the sweep carries a fault plan, the plan is armed *per point*
    with the derived seed, so a point's fault draws depend only on its
    own identity — never on how many draws earlier points consumed.
    """
    plan_dict = config.get("fault_plan")
    if plan_dict is not None:
        from repro.faults import FaultPlan, inject

        fault_ctx = inject(FaultPlan.from_dict(plan_dict).with_seed(seed))
    else:
        fault_ctx = contextlib.nullcontext()
    with fault_ctx:
        return topology_point(config["topology"], config["nbytes"],
                              config["metric"], config["fifo_words"],
                              config["driver_config"])


def comm_sweep(metric: str, sizes: Sequence[int] = DEFAULT_SIZES,
               fifo_words: int = 32,
               driver_config: DriverConfig = DriverConfig(),
               include_comparators: bool = True,
               jobs: int = 1,
               cache=None,
               fault_plan=None,
               supervise=None,
               topology=None,
               ) -> Dict[str, List[CommPoint]]:
    """One figure's worth of data: metric across sizes and systems.

    ``metric`` is one of "latency" (Fig. 9), "gap" (Fig. 10), "unidir"
    (Fig. 11), "bidir" (Fig. 12).  The PowerMANNA points (the expensive
    discrete-event runs) fan out over ``jobs`` workers and consult
    ``cache``; the BIP/FM comparator points are closed-form arithmetic
    and stay in-process.  ``fault_plan`` (a :class:`repro.faults.FaultPlan`)
    is armed per point with a seed derived from the point's identity.

    ``topology`` (a :class:`~repro.network.topo.spec.TopologySpec`,
    default the 8-node cluster) runs the PowerMANNA points on that
    fabric — at flit or flow fidelity per the spec — measuring its far
    pair.
    """
    from repro.parallel import run_sweep, sweep_values

    plan_dict = fault_plan.to_dict() if fault_plan is not None else None
    spec_dict = (topology if topology is not None
                 else cluster_spec()).to_dict()
    points = [((metric, n), {"metric": metric, "nbytes": n,
                             "fifo_words": fifo_words,
                             "driver_config": driver_config,
                             "fault_plan": plan_dict,
                             "topology": spec_dict})
              for n in sizes]
    outcomes = run_sweep(f"comm:{metric}", points, _comm_point_task,
                         jobs=jobs, cache=cache, modules=COMM_SWEEP_MODULES,
                         seed_base=fault_plan.seed if fault_plan else 0,
                         supervise=supervise)
    result: Dict[str, List[CommPoint]] = {}
    result["PowerMANNA"] = sweep_values(outcomes)
    if include_comparators:
        for model in (bip_model(), fm_model()):
            result[model.name] = [comparator_point(model, n) for n in sizes]
    return result


def metric_value(point: CommPoint, metric: str) -> float:
    value = {
        "latency": point.latency_us,
        "gap": point.gap_us,
        "unidir": point.unidir_mb_s,
        "bidir": point.bidir_mb_s,
    }[metric]
    if value is None:
        raise ValueError(f"point {point} lacks metric {metric!r}")
    return value
