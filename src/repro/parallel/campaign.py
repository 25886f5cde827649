"""Multi-seed chaos campaigns: N fault-injection runs, one statistic.

A single chaos run answers "what happened under this seed"; a campaign
answers "what happens *typically*" by sweeping N derived seeds over the
same plan and aggregating goodput, delivery and recovery behaviour with
mean/p50/p99.  Seeds are derived per point from the campaign identity
(:func:`repro.parallel.sweep.derive_seed` with the plan's seed as base),
so a campaign is exactly reproducible and scales over ``--jobs`` workers
with byte-identical reports at any jobs level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.parallel.cache import ResultCache
from repro.parallel.sweep import run_sweep

#: What one chaos run imports; the campaign cache fingerprint covers it.
CHAOS_SWEEP_MODULES = ("repro.sim", "repro.network", "repro.ni",
                       "repro.msg", "repro.faults", "repro.core")

#: Scalars aggregated across seeds (dotted paths into the report dict).
AGGREGATED = (
    "goodput_mb_s",
    "duration_ns",
    "delivered",
    "undelivered",
    "channel_stats.retransmissions",
    "channel_stats.timeouts",
    "channel_stats.reroutes",
)


def _lookup(report: Dict[str, Any], path: str) -> float:
    value: Any = report
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return 0.0
        value = value[part]
    return float(value)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def aggregate(samples: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "mean": math.fsum(ordered) / len(ordered) if ordered else 0.0,
        "p50": _quantile(ordered, 0.5),
        "p99": _quantile(ordered, 0.99),
        "min": ordered[0] if ordered else 0.0,
        "max": ordered[-1] if ordered else 0.0,
    }


@dataclass
class CampaignReport:
    """N seeded chaos runs plus their aggregate statistics."""

    topology: str
    protocol: str
    base_seed: int
    seeds: List[int]
    runs: List[Dict[str, Any]]
    aggregates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    timeline_bands: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def total_delivered(self) -> int:
        return int(sum(r.get("delivered", 0) for r in self.runs))

    @property
    def total_undelivered(self) -> int:
        return int(sum(r.get("undelivered", 0) for r in self.runs))

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "topology": self.topology,
            "protocol": self.protocol,
            "base_seed": self.base_seed,
            "seeds": list(self.seeds),
            "runs": [dict(r) for r in self.runs],
            "aggregates": {k: dict(v) for k, v in self.aggregates.items()},
        }
        # Only sampled campaigns carry bands, so unsampled reports keep
        # their pre-timeline byte format.
        if self.timeline_bands:
            payload["timeline_bands"] = {
                k: dict(v) for k, v in self.timeline_bands.items()}
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _campaign_point(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One campaign cell: a full chaos run under a derived seed.

    Module-level (pool workers pickle it) and lazy-importing — the chaos
    harness pulls in the topology and protocol layers, which must not
    load just because :mod:`repro.parallel` was imported.
    """
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan
    from repro.obs import OBS

    plan = FaultPlan.from_dict(config["plan"]).with_seed(seed)
    report = run_chaos(plan,
                       topology=config["topology"],
                       protocol=config["protocol"],
                       flows=config["flows"],
                       messages=config["messages"],
                       nbytes=config["nbytes"],
                       window=config["window"],
                       error_rate=config["error_rate"],
                       ack_error_rate=config["ack_error_rate"])
    run = report.to_dict()
    # Under a sampling session, embed this seed's per-name mean curves so
    # the campaign can band them across seeds (the ambient merge loses
    # per-seed separation — these compact curves keep it).
    if OBS.enabled and OBS.timeline.enabled and len(OBS.timeline):
        run["timeline"] = {
            name: {"interval_ns": interval,
                   "means": [round(m, 6) for m in means]}
            for name, (interval, means)
            in OBS.timeline.name_curves().items()}
    return run


def run_campaign(plan,
                 seeds: int,
                 *,
                 topology: str = "cluster",
                 protocol: str = "sliding",
                 flows: int = 4,
                 messages: int = 8,
                 nbytes: int = 1024,
                 window: int = 8,
                 error_rate: float = 0.0,
                 ack_error_rate: Optional[float] = None,
                 jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 supervise=None) -> CampaignReport:
    """Sweep ``seeds`` derived seeds of one chaos plan and aggregate."""
    if seeds < 1:
        raise ValueError(f"a campaign needs >= 1 seed, got {seeds}")
    config = {
        "plan": plan.to_dict(),
        "topology": topology,
        "protocol": protocol,
        "flows": flows,
        "messages": messages,
        "nbytes": nbytes,
        "window": window,
        "error_rate": error_rate,
        "ack_error_rate": ack_error_rate,
    }
    sweep_id = f"chaos-campaign:{topology}:{protocol}"
    points = [(("seed", index), config) for index in range(seeds)]
    outcomes = run_sweep(sweep_id, points, _campaign_point, jobs=jobs,
                         cache=cache, modules=CHAOS_SWEEP_MODULES,
                         seed_base=plan.seed, supervise=supervise)
    runs = [outcome.value for outcome in outcomes]
    report = CampaignReport(
        topology=topology, protocol=protocol, base_seed=plan.seed,
        seeds=[outcome.seed for outcome in outcomes], runs=runs)
    for path in AGGREGATED:
        report.aggregates[path] = aggregate([_lookup(r, path) for r in runs])
    report.timeline_bands = _timeline_bands(runs)
    return report


def _timeline_bands(runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-interval p50/p99 bands of each series name, across seeds.

    Every sampled run embeds per-name mean curves; seeds may have
    downsampled to different (power-of-two related) intervals, so finer
    curves are pairwise-coarsened to the coarsest before ranking each
    interval across seeds.
    """
    curves_by_name: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        for name, curve in (run.get("timeline") or {}).items():
            curves_by_name.setdefault(name, []).append(curve)
    bands: Dict[str, Dict[str, Any]] = {}
    for name, curves in sorted(curves_by_name.items()):
        target = max(c["interval_ns"] for c in curves)
        aligned = []
        for curve in curves:
            means = list(curve["means"])
            interval = curve["interval_ns"]
            while interval < target and means:
                means = [(means[i] + (means[i + 1]
                                      if i + 1 < len(means) else means[i]))
                         / 2.0
                         for i in range(0, len(means), 2)]
                interval *= 2.0
            aligned.append(means)
        length = max((len(m) for m in aligned), default=0)
        p50s, p99s = [], []
        for i in range(length):
            ordered = sorted(m[i] for m in aligned if i < len(m))
            p50s.append(round(_quantile(ordered, 0.5), 6))
            p99s.append(round(_quantile(ordered, 0.99), 6))
        bands[name] = {"interval_ns": target, "p50": p50s, "p99": p99s}
    return bands


def format_campaign(report: CampaignReport) -> str:
    """Human-readable campaign summary for the CLI."""
    from repro.bench.report import format_table

    rows = []
    for seed, run in zip(report.seeds, report.runs):
        stats = run.get("channel_stats", {})
        rows.append([
            seed,
            f"{run.get('delivered', 0)}/{run.get('delivered', 0) + run.get('undelivered', 0)}",
            f"{run.get('goodput_mb_s', 0.0):.2f}",
            f"{stats.get('retransmissions', 0):g}",
            f"{stats.get('reroutes', 0):g}",
            f"{run.get('duration_ns', 0.0) / 1e6:.3f}",
        ])
    table = format_table(
        ["seed", "delivered", "goodput MB/s", "retx", "reroutes", "ms"],
        rows,
        title=(f"Chaos campaign: {len(report.seeds)} seeds, "
               f"{report.topology} topology, {report.protocol} protocol"))
    lines = [table, ""]
    for path in AGGREGATED:
        agg = report.aggregates.get(path, {})
        lines.append(
            f"  {path:<28} mean={agg.get('mean', 0.0):.3f} "
            f"p50={agg.get('p50', 0.0):.3f} p99={agg.get('p99', 0.0):.3f}")
    if report.timeline_bands:
        lines.append("  timeline bands across seeds (per-interval):")
        for name, band in sorted(report.timeline_bands.items()):
            p50_peak = max(band["p50"], default=0.0)
            p99_peak = max(band["p99"], default=0.0)
            lines.append(f"    {name:<26} p50 peak={p50_peak:.3f} "
                         f"p99 peak={p99_peak:.3f}")
    return "\n".join(lines)
