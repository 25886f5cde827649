"""Fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec` entries.
Each spec is either *stochastic* (a per-opportunity probability inside a
time window — link bit-error bursts, flit drops, transceiver stalls, NI
FIFO drops, node hangs) or *scheduled* (a hard fault applied at one
simulation time — a crossbar output port dying, a node crashing).

Plans serialise to/from JSON so a chaos experiment is reproducible from a
file plus a seed::

    {"seed": 7,
     "faults": [
       {"kind": "link_corrupt", "site": "*", "probability": 0.02,
        "start_ns": 0, "end_ns": 2e6},
       {"kind": "xbar_port_down", "site": "row0", "port": 2,
        "at_ns": 150000.0}
     ]}

Sites are matched by :mod:`fnmatch` glob against component names (links,
crossbars, transceivers, NIs and drivers all pass their ``name``
to the engine), so one spec can cover a whole layer (``"*spine*"``) or a
single component.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

#: Stochastic fault kinds (probability per opportunity inside a window).
STOCHASTIC_KINDS = (
    "link_corrupt",   # message corrupted crossing a link (CRC catches it)
    "flit_drop",      # a DATA flit vanishes on a link
    "xcvr_stall",     # transceiver pauses for stall_ns before relaying
    "ni_drop",        # NI send FIFO overflows and drops a DATA flit
    "node_hang",      # node CPU stalls for stall_ns per driver op
)

#: Scheduled fault kinds (applied once at ``at_ns``).
SCHEDULED_KINDS = (
    "xbar_port_down",  # crossbar output port dies (needs site + port)
    "node_crash",      # node stops responding (needs node)
)

KINDS = STOCHASTIC_KINDS + SCHEDULED_KINDS


class FaultPlanError(ValueError):
    """Malformed fault plan or spec."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault, stochastic or scheduled.

    Attributes:
        kind: one of :data:`KINDS`.
        site: fnmatch glob against the component name the hook reports.
        probability: per-opportunity firing probability (stochastic kinds).
        start_ns / end_ns: active window for stochastic kinds.
        at_ns: application time for scheduled kinds.
        stall_ns: pause length for ``xcvr_stall`` / ``node_hang``.
        port: output channel for ``xbar_port_down``.
        node: node id for ``node_crash``.
    """

    kind: str
    site: str = "*"
    probability: float = 0.0
    start_ns: float = 0.0
    end_ns: float = math.inf
    at_ns: Optional[float] = None
    stall_ns: float = 5_000.0
    port: Optional[int] = None
    node: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if self.kind in STOCHASTIC_KINDS:
            if not 0.0 <= self.probability <= 1.0:
                raise FaultPlanError(
                    f"{self.kind}: probability {self.probability} not in [0, 1]")
            if self.end_ns < self.start_ns:
                raise FaultPlanError(
                    f"{self.kind}: window ends ({self.end_ns}) before it "
                    f"starts ({self.start_ns})")
        else:
            if self.at_ns is None or self.at_ns < 0:
                raise FaultPlanError(
                    f"{self.kind}: scheduled faults need a nonnegative at_ns")
        if self.kind == "xbar_port_down" and self.port is None:
            raise FaultPlanError("xbar_port_down needs a port")
        if self.kind == "node_crash" and self.node is None:
            raise FaultPlanError("node_crash needs a node")
        if self.stall_ns < 0:
            raise FaultPlanError("stall_ns must be nonnegative")

    @property
    def scheduled(self) -> bool:
        return self.kind in SCHEDULED_KINDS

    def matches(self, site: str) -> bool:
        return fnmatch.fnmatchcase(site, self.site)

    def active(self, now: float) -> bool:
        return self.start_ns <= now < self.end_ns

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "site": self.site}
        if self.kind in STOCHASTIC_KINDS:
            out["probability"] = self.probability
            if self.start_ns:
                out["start_ns"] = self.start_ns
            if self.end_ns != math.inf:
                out["end_ns"] = self.end_ns
            if self.kind in ("xcvr_stall", "node_hang"):
                out["stall_ns"] = self.stall_ns
        else:
            out["at_ns"] = self.at_ns
            if self.port is not None:
                out["port"] = self.port
            if self.node is not None:
                out["node"] = self.node
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "FaultSpec":
        if not isinstance(raw, Mapping):
            raise FaultPlanError(f"fault spec must be an object, got {raw!r}")
        allowed = {"kind", "site", "probability", "start_ns", "end_ns",
                   "at_ns", "stall_ns", "port", "node"}
        unknown = set(raw) - allowed
        if unknown:
            raise FaultPlanError(
                f"unknown fault spec fields {sorted(unknown)}")
        if "kind" not in raw:
            raise FaultPlanError("fault spec needs a kind")
        return cls(**{k: raw[k] for k in raw})  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the faults to inject; the whole chaos experiment input."""

    seed: int = 0
    faults: Sequence[FaultSpec] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    @property
    def stochastic(self) -> List[FaultSpec]:
        return [s for s in self.faults if not s.scheduled]

    @property
    def scheduled(self) -> List[FaultSpec]:
        return [s for s in self.faults if s.scheduled]

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "faults": [s.to_dict() for s in self.faults]}

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "FaultPlan":
        if not isinstance(raw, Mapping):
            raise FaultPlanError(f"fault plan must be an object, got {raw!r}")
        unknown = set(raw) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan fields {sorted(unknown)}")
        faults_raw = raw.get("faults", [])
        if not isinstance(faults_raw, Sequence) or isinstance(faults_raw, str):
            raise FaultPlanError("'faults' must be a list of fault specs")
        return cls(seed=int(raw.get("seed", 0)),
                   faults=[FaultSpec.from_dict(f) for f in faults_raw])

    def save(self, path: str) -> None:
        from repro.atomicio import atomic_write_text

        atomic_write_text(
            path,
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise FaultPlanError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(raw)


def uniform_error_plan(error_rate: float, seed: int = 0,
                       site: str = "*") -> FaultPlan:
    """The classic whole-run uniform link corruption plan (the only
    scenario the old injector could express), as a :class:`FaultPlan`."""
    if error_rate <= 0.0:
        return FaultPlan(seed=seed)
    return FaultPlan(seed=seed, faults=[
        FaultSpec(kind="link_corrupt", site=site, probability=error_rate)])
