"""The runtime fault engine behind the :data:`repro.faults.FAULTS` guard.

Components call in from their injection hooks (see ``network/link.py``,
``network/crossbar.py``, ``network/transceiver.py``, ``ni/interface.py``,
``ni/driver.py``, ``node/dispatcher.py``)::

    from repro.faults import FAULTS
    ...
    if FAULTS.enabled and FAULTS.engine.fires("flit_drop", self.name,
                                              self.sim.now):
        ...  # the fault happens

Determinism: every (spec, site) pair draws from its own RNG stream whose
seed is a CRC of ``plan.seed``, the spec's index and the site name.  A
site therefore sees the same fault decisions run-to-run regardless of what
other components exist or in which order they query — the property the
chaos CI job asserts (same plan + seed => bit-identical metrics).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import OBS
from repro.sim.stats import Counter


def _stream_seed(seed: int, index: int, site: str) -> int:
    # zlib.crc32 rather than repro.ni.crc to keep this importable from the
    # NI layer itself (same polynomial, same value).
    return zlib.crc32(f"{seed}:{index}:{site}".encode("utf-8"))


class FaultEngine:
    """Evaluates a :class:`FaultPlan` at injection sites and keeps the
    cross-layer fault state (corrupted messages, crashed nodes)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = Counter("faults")
        self._streams: Dict[Tuple[int, str], random.Random] = {}
        # Specs indexed by kind, remembering their position in the plan so
        # stream seeds stay stable under reordering-by-kind.
        self._by_kind: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.faults):
            self._by_kind.setdefault(spec.kind, []).append((index, spec))
        # Messages corrupted in flight; consumed by the NI CRC check.
        self._corrupt_ids: Set[int] = set()
        # Nodes the controller has crashed (node id -> crash time).
        self._crashed: Dict[int, float] = {}

    # -- stochastic queries (hot path: one dict lookup when kind unused) ---

    def fires(self, kind: str, site: str, now: float) -> Optional[FaultSpec]:
        """Whether a ``kind`` fault hits ``site`` at this opportunity."""
        specs = self._by_kind.get(kind)
        if not specs:
            return None
        for index, spec in specs:
            if not spec.active(now) or not spec.matches(site):
                continue
            if spec.probability <= 0.0:
                continue
            if self._stream(index, site).random() < spec.probability:
                self._record(kind, site)
                return spec
        return None

    def stall_ns(self, kind: str, site: str, now: float) -> float:
        """Stall duration for ``xcvr_stall``/``node_hang`` hooks (0 = none)."""
        spec = self.fires(kind, site, now)
        return spec.stall_ns if spec is not None else 0.0

    def _stream(self, index: int, site: str) -> random.Random:
        key = (index, site)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(_stream_seed(self.plan.seed, index, site))
            self._streams[key] = rng
        return rng

    # -- message corruption bookkeeping ------------------------------------

    def mark_corrupt(self, message_id: int) -> None:
        """A link corrupted this message; the receiving NI's CRC will see it."""
        self._corrupt_ids.add(message_id)

    def is_corrupt(self, message_id: int) -> bool:
        """Whether a link corrupted this message and no CRC consumed it."""
        return message_id in self._corrupt_ids

    def consume_corrupt(self, message_id: int) -> bool:
        """CRC check at the receiver: True exactly once per corruption."""
        if message_id in self._corrupt_ids:
            self._corrupt_ids.discard(message_id)
            return True
        return False

    # -- scheduled (hard) fault state --------------------------------------

    def crash_node(self, node: int, now: float) -> None:
        self._crashed.setdefault(node, now)
        self._record("node_crash", f"n{node}")

    def node_down(self, node: int) -> bool:
        return node in self._crashed

    def crashed_nodes(self) -> Dict[int, float]:
        return dict(self._crashed)

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str, site: str) -> None:
        self.stats.incr(kind)
        if OBS.enabled:
            OBS.metrics.incr("faults.injected", kind=kind, site=site)


class FaultInjection:
    """The ambient fault-injection context (one predicate when disabled).

    Mirrors :class:`repro.obs.Observability`: components cache a reference
    to ``FAULTS`` itself, never to ``FAULTS.engine``, and every hook is
    written as ``if FAULTS.enabled: ...`` so a fault-free run pays exactly
    one attribute test per site.
    """

    __slots__ = ("enabled", "engine")

    def __init__(self):
        self.enabled = False
        self.engine: Optional[FaultEngine] = None

    def activate(self, engine: FaultEngine) -> None:
        self.engine = engine
        self.enabled = True

    def deactivate(self) -> None:
        self.enabled = False
        self.engine = None
