"""The flow-level fidelity tier: calibrated analytic message pricing.

The flit-level model is the ground truth, but standing up a 1k-4k-node
machine as discrete-event processes is wasteful when the question is
"what do latency and bandwidth look like at scale".  This tier prices a
message from

* **calibrated constants** — affine fits (``c0 + c1 * nbytes``) of
  latency, gap, send overhead and bidirectional round time, measured
  *once* per configuration by running the flit-level model on the
  8-node Figure-5a cluster (one crossbar, no async hops); and
* **path costs from the wiring graph** — each crossbar beyond the first
  adds its route-setup/forward/link-stage time, each asynchronous hop
  adds the transceiver resync plus cable flight, both straight from the
  same :class:`LinkConfig`/:class:`CrossbarConfig`/:class:`TransceiverConfig`
  constants the flit model integrates.

Because both terms derive from the flit model (by measurement and by
shared constants respectively), the tiers agree on small machines — the
equivalence suite in ``tests/network/test_topo_flow.py`` holds them to
:data:`repro.comparators.calibration.FLOW_EQUIVALENCE` and to identical
hop counts and reachability — and the flow tier then extrapolates to
machines the flit model cannot touch interactively.

Determinism: calibration is a deterministic simulation, the fits are
closed-form, and path costs are graph lookups, so a flow-tier sweep is
byte-identical at any ``--jobs`` level like every other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.network.crossbar import CrossbarConfig
from repro.network.link import LinkConfig
from repro.network.routing import RouteTable
from repro.network.topo.generators import build_graph
from repro.network.topo.spec import TopologySpec
from repro.network.transceiver import TransceiverConfig

#: Message sizes the affine fits anchor at.  Far enough apart that the
#: per-byte slope is well conditioned, small enough that calibration
#: stays interactive (~a second of flit simulation).
CALIBRATION_SIZES = (256, 8192)

#: Extra anchors for the small-message gap regime: below ~256 bytes the
#: inter-send gap is bound by per-message driver work, not the link, so
#: the gap model is the max of two affine fits (overhead-bound and
#: bandwidth-bound).
GAP_FLOOR_SIZES = (8, 64)


@dataclass(frozen=True)
class FlowParams:
    """Affine fit constants, all in nanoseconds (per message / per byte).

    ``latency(n) = lat0 + lat1 * n`` on a one-crossbar path;
    ``extra_xbar_ns`` / ``async_hop_ns`` are added per additional
    crossbar / per asynchronous inter-crossbar hop on the actual route.
    """

    lat0: float
    lat1: float
    gap0: float
    gap1: float
    gapf0: float
    gapf1: float
    ovh0: float
    ovh1: float
    round0: float
    round1: float
    extra_xbar_ns: float
    async_hop_ns: float

    def latency_ns(self, nbytes: int, crossbars: int,
                   async_hops: int) -> float:
        base = self.lat0 + self.lat1 * nbytes
        return (base + (crossbars - 1) * self.extra_xbar_ns
                + async_hops * self.async_hop_ns)

    def gap_ns(self, nbytes: int) -> float:
        # The steady-state gap is whichever bound bites: per-message
        # driver work (dominates small messages) or the bottleneck link
        # (the same 60 MB/s stage on every path, so path length drops
        # out of both regimes).
        return max(self.gapf0 + self.gapf1 * nbytes,
                   self.gap0 + self.gap1 * nbytes)

    def overhead_ns(self, nbytes: int) -> float:
        return self.ovh0 + self.ovh1 * nbytes

    def round_ns(self, nbytes: int) -> float:
        return self.round0 + self.round1 * nbytes


def _affine_fit(sizes: Tuple[int, int],
                values: Tuple[float, float]) -> Tuple[float, float]:
    (n_a, n_b), (v_a, v_b) = sizes, values
    slope = (v_b - v_a) / (n_b - n_a)
    return v_a - slope * n_a, slope


_calibration_memo: Dict[tuple, FlowParams] = {}


def clear_calibration_memo() -> None:
    """Forget calibrations (tests that tweak configs mid-process)."""
    _calibration_memo.clear()


def calibrate_flow(link_config: LinkConfig = LinkConfig(),
                   crossbar_config: CrossbarConfig = CrossbarConfig(),
                   driver_config=None,
                   fifo_words: int = 32,
                   transceiver_config: TransceiverConfig = TransceiverConfig(),
                   sizes: Tuple[int, int] = CALIBRATION_SIZES) -> FlowParams:
    """Fit :class:`FlowParams` against flit-level runs on the 8-node
    cluster with these exact configs.  Memoised per configuration."""
    from repro.parallel.cache import canonical

    key = canonical((link_config, crossbar_config, driver_config,
                     fifo_words, transceiver_config, sizes))
    hit = _calibration_memo.get(key)
    if hit is not None:
        return hit

    from repro.msg.api import build_cluster_world
    from repro.msg.logp import measure_send_overhead_ns
    from repro.ni.driver import DriverConfig

    driver = driver_config if driver_config is not None else DriverConfig()

    def fresh():
        _, world = build_cluster_world(fifo_words=fifo_words,
                                       link_config=link_config,
                                       crossbar_config=crossbar_config,
                                       driver_config=driver)
        return world

    lats, gaps, ovhs, rounds = [], [], [], []
    for nbytes in sizes:
        lats.append(fresh().one_way_latency_ns(0, 1, nbytes))
        gaps.append(fresh().send_gap_ns(0, 1, nbytes))
        ovhs.append(measure_send_overhead_ns(fresh(), 0, 1, nbytes))
        bidir = fresh().bidirectional_mb_s(0, 1, nbytes)
        # One bidirectional round moves 2*nbytes; MB/s = bytes*1e3/ns.
        rounds.append(2 * nbytes * 1e3 / bidir if bidir > 0 else 0.0)
    floor_gaps = tuple(fresh().send_gap_ns(0, 1, nbytes)
                       for nbytes in GAP_FLOOR_SIZES)

    lat0, lat1 = _affine_fit(sizes, tuple(lats))
    gap0, gap1 = _affine_fit(sizes, tuple(gaps))
    gapf0, gapf1 = _affine_fit(GAP_FLOOR_SIZES, floor_gaps)
    ovh0, ovh1 = _affine_fit(sizes, tuple(ovhs))
    round0, round1 = _affine_fit(sizes, tuple(rounds))
    # Per-hop terms come straight from the component constants the flit
    # model integrates: an extra crossbar costs its route setup plus the
    # switch-core forward plus one more link stage's first-flit time; an
    # asynchronous hop adds the transceiver's clock-domain resync and the
    # cable flight.
    extra_xbar = (crossbar_config.route_setup_ns + crossbar_config.forward_ns
                  + link_config.propagation_ns + link_config.byte_ns)
    async_hop = (transceiver_config.resync_ns
                 + transceiver_config.propagation_ns)
    params = FlowParams(lat0=lat0, lat1=lat1, gap0=gap0, gap1=gap1,
                        gapf0=gapf0, gapf1=gapf1,
                        ovh0=ovh0, ovh1=ovh1, round0=round0, round1=round1,
                        extra_xbar_ns=extra_xbar, async_hop_ns=async_hop)
    _calibration_memo[key] = params
    return params


class FlowWorld:
    """The flow tier's stand-in for a :class:`~repro.msg.api.CommWorld`.

    Exposes the same measurement surface (``one_way_latency_ns``,
    ``send_gap_ns``, ``unidirectional_mb_s``, ``bidirectional_mb_s``)
    computed analytically, so the communication sweeps run unmodified on
    either tier.  Routing runs over the real wiring graph — hop counts,
    route bytes and reachability are exactly what the flit fabric would
    compute, only the *timing* is modelled.
    """

    fidelity = "flow"

    def __init__(self, spec: TopologySpec,
                 link_config: LinkConfig = LinkConfig(),
                 crossbar_config: CrossbarConfig = CrossbarConfig(),
                 driver_config=None,
                 fifo_words: int = 32,
                 transceiver_config: TransceiverConfig = TransceiverConfig(),
                 plane: int = 0,
                 params: Optional[FlowParams] = None):
        self.spec = spec
        self.plane = plane
        self.graph = build_graph(spec, ports=crossbar_config.ports)
        self.routes = RouteTable(self.graph)
        self.params = params if params is not None else calibrate_flow(
            link_config, crossbar_config, driver_config, fifo_words,
            transceiver_config)
        self._node_ids = sorted({key[1] for key in self.graph.nodes
                                 if key[0] == "node" and key[2] == plane})

    # -- structure ----------------------------------------------------------

    def node_ids(self) -> List[int]:
        return list(self._node_ids)

    def _key(self, node: int) -> Hashable:
        from repro.network.topology import node_key

        return node_key(node, self.plane)

    def path_costs(self, a: int, b: int) -> Tuple[int, int]:
        """(crossbars on the route, asynchronous hops on the route)."""
        path = self.routes.path(self._key(a), self._key(b))
        crossbars = sum(1 for hop in path if hop[0] == "xbar")
        async_hops = sum(
            1 for here, there in zip(path, path[1:])
            if self.graph.edges[here, there].get("asynchronous"))
        return crossbars, async_hops

    def hops(self, a: int, b: int) -> int:
        return self.routes.crossbars_on_path(self._key(a), self._key(b))

    def far_pair(self) -> Tuple[int, int]:
        """See :func:`repro.network.topology.far_pair`."""
        from repro.network.topology import far_pair

        return far_pair(self.graph, self._node_ids, self.plane)

    # -- the CommWorld measurement surface ----------------------------------

    def one_way_latency_ns(self, a: int, b: int, nbytes: int,
                           reps: int = 4) -> float:
        crossbars, async_hops = self.path_costs(a, b)
        return self.params.latency_ns(nbytes, crossbars, async_hops)

    def send_gap_ns(self, a: int, b: int, nbytes: int,
                    count: int = 16) -> float:
        self.path_costs(a, b)  # raises NoRouteError on dead pairs
        return self.params.gap_ns(nbytes)

    def unidirectional_mb_s(self, a: int, b: int, nbytes: int,
                            count: int = 8) -> float:
        # Pipeline fill (one latency) then steady-state gaps, exactly the
        # structure of the flit measurement loop.
        latency = self.one_way_latency_ns(a, b, nbytes)
        elapsed = latency + (count - 1) * self.params.gap_ns(nbytes)
        return count * nbytes * 1e3 / elapsed if elapsed > 0 else 0.0

    def bidirectional_mb_s(self, a: int, b: int, nbytes: int,
                           rounds: int = 4) -> float:
        crossbars, async_hops = self.path_costs(a, b)
        extra = ((crossbars - 1) * self.params.extra_xbar_ns
                 + async_hops * self.params.async_hop_ns)
        # Back-to-back exchanges pipeline through the fabric, so the
        # extra path latency is a one-time fill cost (both directions),
        # not a per-round tax.
        elapsed = rounds * self.params.round_ns(nbytes) + 2 * extra
        total_bytes = 2 * rounds * nbytes
        return total_bytes * 1e3 / elapsed if elapsed > 0 else 0.0
