"""PowerMANNA communication system.

The interconnect is a hierarchy of 16x16 crossbars joined by clock-
synchronous, byte-parallel links (60 Mbyte/s per direction) with a *stop*
signal for soft flow control.  Messages open a wormhole connection with one
``route`` byte per crossbar on the path and close it with a single
``close`` command.

* :mod:`repro.network.message` — flits, messages, route headers.
* :mod:`repro.network.link` — byte-accounted FIFOs and link pipes.
* :mod:`repro.network.crossbar` — the 16x16 crossbar ASIC model.
* :mod:`repro.network.transceiver` — asynchronous inter-cabinet links.
* :mod:`repro.network.routing` — route computation over a fabric graph.
* :mod:`repro.network.topology` — the :class:`Fabric` and the Figure-5
  topology specs (realised by :mod:`repro.network.topo`).
"""

from repro.network.crossbar import Crossbar, CrossbarConfig
from repro.network.link import ByteFifo, Link, LinkConfig
from repro.network.message import Flit, FlitKind, Message, build_wire_format
from repro.network.routing import NoRouteError, RouteTable, WiringGraph
from repro.network.topology import Fabric

__all__ = [
    "ByteFifo",
    "Crossbar",
    "CrossbarConfig",
    "Fabric",
    "Flit",
    "FlitKind",
    "Link",
    "LinkConfig",
    "Message",
    "NoRouteError",
    "RouteTable",
    "WiringGraph",
    "build_wire_format",
]
