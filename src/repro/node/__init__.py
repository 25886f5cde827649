"""The PowerMANNA node: CPUs, memory hierarchy and bus fabric in one model.

Two design decisions let the dual-MPC620 node fit one board without
sacrificing performance (paper Section 2): a multi-master **bus switch**
built from eleven ADSP (address/data path switch) slices gives every
device a point-to-point data path, and one central **dispatcher**
sequences the MPC620's snoop address phases and split transactions.

Both are modelled by their timing, not as separate components: a
:class:`NodeModel` built with ``FabricKind.SWITCHED``
(:mod:`repro.memory.mp`) lets data phases of different CPUs overlap and
serialises only the address phases, through
:class:`repro.memory.snoop.AddressPhaseSequencer`.  That is what the
dual node's speedup (Figure 8) and the four-CPU saturation study rest on.

:mod:`repro.node.node` assembles processors, memory and fabric into node
models for PowerMANNA and the two comparator machines.
"""

from repro.node.node import NodeModel

__all__ = [
    "NodeModel",
]
