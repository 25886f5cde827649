"""Application-level studies on the simulated machine.

The paper closes by asking "to what extent application performance can
benefit ... from the short set up times and low latencies provided by the
lightweight communication protocol" — a question it leaves to future work
because the SMP Linux port wasn't ready.  This package answers it on the
reproduction with a real distributed computation:
:mod:`repro.apps.stencil`, a 1-D Jacobi heat-equation solver with halo
exchange (latency-sensitive: two small messages per iteration).

It runs genuine numerics (results are checked against a serial reference)
while every message crosses the simulated network and every flop is
charged through the CPU model.
"""

from repro.apps.stencil import StencilResult, run_stencil, serial_stencil

__all__ = [
    "StencilResult",
    "run_stencil",
    "serial_stencil",
]
