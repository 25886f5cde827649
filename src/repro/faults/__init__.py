"""repro.faults — the cross-layer fault-injection framework.

One ambient :data:`FAULTS` context object is shared by every injection
hook in the library (links, crossbars, transceivers, link interfaces,
drivers).  It is *disabled* by default — every hook is
written as ::

    from repro.faults import FAULTS
    ...
    if FAULTS.enabled and FAULTS.engine.fires("flit_drop", self.name,
                                              self.sim.now):
        ...

so a fault-free run pays exactly one attribute test per site, mirroring
the ``repro.obs`` pattern.  Enabling is scoped::

    from repro.faults import FaultPlan, FaultSpec, inject

    plan = FaultPlan(seed=7, faults=[
        FaultSpec(kind="link_corrupt", probability=0.02)])
    with inject(plan) as engine:
        run_the_experiment()
    print(engine.stats.as_dict())

Scheduled (hard) faults — crossbar ports dying, nodes crashing — are
applied on the simulation timeline by :class:`FaultController`, which also
feeds the route tables so traffic reroutes around the failure.  The whole
loop (plan -> injection -> recovery -> report) is packaged by
:func:`repro.faults.chaos.run_chaos` and the ``chaos`` CLI subcommand.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.faults.engine import FaultEngine, FaultInjection
from repro.faults.harness import (
    HARNESS_FAULTS_ENV,
    HARNESS_KINDS,
    HarnessFaultError,
    HarnessFaultPlan,
    HarnessFaultSpec,
    load_harness_plan,
)
from repro.faults.plan import (
    KINDS,
    SCHEDULED_KINDS,
    STOCHASTIC_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    uniform_error_plan,
)

FAULTS = FaultInjection()


@contextmanager
def inject(plan_or_engine: Union[FaultPlan, FaultEngine],
           ) -> Iterator[FaultEngine]:
    """Enable fault injection for the block; restores the prior state
    afterwards (nesting swaps engines, it does not merge them)."""
    if isinstance(plan_or_engine, FaultEngine):
        engine = plan_or_engine
    else:
        engine = FaultEngine(plan_or_engine)
    previous: tuple[bool, Optional[FaultEngine]] = (FAULTS.enabled,
                                                    FAULTS.engine)
    FAULTS.activate(engine)
    try:
        yield engine
    finally:
        FAULTS.enabled, FAULTS.engine = previous


__all__ = [
    "FAULTS",
    "FaultEngine",
    "FaultInjection",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "HARNESS_FAULTS_ENV",
    "HARNESS_KINDS",
    "HarnessFaultError",
    "HarnessFaultPlan",
    "HarnessFaultSpec",
    "KINDS",
    "load_harness_plan",
    "SCHEDULED_KINDS",
    "STOCHASTIC_KINDS",
    "inject",
    "uniform_error_plan",
]
