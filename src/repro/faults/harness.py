"""Harness-level fault injection: break the *runner*, not the machine.

PR 2's :mod:`repro.faults` injects faults into the simulated hardware;
this module extends the same philosophy to the execution harness itself,
so CI can deterministically kill, hang or corrupt pool workers mid-sweep
and assert that the supervisor (:mod:`repro.parallel.supervise`) recovers.

A :class:`HarnessFaultPlan` is injected through the environment —
``REPRO_HARNESS_FAULTS`` holds either inline JSON or a path to a JSON
file — because pool workers inherit the environment however they were
started (fork or spawn), and because the plan must reach the worker
*before* any task does.  Kinds:

* ``worker_crash`` — the worker ``os._exit``\\ s while running point
  ``point`` (attempt ``attempt``, default 0): a simulated OOM kill.
* ``worker_hang`` — the worker sleeps ``hang_s`` seconds before running
  the point: a simulated livelock, caught by ``--point-timeout``.
* ``result_corrupt`` — the worker flips a byte of its pickled result
  after digesting it, so the supervisor's integrity check fails and the
  point retries.
* ``run_interrupt`` — supervisor-side: after ``after_points`` points
  complete in this run, a clean SIGINT-equivalent shutdown triggers
  (journal flushed, workers terminated) — the deterministic stand-in for
  Ctrl-C that ``tests/parallel/test_supervision_smoke.py`` resumes from.

Worker kinds fire **only inside pool worker processes** (the worker main
loop applies them); in-process serial execution is never crashed or hung
by a plan, which is what lets the supervisor degrade from a dying pool
to serial execution and still finish.  ``attempt`` defaults to 0 so a
faulted point succeeds on retry; ``attempt: null`` fires on every
attempt and ``point: null`` on every point.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

HARNESS_FAULTS_ENV = "REPRO_HARNESS_FAULTS"

WORKER_KINDS = ("worker_crash", "worker_hang", "result_corrupt")
SUPERVISOR_KINDS = ("run_interrupt",)
HARNESS_KINDS = WORKER_KINDS + SUPERVISOR_KINDS

#: Exit status a crash fault kills the worker with (distinctive in logs).
CRASH_EXIT_CODE = 17


class HarnessFaultError(ValueError):
    """Malformed harness fault plan or spec."""


@dataclass(frozen=True)
class HarnessFaultSpec:
    """One harness fault.

    Attributes:
        kind: one of :data:`HARNESS_KINDS`.
        point: sweep point index to hit (``None`` = every point).
        attempt: attempt number to hit (``None`` = every attempt; the
            default 0 hits only the first try, so retries succeed).
        hang_s: sleep length for ``worker_hang``.
        after_points: completed-point count that triggers
            ``run_interrupt``.
    """

    kind: str
    point: Optional[int] = None
    attempt: Optional[int] = 0
    hang_s: float = 3600.0
    after_points: int = 0

    def __post_init__(self):
        if self.kind not in HARNESS_KINDS:
            raise HarnessFaultError(
                f"unknown harness fault kind {self.kind!r}; "
                f"choose from {HARNESS_KINDS}")
        if self.hang_s < 0:
            raise HarnessFaultError("hang_s must be nonnegative")
        if self.kind == "run_interrupt" and self.after_points < 0:
            raise HarnessFaultError("after_points must be nonnegative")

    def hits(self, point: int, attempt: int) -> bool:
        """Does this worker-side fault fire for (point, attempt)?"""
        if self.kind not in WORKER_KINDS:
            return False
        if self.point is not None and self.point != point:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind}
        if self.point is not None:
            out["point"] = self.point
        if self.attempt != 0:
            out["attempt"] = self.attempt
        if self.kind == "worker_hang":
            out["hang_s"] = self.hang_s
        if self.kind == "run_interrupt":
            out["after_points"] = self.after_points
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "HarnessFaultSpec":
        if not isinstance(raw, Mapping):
            raise HarnessFaultError(
                f"harness fault spec must be an object, got {raw!r}")
        allowed = {"kind", "point", "attempt", "hang_s", "after_points"}
        unknown = set(raw) - allowed
        if unknown:
            raise HarnessFaultError(
                f"unknown harness fault fields {sorted(unknown)}")
        if "kind" not in raw:
            raise HarnessFaultError("harness fault spec needs a kind")
        return cls(**{k: raw[k] for k in raw})  # type: ignore[arg-type]


@dataclass(frozen=True)
class HarnessFaultPlan:
    """The faults to inject into one harness run."""

    faults: Sequence[HarnessFaultSpec] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def worker_faults(self, point: int,
                      attempt: int) -> List[HarnessFaultSpec]:
        return [s for s in self.faults if s.hits(point, attempt)]

    def interrupt_after(self) -> Optional[int]:
        """The completed-point count at which to interrupt, or ``None``."""
        thresholds = [s.after_points for s in self.faults
                      if s.kind == "run_interrupt"]
        return min(thresholds) if thresholds else None

    def to_dict(self) -> Dict[str, object]:
        return {"faults": [s.to_dict() for s in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "HarnessFaultPlan":
        if not isinstance(raw, Mapping):
            raise HarnessFaultError(
                f"harness fault plan must be an object, got {raw!r}")
        unknown = set(raw) - {"faults"}
        if unknown:
            raise HarnessFaultError(
                f"unknown harness fault plan fields {sorted(unknown)}")
        faults_raw = raw.get("faults", [])
        if not isinstance(faults_raw, Sequence) or isinstance(faults_raw,
                                                              str):
            raise HarnessFaultError("'faults' must be a list of specs")
        return cls(faults=[HarnessFaultSpec.from_dict(f)
                           for f in faults_raw])


_plan_memo: Tuple[Optional[str], Optional[HarnessFaultPlan]] = (None, None)


def load_harness_plan() -> Optional[HarnessFaultPlan]:
    """The plan from ``$REPRO_HARNESS_FAULTS`` (inline JSON or a path),
    or ``None``.  Memoised per raw value, so workers parse it once."""
    global _plan_memo
    raw = os.environ.get(HARNESS_FAULTS_ENV)
    if not raw:
        return None
    if _plan_memo[0] == raw:
        return _plan_memo[1]
    text = raw if raw.lstrip().startswith("{") else open(raw).read()
    plan = HarnessFaultPlan.from_dict(json.loads(text))
    _plan_memo = (raw, plan)
    return plan


def apply_worker_faults(plan: Optional[HarnessFaultPlan], point: int,
                        attempt: int) -> None:
    """Crash or hang the current process per the plan.  Call this ONLY
    from a pool worker's main loop — ``worker_crash`` is ``os._exit``."""
    if plan is None:
        return
    for spec in plan.worker_faults(point, attempt):
        if spec.kind == "worker_hang":
            time.sleep(spec.hang_s)
        elif spec.kind == "worker_crash":
            os._exit(CRASH_EXIT_CODE)


def corrupt_result(plan: Optional[HarnessFaultPlan], point: int,
                   attempt: int, blob: bytes) -> bytes:
    """Flip a byte of the result blob if a ``result_corrupt`` spec hits
    (after the digest was taken, so the supervisor detects it)."""
    if plan is None or not blob:
        return blob
    for spec in plan.worker_faults(point, attempt):
        if spec.kind == "result_corrupt":
            return bytes([blob[0] ^ 0xFF]) + blob[1:]
    return blob
