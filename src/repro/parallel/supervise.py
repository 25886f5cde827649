"""Worker supervision: crash/hang detection, retries, quarantine, degrade.

This is the only executor of :mod:`repro.parallel.sweep`: every sweep's
pending points run here, in-process at ``jobs=1``
(:func:`run_serial_supervised`) and over :class:`WorkerSupervisor`
processes above that.  The sweep's merge contract is untouched; this
module decides only *how* pending points get executed:

* each worker process runs a tiny task loop (own task queue, shared
  result queue) so the supervisor always knows **which** point a worker
  is holding;
* a worker that dies mid-point (OOM kill, segfault, injected
  ``worker_crash``) is detected by its exit, the point is retried with
  exponential backoff, and a replacement worker is spawned;
* a point that exceeds ``--point-timeout`` wall seconds is presumed hung
  (livelock, injected ``worker_hang``); its worker is terminated and the
  point retried;
* results carry a SHA-256 digest computed *inside* the worker; a
  mismatch at the supervisor (torn pipe, injected ``result_corrupt``)
  is treated as a failure and retried;
* a point that exhausts its retry budget is **quarantined** — a "poison
  point" reported at the end via :class:`PoisonedSweepError` instead of
  aborting the other points;
* if workers keep dying (respawn budget ``jobs * (retries + 2)``
  exhausted) the pool itself is declared dead and the remaining points
  **degrade to in-process serial execution**, where harness faults do
  not apply;
* SIGINT/SIGTERM are deferred to point boundaries, the journal is
  flushed, workers are shut down cleanly, and :class:`SweepInterrupted`
  (a ``KeyboardInterrupt`` carrying the journal path) propagates so the
  CLI can print a ``--resume`` hint and exit 130.

Every supervision event is journaled and counted in
:class:`SupervisionStats`, which publishes ``supervision.*`` counters
into the ambient :mod:`repro.obs` session so health specs and the HTML
report can gate on them.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.faults.harness import (
    HarnessFaultPlan,
    apply_worker_faults,
    corrupt_result,
    load_harness_plan,
)
from repro.parallel.journal import RunJournal, payload_digest

#: Supervisor poll interval (seconds) — also the result-drain timeout.
TICK_S = 0.02

#: index -> ("ok", payload-tuple) | ("failed", error string)
TaskResults = Dict[int, Tuple[str, Any]]


class SweepInterrupted(KeyboardInterrupt):
    """A sweep stopped cleanly on SIGINT/SIGTERM (journal flushed)."""

    def __init__(self, journal_path: Optional[str] = None):
        super().__init__("sweep interrupted")
        self.journal_path = journal_path


@dataclass(frozen=True)
class PoisonPoint:
    """A point that failed every attempt and was quarantined."""

    index: int
    key: Any
    attempts: int
    error: str


class PoisonedSweepError(RuntimeError):
    """The sweep finished, but some points were quarantined.

    ``outcomes`` holds every point (quarantined ones flagged
    ``failed=True``) so callers can still consume the survivors;
    ``journal_path`` is where a ``--resume`` can retry the poison.
    """

    def __init__(self, poisoned: List[PoisonPoint], outcomes=None,
                 journal_path: Optional[str] = None):
        names = ", ".join(repr(p.key) for p in poisoned[:4])
        more = f" (+{len(poisoned) - 4} more)" if len(poisoned) > 4 else ""
        super().__init__(
            f"{len(poisoned)} point(s) quarantined after retries: "
            f"{names}{more}")
        self.poisoned = poisoned
        self.outcomes = outcomes
        self.journal_path = journal_path


@dataclass
class SupervisionStats:
    """What the supervisor had to do to finish the run."""

    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    corrupt_results: int = 0
    quarantined: int = 0
    degraded: int = 0
    resumed: int = 0
    interrupted: bool = False

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "corrupt_results": self.corrupt_results,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
        }

    def any_events(self) -> bool:
        return bool(sum(self.as_dict().values()) or self.resumed
                    or self.interrupted)

    def publish(self) -> None:
        """Nonzero counts into the ambient metrics session (so health
        gates and reports see them).  ``resumed`` intentionally stays
        out — a resumed run's artifacts must stay byte-identical to an
        uninterrupted run's."""
        from repro.obs import OBS

        if not OBS.enabled:
            return
        for name, value in self.as_dict().items():
            if value:
                OBS.metrics.incr(f"supervision.{name}", value)

    def summary_line(self) -> str:
        parts = [f"{value} {name.replace('_', ' ')}"
                 for name, value in self.as_dict().items() if value]
        if self.resumed:
            parts.append(f"{self.resumed} resumed from journal")
        return "supervision: " + (", ".join(parts) if parts else "clean run")


@dataclass
class SuperviseConfig:
    """How a sweep should be supervised and journaled.

    ``stats`` and ``journal_path_used`` are *outputs*: :func:`run_sweep`
    fills them so the CLI can report what supervision did.
    """

    retries: int = 2
    point_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.1
    backoff_max_s: float = 2.0
    enable_journal: bool = True
    journal_path: Optional[str] = None
    journal_dir: Optional[str] = None
    resume_from: Optional[str] = None
    stats: Optional[SupervisionStats] = None
    journal_path_used: Optional[str] = None

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if (self.point_timeout_s is not None
                and self.point_timeout_s <= 0):
            raise ValueError("point-timeout must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return min(self.backoff_max_s,
                   self.backoff_base_s * (2.0 ** max(0, attempt - 1)))


@contextmanager
def interrupt_guard() -> Iterator[Dict[str, Optional[int]]]:
    """Defer SIGINT/SIGTERM to a flag the supervisor polls at point
    boundaries; a second signal raises immediately (panic exit)."""
    flag: Dict[str, Optional[int]] = {"sig": None}
    previous: Dict[int, Any] = {}

    def handler(signum, frame):
        if flag["sig"] is not None:
            raise KeyboardInterrupt
        flag["sig"] = signum

    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - no tty etc.
                pass
    try:
        yield flag
    finally:
        for sig, prev in previous.items():
            signal.signal(sig, prev)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(task_queue, result_queue) -> None:
    """The pool worker loop: run points, return digested pickled results.

    SIGINT is ignored — shutdown belongs to the supervisor (sentinel or
    terminate), never to a tty Ctrl-C racing it.  Harness faults
    (``worker_crash``/``worker_hang``/``result_corrupt``) apply here and
    only here.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover
        pass
    try:
        plan = load_harness_plan()
    except Exception:  # pragma: no cover - malformed env plan
        plan = None
    from repro.parallel.sweep import _execute_point

    while True:
        item = task_queue.get()
        if item is None:
            break
        index, attempt, payload = item
        try:
            apply_worker_faults(plan, index, attempt)
            result = _execute_point(payload)
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            digest = payload_digest(blob)
            blob = corrupt_result(plan, index, attempt, blob)
            result_queue.put((index, attempt, "ok", blob, digest))
        except Exception as exc:
            result_queue.put((index, attempt, "error",
                              f"{type(exc).__name__}: {exc}", None))


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------


def _pool_context():
    """The worker start method: fork where available, spawn otherwise.

    ``multiprocessing`` is imported here, not at module level, so a
    serial sweep never loads it.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _Worker:
    __slots__ = ("process", "tasks", "index", "attempt", "started_at")

    def __init__(self, process, tasks):
        self.process = process
        self.tasks = tasks
        self.index: Optional[int] = None
        self.attempt = 0
        self.started_at = 0.0

    @property
    def busy(self) -> bool:
        return self.index is not None


class WorkerSupervisor:
    """Run tasks over supervised worker processes; never lose a point."""

    def __init__(self, jobs: int, config: SuperviseConfig,
                 stats: SupervisionStats,
                 journal: Optional[RunJournal] = None,
                 fingerprints: Optional[List[Optional[str]]] = None,
                 harness_plan: Optional[HarnessFaultPlan] = None,
                 interrupt_flag: Optional[Dict[str, Any]] = None,
                 done_count: int = 0):
        self.jobs = max(1, jobs)
        self.config = config
        self.stats = stats
        self.journal = journal
        self.fingerprints = fingerprints or []
        self.harness_plan = harness_plan
        self.interrupt_flag = interrupt_flag or {"sig": None}
        self.done_count = done_count
        self.interrupt_after = (harness_plan.interrupt_after()
                                if harness_plan else None)
        self.max_respawns = max(4, self.jobs * (config.retries + 2))
        self.respawns = 0
        self.attempts: Dict[int, int] = {}
        self.results: TaskResults = {}
        self.payloads: Dict[int, Dict[str, Any]] = {}
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._degraded = False

    def _fp(self, index: int) -> Optional[str]:
        return (self.fingerprints[index]
                if index < len(self.fingerprints) else None)

    # -- lifecycle ---------------------------------------------------------

    def run(self, tasks: List[Tuple[int, Dict[str, Any]]]) -> TaskResults:
        self._ctx = _pool_context()
        self._result_queue = self._ctx.Queue()
        self._pending: List[Tuple[int, int, float]] = []  # (idx, att, when)
        for index, payload in tasks:
            self.payloads[index] = payload
            self.attempts[index] = 0
            self._pending.append((index, 0, 0.0))
        total = len(tasks)

        try:
            for _ in range(min(self.jobs, total)):
                self._spawn()
        except OSError:
            self._degrade("spawn failed")

        try:
            while len(self.results) < total and not self._degraded:
                self._check_interrupt()
                self._assign_ready()
                self._drain_one()
                self._check_workers()
        finally:
            self._shutdown_workers()

        if self._degraded and len(self.results) < total:
            remaining = [(index, self.payloads[index])
                         for index, _ in sorted(self.attempts.items())
                         if index not in self.results]
            run_serial_supervised(
                remaining, self.config, self.stats, journal=self.journal,
                fingerprints=self.fingerprints,
                interrupt_flag=self.interrupt_flag,
                harness_plan=self.harness_plan,
                done_count=self.done_count,
                attempts=self.attempts, results=self.results)
        return self.results

    def _spawn(self) -> None:
        tasks = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=_worker_main, args=(tasks, self._result_queue),
            daemon=True, name=f"repro-sweep-worker-{self._next_wid}")
        process.start()
        self._workers[self._next_wid] = _Worker(process, tasks)
        self._next_wid += 1

    def _respawn_or_degrade(self) -> None:
        self.respawns += 1
        if self.respawns > self.max_respawns:
            self._degrade(f"respawn budget exhausted "
                          f"({self.respawns} respawns)")
            return
        try:
            self._spawn()
        except OSError:  # pragma: no cover - fork failure
            self._degrade("spawn failed")

    def _degrade(self, reason: str) -> None:
        if not self._degraded:
            self._degraded = True
            self.stats.degraded += 1
            if self.journal:
                self.journal.record_event("degrade", reason=reason)

    def _shutdown_workers(self) -> None:
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.tasks.put(None)
                except Exception:  # pragma: no cover - broken pipe
                    pass
        deadline = time.monotonic() + 1.0
        for worker in self._workers.values():
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(0.5)
            if worker.process.is_alive():  # pragma: no cover - stubborn
                worker.process.kill()
                worker.process.join(0.5)
        self._workers.clear()
        self._result_queue.close()
        self._result_queue.cancel_join_thread()

    # -- the loop's four duties --------------------------------------------

    def _check_interrupt(self) -> None:
        if self.interrupt_flag.get("sig") is not None:
            self._interrupt("signal")
        if (self.interrupt_after is not None
                and self.done_count >= self.interrupt_after):
            self._interrupt("harness fault run_interrupt")

    def _interrupt(self, reason: str) -> None:
        self.stats.interrupted = True
        if self.journal:
            self.journal.record_event("interrupt", reason=reason)
        raise SweepInterrupted(self.journal.path if self.journal else None)

    def _assign_ready(self) -> None:
        now = time.monotonic()
        for worker in self._workers.values():
            if worker.busy or not self._pending:
                continue
            slot = next((i for i, (_, _, when) in enumerate(self._pending)
                         if when <= now), None)
            if slot is None:
                continue
            index, attempt, _ = self._pending.pop(slot)
            worker.index = index
            worker.attempt = attempt
            worker.started_at = now
            if self.journal:
                self.journal.record_start(index, attempt)
            worker.tasks.put((index, attempt, self.payloads[index]))

    def _drain_one(self) -> None:
        try:
            msg = self._result_queue.get(timeout=TICK_S)
        except queue_module.Empty:
            return
        index, attempt, status, body, digest = msg
        # Stale delivery: the point was already resolved or retried after
        # a timeout kill — drop it, the current attempt owns the slot.
        if index in self.results or attempt != self.attempts[index]:
            return
        for worker in self._workers.values():
            if worker.index == index:
                worker.index = None
                break
        if status == "ok":
            if payload_digest(body) != digest:
                self.stats.corrupt_results += 1
                if self.journal:
                    self.journal.record_event("corrupt_result", i=index,
                                              attempt=attempt)
                self._failure(index, attempt, "corrupt result payload")
                return
            self._complete(index, pickle.loads(body), body)
        else:
            self._failure(index, attempt, body)

    def _complete(self, index: int, result: Any, blob: bytes) -> None:
        self.results[index] = ("ok", result)
        if self.journal:
            self.journal.record_done(index, self._fp(index), blob)
        self.done_count += 1
        self._check_interrupt()

    def _failure(self, index: int, attempt: int, error: str) -> None:
        if self.journal:
            self.journal.record_failed(index, attempt, error)
        next_attempt = attempt + 1
        if next_attempt <= self.config.retries:
            self.stats.retries += 1
            self.attempts[index] = next_attempt
            if self.journal:
                self.journal.record_event("retry", i=index,
                                          attempt=next_attempt)
            when = time.monotonic() + self.config.backoff_s(next_attempt)
            self._pending.append((index, next_attempt, when))
        else:
            self.stats.quarantined += 1
            if self.journal:
                self.journal.record_event("quarantine", i=index,
                                          error=error[:200])
            self.results[index] = ("failed", error)

    def _check_workers(self) -> None:
        now = time.monotonic()
        dead = []
        for wid, worker in self._workers.items():
            if not worker.process.is_alive():
                dead.append(wid)
                continue
            if (worker.busy and self.config.point_timeout_s is not None
                    and now - worker.started_at
                    > self.config.point_timeout_s):
                self.stats.timeouts += 1
                if self.journal:
                    self.journal.record_event(
                        "timeout", i=worker.index, attempt=worker.attempt,
                        after_s=round(now - worker.started_at, 3))
                index, attempt = worker.index, worker.attempt
                self._kill(worker)
                dead.append(wid)
                self._failure(index, attempt,
                              f"point timeout after "
                              f"{self.config.point_timeout_s:g}s")
        for wid in dead:
            worker = self._workers.pop(wid)
            worker.process.join(0.2)
            if worker.busy and worker.index not in self.results \
                    and self.attempts.get(worker.index) == worker.attempt:
                # Died mid-point (not a timeout kill we already retried).
                self.stats.worker_deaths += 1
                if self.journal:
                    self.journal.record_event(
                        "worker_death", i=worker.index,
                        attempt=worker.attempt,
                        exitcode=worker.process.exitcode)
                self._failure(worker.index, worker.attempt,
                              f"worker died (exit "
                              f"{worker.process.exitcode})")
            unresolved = len(self.results) < len(self.attempts)
            if unresolved and not self._degraded:
                self._respawn_or_degrade()

    @staticmethod
    def _kill(worker: _Worker) -> None:
        worker.process.terminate()
        worker.process.join(0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(0.5)
        worker.index = None


def run_serial_supervised(tasks: List[Tuple[int, Dict[str, Any]]],
                          config: SuperviseConfig,
                          stats: SupervisionStats,
                          journal: Optional[RunJournal] = None,
                          fingerprints: Optional[List[Optional[str]]] = None,
                          interrupt_flag: Optional[Dict[str, Any]] = None,
                          harness_plan: Optional[HarnessFaultPlan] = None,
                          done_count: int = 0,
                          attempts: Optional[Dict[int, int]] = None,
                          results: Optional[TaskResults] = None,
                          ) -> TaskResults:
    """The in-process executor: same retry/quarantine/journal/interrupt
    semantics as the pool, minus worker faults (there are no workers).

    Also the degraded-mode continuation: ``attempts``/``results`` carry
    the pool's progress so retry budgets keep counting from where the
    pool left off.
    """
    from repro.parallel.sweep import _execute_point

    fingerprints = fingerprints or []
    interrupt_flag = interrupt_flag or {"sig": None}
    attempts = attempts if attempts is not None else {}
    results = results if results is not None else {}
    interrupt_after = (harness_plan.interrupt_after()
                       if harness_plan else None)

    def check_interrupt() -> None:
        reason = None
        if interrupt_flag.get("sig") is not None:
            reason = "signal"
        elif interrupt_after is not None and done_count >= interrupt_after:
            reason = "harness fault run_interrupt"
        if reason:
            stats.interrupted = True
            if journal:
                journal.record_event("interrupt", reason=reason)
            raise SweepInterrupted(journal.path if journal else None)

    for index, payload in tasks:
        if index in results:
            continue
        check_interrupt()
        attempt = attempts.get(index, 0)
        while True:
            if journal:
                journal.record_start(index, attempt)
            try:
                result = _execute_point(payload)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if journal:
                    journal.record_failed(index, attempt, error)
                attempt += 1
                attempts[index] = attempt
                if attempt <= config.retries:
                    stats.retries += 1
                    if journal:
                        journal.record_event("retry", i=index,
                                             attempt=attempt)
                    time.sleep(config.backoff_s(attempt))
                    continue
                stats.quarantined += 1
                if journal:
                    journal.record_event("quarantine", i=index,
                                         error=error[:200])
                results[index] = ("failed", error)
                break
            results[index] = ("ok", result)
            if journal:
                fp = (fingerprints[index]
                      if index < len(fingerprints) else None)
                blob = pickle.dumps(result,
                                    protocol=pickle.HIGHEST_PROTOCOL)
                journal.record_done(index, fp, blob)
            done_count += 1
            break
    check_interrupt()
    return results
