"""The parallel sweep scheduler: deterministic fan-out of sweep points.

Every figure in the reproduction is a family of *independent* points —
message sizes (Figs. 9-12), matrix sizes (Figs. 7-8), HINT machines
(Fig. 6), chaos seeds — so :func:`run_sweep` farms them over worker
processes and merges the results back as if they had run serially.  The
contract is **strict determinism**: ``jobs=N`` must produce byte-identical
output to ``jobs=1``.  Three mechanisms enforce it:

* **seeding** — every point's RNG seed is derived from
  ``(sweep_id, point_key, seed_base)`` by SHA-256, never from worker
  identity, scheduling order or wall time;
* **isolation** — each point runs inside its own message-id namespace
  (:func:`repro.network.message.message_id_namespace`) and, when
  observability is enabled, its own :func:`repro.obs.observe` session, so
  a point's spans/metrics do not depend on what ran before it in the
  same process;
* **ordered merge** — per-point metric registries and span sets come
  back as encoded payloads and are folded into the ambient session in
  *submission* order (span ids reallocated, message ids offset per
  point), regardless of completion order.

Every sweep runs under one executor, the supervised one of
:mod:`repro.parallel.supervise`: in-process at ``jobs=1`` and over
:class:`~repro.parallel.supervise.WorkerSupervisor` processes (fork where
available, spawn otherwise) above that, so ``fn`` must be a module-level
callable and configs must pickle.  A point that raises, crashes or hangs
is retried with backoff; one that keeps failing is quarantined and
reported via :class:`~repro.parallel.supervise.PoisonedSweepError`
*after* the healthy points finish; a dying pool degrades to in-process
serial execution; and SIGINT/SIGTERM stop cleanly at a point boundary.

A :class:`~repro.parallel.cache.ResultCache` short-circuits any point
whose fingerprint (source digest + config + seed) already has a stored
result — including its captured metrics and spans, so a warm-cache
``--trace`` run still writes the full trace.  With journaling on (the
CLI's default) every run is recorded (:mod:`repro.parallel.journal`) and
``resume_from`` replays a previous journal so only unfinished points
recompute.  Because replayed payloads are byte-for-byte what the
interrupted run produced and the merge is in submission order, a resumed
run's artifacts are byte-identical to an uninterrupted run's — the same
contract as ``jobs=N``.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.harness import load_harness_plan
from repro.obs import OBS, observe
from repro.parallel.cache import ResultCache, fingerprint, source_digest
from repro.parallel.journal import (
    RunJournal,
    journal_path_for,
    load_journal,
    prune_journals,
)
from repro.parallel.supervise import (
    PoisonPoint,
    PoisonedSweepError,
    SuperviseConfig,
    SupervisionStats,
    WorkerSupervisor,
    interrupt_guard,
    run_serial_supervised,
)

#: A sweep point: (hashable key with a deterministic repr, config kwargs).
Point = Tuple[Any, Dict[str, Any]]

#: Point functions take (config, seed) and return a picklable value.
PointFn = Callable[[Dict[str, Any], int], Any]


def derive_seed(sweep_id: str, key: Any, base: int = 0) -> int:
    """A 63-bit seed from (sweep id, point key, base seed), by SHA-256.

    Depends only on the identity of the point — not on worker ids,
    scheduling, or how many points ran before it — so a point is seeded
    identically at any ``jobs`` level, which is the root of the
    ``--jobs N == --jobs 1`` guarantee.
    """
    blob = repr((sweep_id, key, base)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class PointOutcome:
    """One executed (or cache-/journal-replayed) sweep point.

    ``cached`` covers both cache hits and journal replays; a quarantined
    point comes back ``failed=True`` with its last error and ``value``
    ``None`` (and the sweep raises
    :class:`~repro.parallel.supervise.PoisonedSweepError`).
    """

    key: Any
    value: Any
    seed: int
    cached: bool
    failed: bool = False
    error: Optional[str] = None


def _execute_point(payload: Dict[str, Any]) -> Tuple[Any, Any, Any, Any]:
    """Run one point in isolation; module-level so workers can pickle it.

    Returns ``(value, metrics_payload, spans_payload, timeline_payload)``
    — the payloads are ``None`` unless capture (and, for the timeline,
    sampling) was requested.
    """
    from repro.network.message import message_id_namespace

    fn: PointFn = payload["fn"]
    config = payload["config"]
    seed = payload["seed"]
    if payload["capture"]:
        sample_interval = payload.get("sample_interval_ns")
        with message_id_namespace():
            with observe(span_limit=payload["span_limit"],
                         sample_interval_ns=sample_interval) as session:
                value = fn(config, seed)
        timeline = session.timeline.encode() if sample_interval else None
        return (value, session.metrics.encode(), session.tracer.encode(),
                timeline)
    with message_id_namespace():
        return fn(config, seed), None, None, None


def _slot_blob(slot: Tuple[Any, Any, Any, Any, bool, int]) -> bytes:
    """A slot's result payload pickled exactly as the executor would."""
    value, metrics, spans, timeline = slot[:4]
    return pickle.dumps((value, metrics, spans, timeline),
                        protocol=pickle.HIGHEST_PROTOCOL)


def run_sweep(sweep_id: str,
              points: Sequence[Point],
              fn: PointFn,
              *,
              jobs: int = 1,
              cache: Optional[ResultCache] = None,
              modules: Sequence[str] = (),
              seed_base: int = 0,
              supervise: Optional[SuperviseConfig] = None,
              ) -> List[PointOutcome]:
    """Run every point of a sweep, possibly in parallel, deterministically.

    Args:
        sweep_id: stable identity of the sweep (part of seeds and cache
            fingerprints).
        points: ordered ``(key, config)`` pairs; ``key`` needs a
            deterministic ``repr`` and both must pickle.
        fn: module-level ``fn(config, seed) -> value``.
        jobs: worker processes; ``1`` runs in-process through the exact
            same per-point isolation and merge path.
        cache: optional :class:`ResultCache`; hits skip execution and
            replay the stored value plus any captured metrics/spans.
        modules: module/package names whose source digest keys the cache
            fingerprint (ignored without ``cache`` or a journal).
        seed_base: folded into every derived seed (e.g. a fault plan's
            base seed).
        supervise: retry, timeout, journal and resume settings of the
            supervised executor.  ``None`` means
            ``SuperviseConfig(enable_journal=False)``: the CLI's defaults
            without a journal file.

    Returns:
        One :class:`PointOutcome` per input point, in input order.

    Raises:
        PoisonedSweepError: some points were quarantined after retries
            (the exception carries every outcome, healthy ones included).
        SweepInterrupted: SIGINT/SIGTERM (or an injected
            ``run_interrupt`` fault) stopped the run; the journal named
            by the exception resumes it.
    """
    points = list(points)
    # Capture per-point metrics/spans exactly when an ambient
    # observability session is live, and merge them back into it.
    capture = OBS.enabled
    span_limit = OBS.tracer.limit if capture else 0
    # Sampling rides along with capture: when the ambient session has a
    # live timeline, each point samples at the same interval and its
    # encoded series merge back like metrics and spans do.
    sample_interval = (OBS.timeline.sample_interval_ns
                       if capture and OBS.timeline.enabled else None)
    if supervise is None:
        supervise = SuperviseConfig(enable_journal=False)
    stats = SupervisionStats()
    supervise.stats = stats
    journaling = bool(supervise.enable_journal or supervise.resume_from)
    need_fp = cache is not None or journaling
    digest = source_digest(modules) if need_fp else ""

    slots: List[Optional[Tuple[Any, Any, Any, Any, bool, int]]] = \
        [None] * len(points)
    prints: List[Optional[str]] = [None] * len(points)
    pending: List[Tuple[int, Dict[str, Any]]] = []
    for index, (key, config) in enumerate(points):
        seed = derive_seed(sweep_id, key, seed_base)
        if need_fp:
            prints[index] = fingerprint(sweep_id, key, config, seed, digest,
                                        capture=capture,
                                        sample_interval_ns=sample_interval)
        if cache is not None:
            hit, stored = cache.get(prints[index])
            if hit:
                slots[index] = (stored["value"], stored["metrics"],
                                stored["spans"], stored.get("timeline"),
                                True, seed)
                continue
        pending.append((index, {"fn": fn, "config": config, "seed": seed,
                                "capture": capture,
                                "span_limit": span_limit,
                                "sample_interval_ns": sample_interval}))

    # Resume: points whose journaled fingerprint matches the current one
    # (same code, config, seed, capture mode) replay their stored
    # payloads; anything stale, missing or digest-corrupt recomputes.
    resume_state = None
    if supervise.resume_from:
        resume_state = load_journal(supervise.resume_from)
        if (resume_state.sweep_id is not None
                and resume_state.sweep_id != sweep_id):
            raise ValueError(
                f"journal {supervise.resume_from} records sweep "
                f"{resume_state.sweep_id!r}, not {sweep_id!r}")
        still_pending = []
        for index, payload in pending:
            fp = prints[index]
            if fp is not None and resume_state.completed_fingerprint(
                    index) == fp:
                stored = resume_state.payload_for(index)
                if stored is not None:
                    value, metrics, spans, timeline = stored
                    slots[index] = (value, metrics, spans, timeline, True,
                                    payload["seed"])
                    stats.resumed += 1
                    continue
            still_pending.append((index, payload))
        pending = still_pending

    journal: Optional[RunJournal] = None
    errors: Dict[int, str] = {}
    try:
        if journaling:
            if supervise.resume_from:
                journal_path = supervise.resume_from
                journal = RunJournal(journal_path, append=True)
            else:
                journal_path = supervise.journal_path
                if journal_path is None:
                    prune_journals(sweep_id, supervise.journal_dir)
                    journal_path = journal_path_for(sweep_id,
                                                    supervise.journal_dir)
                journal = RunJournal(journal_path)
            supervise.journal_path_used = journal_path
            if resume_state is None:
                journal.record_plan(sweep_id, [key for key, _ in points],
                                    prints)
            else:
                journal.record_event("resume",
                                     replayed=stats.resumed,
                                     torn_lines=resume_state.torn_lines)
            # Journal cache hits too, so a later --resume replays them
            # without needing the cache to still agree.
            already = set(resume_state.done) if resume_state else set()
            for index, slot in enumerate(slots):
                if slot is not None and index not in already:
                    journal.record_done(index, prints[index],
                                        _slot_blob(slot), cached=True)

        if pending:
            harness_plan = load_harness_plan()
            with interrupt_guard() as flag:
                if jobs > 1 and len(pending) > 1:
                    sup = WorkerSupervisor(
                        min(jobs, len(pending)), supervise, stats,
                        journal=journal, fingerprints=prints,
                        harness_plan=harness_plan, interrupt_flag=flag)
                    results = sup.run(pending)
                else:
                    results = run_serial_supervised(
                        pending, supervise, stats, journal=journal,
                        fingerprints=prints, interrupt_flag=flag,
                        harness_plan=harness_plan)
            for index, task in pending:
                status, body = results[index]
                if status == "ok":
                    value, metrics, spans, timeline = body
                    slots[index] = (value, metrics, spans, timeline, False,
                                    task["seed"])
                    if cache is not None:
                        cache.put(prints[index],
                                  {"value": value, "metrics": metrics,
                                   "spans": spans, "timeline": timeline})
                else:
                    errors[index] = body
                    slots[index] = (None, None, None, None, False,
                                    task["seed"])

        if journal is not None:
            journal.record_end(ok=not errors)
    finally:
        if journal is not None:
            journal.close()

    # Merge in submission order — the only order both jobs=1 and jobs=N
    # agree on — so span ids, message ids and metric accumulation are
    # identical at every jobs level.
    outcomes: List[PointOutcome] = []
    merge_obs = capture and OBS.enabled  # never write into the null session
    message_base = OBS.tracer.max_message_id() if merge_obs else 0
    for index, ((key, _), slot) in enumerate(zip(points, slots)):
        value, metrics, spans, timeline, cached, seed = slot
        failed = index in errors
        if merge_obs and not failed:
            if metrics:
                OBS.metrics.merge_encoded(metrics)
            if spans and spans["spans"]:
                message_base = OBS.tracer.merge_point(
                    spans, message_offset=message_base)
            if timeline:
                OBS.timeline.merge_point(timeline)
        outcomes.append(PointOutcome(key=key, value=value, seed=seed,
                                     cached=cached, failed=failed,
                                     error=errors.get(index)))
    stats.publish()
    if errors:
        poisoned = [PoisonPoint(index=index, key=points[index][0],
                                attempts=supervise.retries + 1,
                                error=errors[index])
                    for index in sorted(errors)]
        raise PoisonedSweepError(
            poisoned, outcomes,
            journal_path=supervise.journal_path_used)
    return outcomes


def sweep_values(outcomes: Iterable[PointOutcome]) -> List[Any]:
    """Just the values, in point order."""
    return [outcome.value for outcome in outcomes]
