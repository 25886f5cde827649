"""The run journal: an append-only, crash-safe record of one sweep run.

Every supervised sweep (figures, traffic, chaos campaigns) writes a
:class:`RunJournal` — a JSONL file whose records are appended one
``write``/``flush``/``fsync`` at a time, so the journal is consistent up
to the last completed record no matter where the process dies:

* ``plan`` — the sweep identity and every point's index, key and cache
  fingerprint, written before any point runs;
* ``start`` / ``done`` / ``failed`` — per-point attempt lifecycle; a
  ``done`` record carries the SHA-256 digest of the point's pickled
  result payload, which is stored in a sidecar directory
  (``<journal>.d/<fingerprint>.pkl``, written atomically *before* the
  record that references it, so a ``done`` record always points at a
  durable payload);
* ``event`` — supervision events (retries, timeouts, worker deaths,
  quarantines, degradations, interrupts, resumes);
* ``end`` — the run finished (``ok`` false when points were poisoned).

``--resume JOURNAL`` loads the journal back as a :class:`JournalState`:
points whose recorded fingerprint still matches the current sweep (same
code, config and seed) replay their stored payloads and are skipped;
everything else — including a torn trailing line from a crash mid-append
— is recomputed.  Because replayed payloads are byte-for-byte the ones
the interrupted run produced and the merge runs in submission order, a
resumed run's final artifacts are byte-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.atomicio import atomic_write_bytes
from repro.parallel.cache import default_cache_dir

JOURNAL_VERSION = "repro.journal/1"
JOURNAL_ENV = "REPRO_JOURNAL_DIR"

#: Journals kept per sweep slug when auto-naming (older ones are pruned).
KEEP_JOURNALS = 5


def default_journal_dir() -> str:
    """``$REPRO_JOURNAL_DIR``, else ``<cache dir>/journals``."""
    env = os.environ.get(JOURNAL_ENV)
    if env:
        return env
    return os.path.join(default_cache_dir(), "journals")


def _slug(sweep_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", sweep_id) or "sweep"


def journal_path_for(sweep_id: str, root: Optional[str] = None) -> str:
    """The auto journal path for one run of ``sweep_id`` (pid-unique, so
    concurrent runs of the same sweep never interleave records)."""
    root = root or default_journal_dir()
    return os.path.join(root, f"{_slug(sweep_id)}.{os.getpid()}.jsonl")


def prune_journals(sweep_id: str, root: Optional[str] = None,
                   keep: int = KEEP_JOURNALS) -> int:
    """Delete all but the ``keep`` newest journals of this sweep slug
    (and their payload sidecar dirs).  Returns how many were removed."""
    root = root or default_journal_dir()
    if not os.path.isdir(root):
        return 0
    prefix = _slug(sweep_id) + "."
    candidates = [os.path.join(root, name) for name in os.listdir(root)
                  if name.startswith(prefix) and name.endswith(".jsonl")]
    candidates.sort(key=lambda p: os.path.getmtime(p), reverse=True)
    removed = 0
    for stale in candidates[keep:]:
        try:
            os.unlink(stale)
            removed += 1
        except OSError:  # pragma: no cover - concurrent prune
            continue
        sidecar = stale + ".d"
        if os.path.isdir(sidecar):
            for entry in os.listdir(sidecar):
                try:
                    os.unlink(os.path.join(sidecar, entry))
                except OSError:  # pragma: no cover
                    pass
            try:
                os.rmdir(sidecar)
            except OSError:  # pragma: no cover
                pass
    return removed


def payload_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class RunJournal:
    """Append-only JSONL journal of one sweep run (fsync per record)."""

    def __init__(self, path: str, append: bool = False):
        self.path = path
        self.sidecar = path + ".d"
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a" if append else "w", encoding="utf-8")
        self.records_written = 0

    # -- low-level ---------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """One atomic-enough record: a single line, flushed and fsync'd.

        A crash mid-write leaves at most one torn trailing line, which
        :func:`load_journal` tolerates by design.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record vocabulary -------------------------------------------------

    def record_plan(self, sweep_id: str, keys: List[Any],
                    fingerprints: List[Optional[str]]) -> None:
        self.append({
            "type": "plan", "version": JOURNAL_VERSION, "t": time.time(),
            "sweep_id": sweep_id,
            "points": [{"i": i, "key": repr(key), "fp": fp}
                       for i, (key, fp) in enumerate(zip(keys,
                                                         fingerprints))],
        })

    def record_start(self, index: int, attempt: int) -> None:
        self.append({"type": "start", "i": index, "attempt": attempt,
                     "t": time.time()})

    def record_done(self, index: int, fp: Optional[str], blob: bytes,
                    cached: bool = False) -> None:
        """Persist the payload sidecar first, then the record naming it —
        a ``done`` line therefore always references durable bytes."""
        digest = payload_digest(blob)
        atomic_write_bytes(self._payload_path(fp, index), blob)
        self.append({"type": "done", "i": index, "fp": fp,
                     "digest": digest, "cached": cached, "t": time.time()})

    def record_failed(self, index: int, attempt: int, error: str) -> None:
        self.append({"type": "failed", "i": index, "attempt": attempt,
                     "error": error[:500], "t": time.time()})

    def record_event(self, kind: str, **fields: Any) -> None:
        record = {"type": "event", "kind": kind, "t": time.time()}
        record.update(fields)
        self.append(record)

    def record_end(self, ok: bool) -> None:
        self.append({"type": "end", "ok": ok, "t": time.time()})

    def _payload_path(self, fp: Optional[str], index: int) -> str:
        name = fp if fp else f"pt{index}"
        return os.path.join(self.sidecar, f"{name}.pkl")


@dataclass
class JournalState:
    """A loaded journal: what the interrupted run completed."""

    path: str
    sweep_id: Optional[str] = None
    #: index -> {"key": repr, "fp": fingerprint} from the plan record.
    plan: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: index -> the final ``done`` record (last one wins).
    done: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: index -> last ``failed`` error string for never-completed points.
    failed: Dict[int, str] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    ended_ok: Optional[bool] = None
    torn_lines: int = 0

    def completed_fingerprint(self, index: int) -> Optional[str]:
        record = self.done.get(index)
        return record.get("fp") if record else None

    def payload_for(self, index: int) -> Optional[Dict[str, Any]]:
        """The stored result payload of a completed point, or ``None`` if
        it is missing or fails its digest check (then it is recomputed)."""
        import pickle

        record = self.done.get(index)
        if record is None:
            return None
        fp = record.get("fp")
        name = fp if fp else f"pt{index}"
        path = os.path.join(self.path + ".d", f"{name}.pkl")
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        if payload_digest(blob) != record.get("digest"):
            return None
        try:
            return pickle.loads(blob)
        except Exception:
            return None


def load_journal(path: str) -> JournalState:
    """Parse a journal back into a :class:`JournalState`.

    Undecodable lines (a torn tail from a crash mid-append) are counted
    and skipped — the journal is trusted exactly as far as its complete
    records go.
    """
    state = JournalState(path=path)
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                state.torn_lines += 1
                continue
            kind = record.get("type")
            if kind == "plan":
                state.sweep_id = record.get("sweep_id")
                for point in record.get("points", []):
                    state.plan[int(point["i"])] = {
                        "key": point.get("key"), "fp": point.get("fp")}
            elif kind == "done":
                index = int(record["i"])
                state.done[index] = record
                state.failed.pop(index, None)
            elif kind == "failed":
                index = int(record["i"])
                if index not in state.done:
                    state.failed[index] = record.get("error", "")
            elif kind == "event":
                state.events.append(record)
            elif kind == "end":
                state.ended_ok = bool(record.get("ok"))
    return state
