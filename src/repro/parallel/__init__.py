"""repro.parallel — deterministic fan-out of sweeps plus a result cache.

The paper's evaluation is a family of independent sweeps (message sizes,
matrix sizes, HINT machines, chaos seeds); this package farms those
points over worker processes with strict ``jobs=N == jobs=1`` determinism
and never recomputes a point whose (source digest, config, seed)
fingerprint already has a cached result.  See :mod:`repro.parallel.sweep`
for the scheduler contract and :mod:`repro.parallel.cache` for the
fingerprinting rules.

Every sweep runs *supervised*: :mod:`repro.parallel.supervise` retries
failed points and crashed/hung workers, quarantines poison points, and
degrades to serial when the pool dies; :mod:`repro.parallel.journal`
gives a journaled run an append-only crash-safe record of its points and
turns it back into a byte-identical ``--resume``.
"""

from repro.parallel.cache import (
    CACHE_ENV,
    ResultCache,
    canonical,
    clear_digest_memo,
    default_cache_dir,
    fingerprint,
    source_digest,
)
from repro.parallel.journal import (
    JOURNAL_ENV,
    JournalState,
    RunJournal,
    default_journal_dir,
    journal_path_for,
    load_journal,
    prune_journals,
)
from repro.parallel.supervise import (
    PoisonPoint,
    PoisonedSweepError,
    SuperviseConfig,
    SupervisionStats,
    SweepInterrupted,
)
from repro.parallel.sweep import (
    Point,
    PointFn,
    PointOutcome,
    derive_seed,
    run_sweep,
    sweep_values,
)

__all__ = [
    "CACHE_ENV",
    "JOURNAL_ENV",
    "JournalState",
    "Point",
    "PointFn",
    "PointOutcome",
    "PoisonPoint",
    "PoisonedSweepError",
    "ResultCache",
    "RunJournal",
    "SuperviseConfig",
    "SupervisionStats",
    "SweepInterrupted",
    "canonical",
    "clear_digest_memo",
    "default_cache_dir",
    "default_journal_dir",
    "derive_seed",
    "fingerprint",
    "journal_path_for",
    "load_journal",
    "prune_journals",
    "run_sweep",
    "source_digest",
    "sweep_values",
]
