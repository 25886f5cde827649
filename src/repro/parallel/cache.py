"""Content-addressed on-disk cache of sweep-point results.

A sweep point is a pure function of (code, configuration, seed), so its
result can be reused for as long as none of those change.  The cache key
is a fingerprint over:

* the package version and a **source digest** of the modules the point
  imports (editing any file under those packages changes the digest and
  forces recomputation);
* the canonicalised point configuration (dataclasses, dicts and
  sequences are normalised so dict ordering cannot leak into the key);
* the derived per-point seed, and whether observability capture was on
  (a captured payload carries metrics/spans a bare one does not).

Entries are pickle files under ``~/.cache/repro`` (override with
``--cache-dir`` or ``$REPRO_CACHE_DIR``), named by fingerprint and
written atomically, so concurrent sweeps can share one cache directory.
A corrupt or unreadable entry is treated as a miss and rewritten.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from importlib import import_module
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

CACHE_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _package_version() -> str:
    try:
        import repro

        return getattr(repro, "__version__", "0")
    except Exception:  # pragma: no cover - repro is always importable here
        return "0"


_digest_memo: Dict[Tuple[str, ...], str] = {}


def source_digest(modules: Sequence[str]) -> str:
    """SHA-256 over the source files of ``modules`` (packages recurse).

    Files are folded in sorted path order and identified by their path
    *relative to the module root*, so the digest is stable across
    machines and checkouts but changes whenever any covered source file
    changes.  Memoised per process — a sweep computes it once.
    """
    key = tuple(sorted(set(modules)))
    cached = _digest_memo.get(key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for name in key:
        module = import_module(name)
        hasher.update(name.encode("utf-8"))
        roots = list(getattr(module, "__path__", []))
        if roots:
            for root in sorted(roots):
                for dirpath, dirnames, filenames in os.walk(root):
                    dirnames.sort()
                    for filename in sorted(filenames):
                        if not filename.endswith(".py"):
                            continue
                        path = os.path.join(dirpath, filename)
                        rel = os.path.relpath(path, root)
                        hasher.update(rel.encode("utf-8"))
                        with open(path, "rb") as handle:
                            hasher.update(handle.read())
        else:
            path = getattr(module, "__file__", None)
            if path and os.path.exists(path):
                hasher.update(os.path.basename(path).encode("utf-8"))
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    digest = hasher.hexdigest()
    _digest_memo[key] = digest
    return digest


def clear_digest_memo() -> None:
    """Forget memoised digests (tests that edit sources need this)."""
    _digest_memo.clear()


def canonical(value: Any) -> Any:
    """A deterministic, order-independent normal form for config values.

    Dataclasses become (type name, sorted field items), dicts sort their
    items, sequences normalise element-wise; anything else falls back to
    ``repr``.  Two configs that compare equal canonicalise identically,
    so the fingerprint cannot depend on dict insertion order.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ("dataclass", type(value).__qualname__,
                tuple((f.name, canonical(getattr(value, f.name)))
                      for f in dataclasses.fields(value)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((str(k), canonical(v))
                                     for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical(v) for v in value))
    if isinstance(value, (str, int, float, bool, bytes)) or value is None:
        return value
    return ("repr", repr(value))


def fingerprint(sweep_id: str, key: Any, config: Dict[str, Any], seed: int,
                digest: str, capture: bool = False,
                sample_interval_ns: Optional[float] = None) -> str:
    """The content address of one sweep point's result.

    ``sample_interval_ns`` (``None`` or 0 when sampling is off) is part
    of every key, so a sampling run can never replay a cache entry that
    carries no timeline payload (or one sampled at a different interval).
    """
    parts = [sweep_id, canonical(key), canonical(config), seed,
             bool(capture), digest, _package_version(),
             ("timeline", float(sample_interval_ns or 0.0))]
    blob = repr(tuple(parts))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Pickle-file cache keyed by fingerprint, with hit/miss accounting."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.quarantined = 0

    def path_for(self, fp: str) -> str:
        return os.path.join(self.root, fp[:2], fp + ".pkl")

    def get(self, fp: str) -> Tuple[bool, Any]:
        """(hit, value); unreadable or corrupt entries count as misses.

        A present-but-undecodable entry is additionally **quarantined**:
        renamed to ``<entry>.corrupt`` so it stops being retried on every
        sweep, and counted in :meth:`stats_line`.  A merely *absent*
        entry is a plain miss.
        """
        path = self.path_for(fp)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception:  # unreadable, or any pickle decode failure
            self.misses += 1
            self._quarantine(path)
            return False, None
        self.hits += 1
        return True, value

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + ".corrupt")
            self.quarantined += 1
        except OSError:  # pragma: no cover - raced by a concurrent run
            pass

    def put(self, fp: str, value: Any) -> None:
        path = self.path_for(fp)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # mkstemp opens O_EXCL, so runs sharing --cache-dir can never
        # write through the same temp file; each replace is whole-file.
        fd, tmp = tempfile.mkstemp(prefix=fp + ".", suffix=".tmp",
                                   dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)  # atomic: concurrent writers race safely
            self.puts += 1
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - already renamed
                pass
            raise

    def stats_line(self) -> str:
        line = (f"cache: {self.hits} hit(s), {self.misses} miss(es) "
                f"({self.root})")
        if self.quarantined:
            line += f", {self.quarantined} corrupt entr(ies) quarantined"
        return line

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ResultCache {self.root} +{self.hits}/-{self.misses}>"
