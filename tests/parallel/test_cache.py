"""The content-addressed result cache: hits, misses, invalidation."""

import os
import textwrap

import pytest

import repro.parallel.sweep as sweep_mod
from repro.parallel import (
    ResultCache,
    canonical,
    clear_digest_memo,
    fingerprint,
    run_sweep,
    source_digest,
    sweep_values,
)

CALLS = {"n": 0}


def counting_task(config, seed):
    CALLS["n"] += 1
    return config["n"] * 10


def _points(ns):
    return [(("n", n), {"n": n}) for n in ns]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        hit, value = cache.get("ab" * 32)
        assert (hit, value) == (False, None)
        cache.put("ab" * 32, {"value": 42})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"value": 42}
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fp = "cd" * 32
        cache.put(fp, {"value": 1})
        with open(cache.path_for(fp), "wb") as handle:
            handle.write(b"not a pickle")
        hit, value = cache.get(fp)
        assert (hit, value) == (False, None)

    def test_entries_shard_by_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.path_for("beef") == str(tmp_path / "be" / "beef.pkl")


class TestCacheHardening:
    @pytest.mark.parametrize("blob", [
        b"garbage",
        b"\x80\x09",  # unsupported pickle protocol: ValueError
        b"\x80\x04X\x03\x00\x00\x00\xff\xfe\xfd.",  # UnicodeDecodeError
    ], ids=["garbage", "bad-protocol", "bad-utf8"])
    def test_corrupt_entry_is_quarantined(self, tmp_path, blob):
        cache = ResultCache(str(tmp_path))
        fp = "ee" * 32
        cache.put(fp, {"value": 1})
        with open(cache.path_for(fp), "wb") as handle:
            handle.write(blob)
        hit, value = cache.get(fp)
        assert (hit, value) == (False, None)
        assert cache.quarantined == 1
        # The bad entry is renamed aside, so it can never poison a later
        # sweep, and the evidence survives for inspection.
        assert not os.path.exists(cache.path_for(fp))
        assert os.path.exists(cache.path_for(fp) + ".corrupt")
        assert "1 corrupt entr(ies) quarantined" in cache.stats_line()

    def test_plain_absence_is_not_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        hit, _ = cache.get("ab" * 32)
        assert not hit
        assert cache.quarantined == 0
        assert "quarantined" not in cache.stats_line()

    def test_put_leaves_no_temp_droppings(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        fp = "aa" * 32
        cache.put(fp, {"value": 2})
        cache.put(fp, {"value": 3})  # overwrite goes through a fresh temp
        shard = os.path.dirname(cache.path_for(fp))
        assert os.listdir(shard) == [fp + ".pkl"]
        hit, value = cache.get(fp)
        assert hit and value == {"value": 3}


class TestFingerprint:
    def test_stable(self):
        args = ("s", ("n", 3), {"a": 1}, 7, "digest")
        assert fingerprint(*args) == fingerprint(*args)

    @pytest.mark.parametrize("mutation", [
        lambda: fingerprint("other", ("n", 3), {"a": 1}, 7, "digest"),
        lambda: fingerprint("s", ("n", 4), {"a": 1}, 7, "digest"),
        lambda: fingerprint("s", ("n", 3), {"a": 2}, 7, "digest"),
        lambda: fingerprint("s", ("n", 3), {"a": 1}, 8, "digest"),
        lambda: fingerprint("s", ("n", 3), {"a": 1}, 7, "edited"),
        lambda: fingerprint("s", ("n", 3), {"a": 1}, 7, "digest",
                            capture=True),
        lambda: fingerprint("s", ("n", 3), {"a": 1}, 7, "digest",
                            sample_interval_ns=10.0),
    ])
    def test_every_ingredient_matters(self, mutation):
        base = fingerprint("s", ("n", 3), {"a": 1}, 7, "digest")
        assert mutation() != base

    def test_dict_order_does_not_matter(self):
        assert fingerprint("s", "k", {"a": 1, "b": 2}, 0, "d") == \
            fingerprint("s", "k", {"b": 2, "a": 1}, 0, "d")

    def test_canonical_normalises_nested_structures(self):
        assert canonical({"b": [1, 2], "a": (1, 2)}) == \
            canonical({"a": [1, 2], "b": (1, 2)})
        assert canonical({"a": 1}) != canonical({"a": 2})


class TestSourceDigest:
    def _write_module(self, root, body):
        path = os.path.join(root, "repro_digest_probe.py")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(body))
        return path

    def test_digest_changes_when_source_changes(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(tmp_path))
        self._write_module(str(tmp_path), "X = 1\n")
        clear_digest_memo()
        before = source_digest(["repro_digest_probe"])
        self._write_module(str(tmp_path), "X = 2\n")
        clear_digest_memo()
        after = source_digest(["repro_digest_probe"])
        assert before != after

    def test_digest_is_memoised(self):
        clear_digest_memo()
        assert source_digest(["repro.parallel"]) == \
            source_digest(["repro.parallel"])


class TestSweepCaching:
    def test_warm_cache_recomputes_nothing(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        CALLS["n"] = 0
        cold = run_sweep("cc", _points([1, 2]), counting_task, cache=cache)
        assert CALLS["n"] == 2 and cache.misses == 2
        warm_cache = ResultCache(str(tmp_path))
        warm = run_sweep("cc", _points([1, 2]), counting_task,
                         cache=warm_cache)
        assert CALLS["n"] == 2  # zero recomputed points
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert sweep_values(warm) == sweep_values(cold) == [10, 20]
        assert all(o.cached for o in warm)

    def test_source_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        CALLS["n"] = 0
        monkeypatch.setattr(sweep_mod, "source_digest", lambda mods: "v1")
        run_sweep("cc", _points([3]), counting_task, cache=cache,
                  modules=("repro.parallel",))
        assert CALLS["n"] == 1
        # The covered source "changes": the digest flips, so the stored
        # entry no longer matches and the point recomputes.
        monkeypatch.setattr(sweep_mod, "source_digest", lambda mods: "v2")
        cache2 = ResultCache(str(tmp_path))
        run_sweep("cc", _points([3]), counting_task, cache=cache2,
                  modules=("repro.parallel",))
        assert CALLS["n"] == 2
        assert cache2.misses == 1 and cache2.hits == 0

    def test_different_sweep_ids_do_not_share_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        CALLS["n"] = 0
        run_sweep("cc", _points([4]), counting_task, cache=cache)
        run_sweep("dd", _points([4]), counting_task, cache=cache)
        assert CALLS["n"] == 2 and cache.hits == 0
