"""The sweep scheduler: determinism, fan-out, observability merge."""

import os

import pytest

from repro.obs import OBS, observe
from repro.parallel import (
    JOURNAL_ENV,
    PointOutcome,
    derive_seed,
    run_sweep,
    sweep_values,
)

# Point functions live at module level so pool workers can pickle them.


def square_task(config, seed):
    return config["n"] * config["n"]


def seed_echo_task(config, seed):
    return seed


def observing_task(config, seed):
    """Records one counter, one gauge, and one message span tree."""
    n = config["n"]
    if OBS.enabled:
        OBS.metrics.incr("pt.count", n)
        OBS.metrics.set_gauge("pt.level", float(n))
        OBS.metrics.observe("pt.lat", float(n))
        tracer = OBS.tracer
        tracer.begin("message", "driver", 0.0, message=1, root=True)
        child = tracer.begin("ni.inject", "ni0", 1.0, message=1)
        tracer.end(child, 3.0)
        tracer.end_message(1, 4.0)
    return n


def _points(ns):
    return [(("n", n), {"n": n}) for n in ns]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("s", ("n", 3)) == derive_seed("s", ("n", 3))

    def test_distinct_per_key_sweep_and_base(self):
        seeds = {derive_seed("s", ("n", 3)), derive_seed("s", ("n", 4)),
                 derive_seed("t", ("n", 3)), derive_seed("s", ("n", 3), 1)}
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed("s", "k") < 1 << 63


class TestRunSweep:
    def test_values_in_input_order(self):
        outcomes = run_sweep("sq", _points([3, 1, 2]), square_task)
        assert [o.key for o in outcomes] == [("n", 3), ("n", 1), ("n", 2)]
        assert sweep_values(outcomes) == [9, 1, 4]
        assert all(isinstance(o, PointOutcome) and not o.cached
                   for o in outcomes)

    def test_seeds_are_derived_not_positional(self):
        outcomes = run_sweep("sd", _points([5, 6]), seed_echo_task)
        for o in outcomes:
            assert o.value == derive_seed("sd", o.key) == o.seed

    def test_jobs_do_not_change_results(self):
        serial = run_sweep("sq", _points([1, 2, 3, 4]), square_task, jobs=1)
        fanned = run_sweep("sq", _points([1, 2, 3, 4]), square_task, jobs=2)
        assert serial == fanned

    def test_empty_sweep(self):
        assert run_sweep("sq", [], square_task) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_library_sweep_writes_no_journal(self, monkeypatch, tmp_path,
                                             jobs):
        # No ``supervise`` means the supervised executor without a journal.
        monkeypatch.setenv(JOURNAL_ENV, str(tmp_path))
        outcomes = run_sweep("sq", _points([1, 2]), square_task, jobs=jobs)
        assert sweep_values(outcomes) == [1, 4]
        assert os.listdir(tmp_path) == []


class TestObservabilityMerge:
    def _run(self, jobs):
        with observe() as session:
            run_sweep("obs", _points([2, 5]), observing_task, jobs=jobs)
        return session

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_metrics_merge_into_ambient_session(self, jobs):
        session = self._run(jobs)
        assert session.metrics.counter("pt.count").value == 7
        assert session.metrics.gauge("pt.level").value == 5.0
        assert session.metrics.histogram("pt.lat").value == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spans_merge_with_distinct_message_ids(self, jobs):
        session = self._run(jobs)
        tracer = session.tracer
        assert tracer.message_ids() == [1, 2]  # one message per point
        for message in (1, 2):
            root = tracer.root_of(message)
            assert root is not None and root.finished
            kids = tracer.children_of(root.span_id)
            assert [k.name for k in kids] == ["ni.inject"]

    def test_jobs_levels_are_byte_identical(self):
        encodings = []
        for jobs in (1, 2):
            session = self._run(jobs)
            encodings.append((session.metrics.encode(),
                              session.tracer.encode()))
        assert encodings[0] == encodings[1]

    def test_disabled_session_stays_untouched(self):
        run_sweep("obs", _points([2]), observing_task)
        assert not OBS.enabled
        assert len(OBS.metrics) == 0
        assert len(OBS.tracer) == 0

    def test_forced_capture_without_session_is_safe(self):
        outcomes = run_sweep("obs", _points([2]), observing_task,
                             capture=True)
        assert sweep_values(outcomes) == [2]
        assert len(OBS.metrics) == 0  # never merged into the null session


class TestCliSweep:
    def test_fig7_identical_across_jobs(self, capsys):
        from repro.cli import main

        cases = ((["fig7", "--sizes", "8"], 2),
                 (["fig9", "--sizes", "8", "64",
                   "--topology", "hypercube:dimensions=3"], 4))
        for args, jobs in cases:
            assert main(args + ["--no-cache", "--jobs", "1"]) == 0
            serial = capsys.readouterr().out
            assert main(args + ["--no-cache", "--jobs", str(jobs)]) == 0
            assert capsys.readouterr().out == serial, args

    def test_fig7_warm_cache_is_identical_and_all_hits(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        for args in (["fig7", "--sizes", "8"],
                     ["fig11", "--sizes", "8", "64", "512"]):
            args = args + ["--cache-dir", str(tmp_path)]
            assert main(args) == 0
            cold = capsys.readouterr()
            assert main(args) == 0
            warm = capsys.readouterr()
            assert warm.out == cold.out, args
            assert "0 miss(es)" in warm.err, args  # zero recomputed points

    def test_fig9_default_topology_shares_cache_with_cluster(self, tmp_path,
                                                             capsys):
        from repro.cli import main

        args = ["fig9", "--sizes", "8", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        default = capsys.readouterr()
        assert main(args + ["--topology", "cluster"]) == 0
        cluster = capsys.readouterr()
        assert cluster.out == default.out
        assert "0 miss(es)" in cluster.err  # the same cache entries


class TestMessageIdIsolation:
    def test_points_do_not_leak_message_ids(self):
        from repro.network.message import Message, message_id_namespace

        before = Message(source=0, dest=1, payload_bytes=8).message_id
        with message_id_namespace():
            assert Message(source=0, dest=1, payload_bytes=8).message_id == 1
            assert Message(source=0, dest=1, payload_bytes=8).message_id == 2
        after = Message(source=0, dest=1, payload_bytes=8).message_id
        assert after == before + 1
