"""The supervised executor: retries, quarantine, interrupts, resume.

Worker-killing scenarios are driven through ``REPRO_HARNESS_FAULTS`` —
the same deterministic injection path ``test_supervision_smoke.py``
drives through a real ``python -m repro`` child — so every recovery
behaviour asserted here is reproducible."""

import json
import os

import pytest

from repro.faults import HARNESS_FAULTS_ENV
from repro.obs import observe
from repro.parallel import (
    PoisonedSweepError,
    SuperviseConfig,
    SupervisionStats,
    SweepInterrupted,
    load_journal,
    run_sweep,
    sweep_values,
)

# Point functions live at module level so pool workers can pickle them.


def echo_task(config, seed):
    return config["x"] * 2 + (seed % 3)


def selective_fail_task(config, seed):
    if config["x"] == 3:
        raise ValueError(f"bad point {config['x']}")
    return config["x"] * 2


FLAKY_CALLS = {"n": 0}


def flaky_task(config, seed):
    """Fails its first in-process call, then succeeds (jobs=1 only)."""
    FLAKY_CALLS["n"] += 1
    if FLAKY_CALLS["n"] == 1:
        raise RuntimeError("transient")
    return config["x"]


POINTS = [((i,), {"x": i}) for i in range(6)]


def _clean_values():
    return sweep_values(run_sweep("sup", POINTS, echo_task))


def _faults(*specs):
    return json.dumps({"faults": list(specs)})


def _config(tmp_path, name="run.jsonl", **kw):
    kw.setdefault("backoff_base_s", 0.01)
    return SuperviseConfig(journal_path=str(tmp_path / name), **kw)


class TestSuperviseConfig:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SuperviseConfig(retries=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            SuperviseConfig(point_timeout_s=0.0)

    def test_backoff_doubles_and_caps(self):
        config = SuperviseConfig(backoff_base_s=0.1, backoff_max_s=0.3)
        assert config.backoff_s(1) == pytest.approx(0.1)
        assert config.backoff_s(2) == pytest.approx(0.2)
        assert config.backoff_s(3) == pytest.approx(0.3)  # capped
        assert config.backoff_s(9) == pytest.approx(0.3)


class TestSupervisionStats:
    def test_clean_run_summary(self):
        stats = SupervisionStats()
        assert not stats.any_events()
        assert stats.summary_line() == "supervision: clean run"

    def test_eventful_summary_names_counts(self):
        stats = SupervisionStats(retries=2, worker_deaths=1, resumed=3)
        assert stats.any_events()
        line = stats.summary_line()
        assert "2 retries" in line
        assert "1 worker deaths" in line
        assert "3 resumed from journal" in line

    def test_publish_emits_only_nonzero_counters(self):
        with observe() as session:
            SupervisionStats(retries=2, resumed=5).publish()
        names = [row["metric"] for row in session.metrics.rows()]
        assert names == ["supervision.retries"]
        assert session.metrics.counter("supervision.retries").value == 2

    def test_clean_publish_emits_nothing(self):
        with observe() as session:
            SupervisionStats().publish()
        assert len(session.metrics) == 0


class TestSupervisedSerial:
    def test_matches_unsupervised_values_and_journals(self, tmp_path):
        supervise = _config(tmp_path)
        outcomes = run_sweep("sup", POINTS, echo_task, supervise=supervise)
        assert sweep_values(outcomes) == _clean_values()
        state = load_journal(supervise.journal_path_used)
        assert state.sweep_id == "sup"
        assert len(state.done) == len(POINTS)
        assert state.ended_ok is True
        # Journaling computes real fingerprints even without a cache.
        assert all(p["fp"] for p in state.plan.values())

    def test_transient_failure_is_retried_in_process(self, tmp_path):
        FLAKY_CALLS["n"] = 0
        supervise = _config(tmp_path, retries=2)
        outcomes = run_sweep("flaky", [((0,), {"x": 9})], flaky_task,
                             supervise=supervise)
        assert sweep_values(outcomes) == [9]
        assert supervise.stats.retries == 1
        assert supervise.stats.quarantined == 0

    def test_persistent_failure_is_quarantined(self, tmp_path):
        supervise = _config(tmp_path, retries=1)
        with pytest.raises(PoisonedSweepError) as info:
            run_sweep("sup", POINTS, selective_fail_task,
                      supervise=supervise)
        error = info.value
        assert [p.key for p in error.poisoned] == [(3,)]
        assert error.poisoned[0].attempts == 2
        assert "bad point 3" in error.poisoned[0].error
        assert error.journal_path == supervise.journal_path_used
        # The survivors are still usable from the exception.
        healthy = [o for o in error.outcomes if not o.failed]
        assert sweep_values(healthy) == [0, 2, 4, 8, 10]
        assert supervise.stats.quarantined == 1
        assert load_journal(supervise.journal_path_used).ended_ok is False


class TestPoolSupervision:
    def test_worker_crash_is_retried(self, monkeypatch, tmp_path):
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "worker_crash", "point": 1}))
        supervise = _config(tmp_path)
        outcomes = run_sweep("sup", POINTS, echo_task, jobs=2,
                             supervise=supervise)
        assert sweep_values(outcomes) == _clean_values()
        assert supervise.stats.worker_deaths == 1
        assert supervise.stats.retries == 1
        assert supervise.stats.quarantined == 0

    def test_hung_worker_is_timed_out(self, monkeypatch, tmp_path):
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "worker_hang", "point": 2, "hang_s": 30}))
        supervise = _config(tmp_path, point_timeout_s=1.0)
        outcomes = run_sweep("sup", POINTS, echo_task, jobs=2,
                             supervise=supervise)
        assert sweep_values(outcomes) == _clean_values()
        assert supervise.stats.timeouts == 1
        assert supervise.stats.quarantined == 0

    def test_corrupt_result_fails_digest_and_retries(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "result_corrupt", "point": 0}))
        supervise = _config(tmp_path)
        outcomes = run_sweep("sup", POINTS, echo_task, jobs=2,
                             supervise=supervise)
        assert sweep_values(outcomes) == _clean_values()
        assert supervise.stats.corrupt_results == 1

    def test_dying_pool_degrades_to_serial(self, monkeypatch, tmp_path):
        # Crash every attempt of every point: the pool can never finish,
        # so the respawn budget exhausts and the remaining points run
        # in-process (where harness worker faults do not apply).
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "worker_crash", "point": None, "attempt": None}))
        supervise = _config(tmp_path, retries=5)
        outcomes = run_sweep("sup", POINTS, echo_task, jobs=2,
                             supervise=supervise)
        assert sweep_values(outcomes) == _clean_values()
        assert supervise.stats.degraded == 1
        assert supervise.stats.worker_deaths > 0
        assert supervise.stats.quarantined == 0

    def test_counters_publish_into_ambient_session(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "worker_crash", "point": 1}))
        with observe() as session:
            run_sweep("sup", POINTS, echo_task, jobs=2,
                      supervise=_config(tmp_path))
        assert session.metrics.counter("supervision.retries").value == 1
        assert session.metrics.counter(
            "supervision.worker_deaths").value == 1


class TestInterruptAndResume:
    def test_injected_interrupt_then_resume_is_identical(self, monkeypatch,
                                                         tmp_path):
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "run_interrupt", "after_points": 3}))
        first = _config(tmp_path)
        with pytest.raises(SweepInterrupted) as info:
            run_sweep("sup", POINTS, echo_task, jobs=2, supervise=first)
        journal_path = info.value.journal_path
        assert journal_path == first.journal_path_used
        state = load_journal(journal_path)
        assert 3 <= len(state.done) < len(POINTS)
        assert any(e["kind"] == "interrupt" for e in state.events)

        monkeypatch.delenv(HARNESS_FAULTS_ENV)
        resume = SuperviseConfig(resume_from=journal_path)
        outcomes = run_sweep("sup", POINTS, echo_task, jobs=2,
                             supervise=resume)
        assert sweep_values(outcomes) == _clean_values()
        assert resume.stats.resumed >= 3
        replayed = [o for o in outcomes if o.cached]
        assert len(replayed) == resume.stats.resumed
        assert load_journal(journal_path).ended_ok is True

    def test_resume_rejects_foreign_journal(self, tmp_path):
        supervise = _config(tmp_path)
        run_sweep("sup", POINTS, echo_task, supervise=supervise)
        with pytest.raises(ValueError, match="records sweep"):
            run_sweep("other", POINTS, echo_task, supervise=SuperviseConfig(
                resume_from=supervise.journal_path_used))

    def test_stale_fingerprints_recompute_on_resume(self, tmp_path):
        supervise = _config(tmp_path)
        run_sweep("sup", POINTS, echo_task, supervise=supervise)
        # A different seed base changes every fingerprint: nothing in the
        # journal may replay, yet the resume must still succeed.
        resume = SuperviseConfig(resume_from=supervise.journal_path_used)
        outcomes = run_sweep("sup", POINTS, echo_task, seed_base=1,
                             supervise=resume)
        assert resume.stats.resumed == 0
        assert not any(o.cached for o in outcomes)


class TestCliSupervision:
    def test_campaign_interrupt_resume_report_is_byte_identical(
            self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        base = ["chaos", "--seed", "11", "--seeds", "4", "--messages", "4",
                "--link-error-rate", "0.05", "--no-cache", "--jobs", "2"]
        journal = str(tmp_path / "campaign.jsonl")
        reference = str(tmp_path / "reference.json")
        resumed = str(tmp_path / "resumed.json")

        monkeypatch.delenv(HARNESS_FAULTS_ENV, raising=False)
        assert main(base + ["--no-journal", "--report-out", reference]) == 0
        capsys.readouterr()

        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "run_interrupt", "after_points": 2}))
        assert main(base + ["--journal", journal,
                            "--report-out", resumed]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" in err
        assert not os.path.exists(resumed)  # nothing half-written

        monkeypatch.delenv(HARNESS_FAULTS_ENV)
        assert main(base + ["--resume", journal,
                            "--report-out", resumed]) == 0
        assert "resumed from journal" in capsys.readouterr().err
        with open(reference, "rb") as ref, open(resumed, "rb") as res:
            assert ref.read() == res.read()

    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["no-journal", "journal"])
    def test_interrupt_message_names_the_journal_only_if_one_exists(
            self, monkeypatch, tmp_path, capsys, journaled):
        from repro.cli import main

        argv = ["fig9", "--sizes", "8", "64", "--no-cache", "--jobs", "1"]
        journal = str(tmp_path / "fig9.jsonl")
        argv += ["--journal", journal] if journaled else ["--no-journal"]
        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "run_interrupt", "after_points": 1}))
        assert main(argv) == 130
        err = capsys.readouterr().err.splitlines()
        if journaled:
            assert err == ["interrupted: journal flushed, workers shut down",
                           f"resume with: --resume {journal}"]
        else:
            assert err == ["interrupted"]

    def test_poisoned_sweep_exits_3(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv(HARNESS_FAULTS_ENV, _faults(
            {"kind": "worker_crash", "point": 0, "attempt": None}))
        code = main(["fig9", "--sizes", "8", "16", "--no-cache",
                     "--jobs", "2", "--retries", "1",
                     "--journal", str(tmp_path / "fig9.jsonl")])
        assert code == 3
        assert "quarantined" in capsys.readouterr().err
