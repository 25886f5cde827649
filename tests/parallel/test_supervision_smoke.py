"""Supervision through a real ``python -m repro`` child, under ``smoke``.

The in-process twins in ``test_supervise.py`` cover the executor's
logic.  These tests add the path they cannot: ``REPRO_HARNESS_FAULTS``
read by a fresh interpreter, real worker processes killed or hung, the
CLI's exit codes and the files it leaves.  They take about a minute
(one case waits out a 10 s point timeout), so tier-1 skips them::

    PYTHONPATH=src python -m pytest -m smoke
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.faults.harness import HARNESS_FAULTS_ENV
from repro.parallel import JOURNAL_ENV

pytestmark = pytest.mark.smoke

SRC = str(Path(repro.__file__).resolve().parent.parent)


def repro_child(tmp_path, *args, faults=None):
    """Run ``python -m repro *args`` in ``tmp_path``; return the
    completed process (stdout and stderr as text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env[JOURNAL_ENV] = str(tmp_path / "journals")
    env.pop(HARNESS_FAULTS_ENV, None)
    if faults is not None:
        env[HARNESS_FAULTS_ENV] = json.dumps({"faults": faults})
    return subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)


def test_fig9_survives_an_injected_worker_crash_and_hang(tmp_path):
    """Point 1's worker is killed outright and point 2's hangs for 60 s;
    the supervisor must time out the hang, retry both, and still print
    exactly what a clean run prints."""
    sweep = ("fig9", "--sizes", "8", "64", "512", "--no-cache", "--jobs", "2")
    clean = repro_child(tmp_path, *sweep)
    assert clean.returncode == 0, clean.stderr
    faulted = repro_child(
        tmp_path, *sweep, "--retries", "2", "--point-timeout", "10",
        faults=[{"kind": "worker_crash", "point": 1},
                {"kind": "worker_hang", "point": 2, "hang_s": 60}])
    assert faulted.returncode == 0, faulted.stderr
    assert faulted.stdout == clean.stdout
    assert "supervision:" in faulted.stderr
    assert "retries" in faulted.stderr


def test_interrupted_campaign_resumes_to_a_byte_identical_report(tmp_path):
    """``run_interrupt`` stops the campaign after 2 points exactly as a
    Ctrl-C would (exit 130, journal flushed); ``--resume`` replays the
    journaled points and the final report must match an uninterrupted
    run's byte for byte."""
    campaign = ("chaos", "--link-error-rate", "0.05", "--seed", "11",
                "--seeds", "6", "--jobs", "2", "--no-cache")
    reference = tmp_path / "reference.json"
    resumed = tmp_path / "resumed.json"
    journal = tmp_path / "campaign.jsonl"
    done = repro_child(tmp_path, *campaign, "--no-journal",
                       "--report-out", str(reference))
    assert done.returncode == 0, done.stderr

    interrupted = repro_child(
        tmp_path, *campaign, "--journal", str(journal),
        "--report-out", str(resumed),
        faults=[{"kind": "run_interrupt", "after_points": 2}])
    assert interrupted.returncode == 130, interrupted.stderr
    assert not resumed.exists()
    assert "--resume" in interrupted.stderr

    resume = repro_child(tmp_path, *campaign, "--resume", str(journal),
                         "--report-out", str(resumed))
    assert resume.returncode == 0, resume.stderr
    assert "resumed from journal" in resume.stderr
    assert resumed.read_bytes() == reference.read_bytes()


def test_poisoned_point_is_quarantined_with_exit_3(tmp_path):
    """A point whose worker crashes on every attempt is quarantined
    instead of aborting the sweep, and the command exits 3."""
    poisoned = repro_child(
        tmp_path, "fig9", "--sizes", "8", "64", "--no-cache", "--jobs", "2",
        "--retries", "1",
        faults=[{"kind": "worker_crash", "point": 0, "attempt": None}])
    assert poisoned.returncode == 3, poisoned.stderr
    assert "quarantined" in poisoned.stderr
