"""Self-tests of the benchmark at its smoke scale (under a minute).

    PYTHONPATH=src python -m pytest figbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import pytest

import compare
import run
import workloads

with open(run.BENCHMARK_JSON, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*argv: str):
    """``run.main`` in-process: (exit code, stdout lines, final JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--smoke", "--repeats", "1", *argv])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced smoke runs of every workload."""
    tmp = tmp_path_factory.mktemp("figbench")
    runs = []
    for name in ("a", "b"):
        path = str(tmp / f"{name}.json")
        code, lines, final = bench("--trace", "1", "--out", path)
        with open(path, encoding="utf-8") as handle:
            runs.append((code, lines, final, json.load(handle)))
    return runs


def test_contract_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_every_metric_is_emitted_with_its_unit(traced_runs, tmp_path):
    code, _, final = bench("--workload", "node_smp",
                           "--out", str(tmp_path / "e2e.json"))
    assert code == 0 and final["correct"]
    assert final["metrics"] == {
        m["name"]: {"value": final["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in SPEC["end_to_end"]}
    for code, lines, final, results in traced_runs:
        assert code == 0 and final["correct"]
        for name in workloads.WORKLOADS:
            for m in SPEC["per_layer"]:
                emitted = final["metrics"][f"{name}.{m['name']}"]
                assert emitted["unit"] == m["unit"]
                assert isinstance(emitted["value"], (int, float))
            for m in SPEC["end_to_end"]:
                assert results["workloads"][name]["samples"][m["name"]]
                assert any(line.split()[:1] == [m["name"]]
                           and line.split()[2] == m["unit"]
                           for line in lines)


def test_counters_repeat_and_no_op_fails(traced_runs):
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in run.EXACT_UNITS]
    (_, _, _, first), (_, _, _, second) = traced_runs
    for name in workloads.WORKLOADS:
        a = first["workloads"][name]
        b = second["workloads"][name]
        assert {m: a["per_layer"][m] for m in exact} == \
            {m: b["per_layer"][m] for m in exact}
        assert a["failed"] == b["failed"] == 0
        assert a["ops_failed_frac"] == 0.0
    # Each workload exercises the layers it was chosen for.
    layer = {name: first["workloads"][name]["per_layer"]
             for name in workloads.WORKLOADS}
    for name in ("node_smp", "node_uni"):
        assert layer[name]["memory.accesses"] > 0
        assert layer[name]["sim.events"] == 0
    for name in ("comm_figs", "traffic_load"):
        assert layer[name]["sim.events"] > 0
        assert layer[name]["memory.accesses"] == 0
    assert layer["comm_figs"]["network.xbar_collisions"] == 0
    assert layer["traffic_load"]["network.xbar_collisions"] > 0


def test_span_self_times_are_not_negative(traced_runs):
    for name in workloads.WORKLOADS:
        path = os.path.join(run.OUT_DIR, f"{name}.spans.json")
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        assert spans
        assert all(span["self_ns"] >= 0 for span in spans)


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(base, base, 0.1, True)[0] == "ok"
    slower = [v * 1.3 for v in base]
    assert compare.verdict(base, slower, 0.1, True)[0] == "regressed"
    # Within the bound, but worse than the base's spread in every pair.
    result, _, pairs = compare.verdict(base, [v * 1.05 for v in base], 0.1,
                                       True)
    assert (result, pairs) == ("slower", "0/10")
    faster = [v * 0.8 for v in base]
    result, change, pairs = compare.verdict(base, faster, 0.1, True)
    assert (result, pairs) == ("improved", "10/10") and change < 0
    # Higher-is-better metrics flip the sign.
    assert compare.verdict(base, faster, 0.1, False)[0] == "regressed"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert compare.verdict(base, noisy, 0.1, True)[0] == "unresolved"


def test_tampered_reference_fails(tmp_path, monkeypatch):
    reference = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, reference)
    path = reference / "smoke" / "node_smp" / "fig8.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].replace("1.", "0.", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFERENCE_DIR", str(reference))
    out = str(tmp_path / "tampered.json")
    code, _, final = bench("--workload", "node_smp", "--out", out)
    assert code != 0
    assert not final["correct"] and final["failed"] > 0
    with open(out, encoding="utf-8") as handle:
        results = json.load(handle)["workloads"]["node_smp"]
    assert results["ops_failed_frac"] > 0
