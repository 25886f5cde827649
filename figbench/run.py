"""Figure-command benchmark: what a user waits for when running a figure.

    python3 figbench/run.py [--workload NAME]... [--seed 11]
                            [--seconds S | --repeats N] [--trace [0|1]]
                            [--out FILE] [--smoke] [--record]

Each workload (see ``workloads.py``) is a set of real ``python -m repro``
commands, each run in a fresh subprocess with ``--jobs 1``, one at a
time.  A round runs, for every selected workload in turn:

* ``cold_wall_s``: the commands against an empty result cache (a user's
  first run), with ``peak_rss_mb`` the largest child RSS;
* a sample pass: a calibration child, a fixed load shaped like a command
  that never touches the program, timed to gauge how fast the machine is
  right now; ``setup_s``, a fresh interpreter that imports ``repro.cli``
  and builds the workload's machine; and ``warm_wall_s``, the commands
  again against the cache the cold run filled, whose stdout must equal
  the cold stdout byte for byte;
* with ``--trace``, one traced pass: the same cold and warm commands in
  children with spans, counters and a stack sampler (``tracing.py``).

Rounds repeat until the next one would overrun ``--seconds`` (default:
``run_seconds`` of BENCHMARK.json), or ``--repeats`` times.  Without
``--trace``, more sample passes then fill what is left of the budget,
since set-up and warm walls are short and noisy.  Timings are
reported in reference seconds: each raw wall is scaled by
``REFERENCE_CALIBRATION_S`` over the calibration wall measured next to
it, which cancels much of the machine-wide slowdowns a shared host goes
through (README.md gives raw and scaled spreads of the same runs).
Every command's output is checked against ``reference/``; failed rows
count in ``ops_failed_frac``.  The script prints every metric with its unit,
writes every sample, scaled and raw, to ``--out``, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
``--trace 1``).  It exits 1 when any check failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import workloads as wl
from tracing import pass_metrics, span_dump

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Units of per-layer metrics that are deterministic simulator or
#: program counts: they repeat exactly, so any change is a difference in
#: the work done, not noise.
EXACT_UNITS = ("count", "ratio")

#: The end-to-end metrics (units in BENCHMARK.json): cold wall and RSS
#: are sampled once a round, set-up and warm wall once a sample pass.
SAMPLED = ("cold_wall_s", "warm_wall_s", "setup_s", "peak_rss_mb")
#: The sampled metrics that are times, and so scaled to reference seconds.
TIMED = ("cold_wall_s", "warm_wall_s", "setup_s")

#: The calibration child's median wall on the reference machine, a quiet
#: 2-core container.  There, the scale factor is about 1.
REFERENCE_CALIBRATION_S = 0.40


@dataclass
class Finished:
    """One child process, run to completion."""

    wall_s: float
    returncode: int
    stdout: str
    rss_mb: float


def run_child(argv: Sequence[str], env: Dict[str, str],
              stdout_path: str) -> Finished:
    """Run ``argv`` to completion; wall time and peak RSS via ``wait4``."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    if proc.returncode != 0:
        with open(stdout_path + ".err", encoding="utf-8",
                  errors="replace") as handle:
            tail = handle.read()[-2000:]
        print(f"exit {proc.returncode}: {' '.join(argv)}\n{tail}",
              file=sys.stderr)
    return Finished(wall, proc.returncode, stdout, usage.ru_maxrss / 1024.0)


def child_env(cache_dir: str) -> Dict[str, str]:
    """The children's environment: the checkout's ``src``, a private
    result cache (journals go under it) and a fixed hash seed."""
    env = dict(os.environ)
    for name in ("REPRO_JOURNAL_DIR", "REPRO_HARNESS_FAULTS"):
        env.pop(name, None)
    env.update(PYTHONPATH=SRC, REPRO_CACHE_DIR=cache_dir,
               PYTHONHASHSEED="0")
    return env


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class WorkloadRun:
    """Samples, checks and traced passes of one workload in one run."""

    workload: wl.Workload
    scale: str
    seed: int
    work_dir: str
    raw: Dict[str, List[float]] = field(
        default_factory=lambda: {name: [] for name in SAMPLED})
    calibration_s: List[float] = field(default_factory=list)
    #: The last cold pass's children and the environment naming its cache.
    cold: List[Finished] = field(default_factory=list)
    cache_env: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    traced_cold_s: List[float] = field(default_factory=list)
    passes: List[Dict[str, float]] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)

    @property
    def commands(self) -> Tuple[wl.Command, ...]:
        return self.workload.commands[self.scale]

    def _count(self, ops: Tuple[int, int], what: str) -> None:
        self.attempted += ops[0]
        self.failed += ops[1]
        if ops[1]:
            self.problems.append(f"{self.workload.name}: {what}: "
                                 f"{ops[1]} of {ops[0]} checks failed")

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _run_commands(self, phase: str, env: Dict[str, str],
                      prefixes: Sequence[List[str]],
                      cold: Optional[List[Finished]] = None
                      ) -> List[Finished]:
        """Run every command once, after its interpreter ``prefixes``
        entry, checking each as it finishes.

        A cold phase is checked against the references (and the
        load-sweep invariant), a warm phase against its ``cold`` stdout.
        """
        done = []
        for index, (command, prefix) in enumerate(zip(self.commands,
                                                      prefixes)):
            json_out = self.path(f"{command.name}.load.json")
            proc = run_child(prefix + command.argv(self.seed, json_out), env,
                             self.path(f"{command.name}.{phase}.out"))
            what = f"{phase} {command.name}"
            if cold is not None:
                self._count(wl.check_rows(wl.rows(cold[index].stdout),
                                          proc.stdout, proc.returncode), what)
                self._count((1, int(proc.stdout != cold[index].stdout)),
                            f"{what} stdout byte-equal to cold")
            else:
                reference = wl.load_reference(self.scale, self.workload.name,
                                              command, self.seed)
                if reference is not None:
                    self._count(wl.check_rows(reference, proc.stdout,
                                              proc.returncode), what)
                if command.seeded:
                    self._count(wl.check_load_json(json_out,
                                                   proc.returncode),
                                f"{what} load invariant")
            done.append(proc)
        return done

    def _step(self, *args: str) -> Finished:
        """One ``child.py`` step; a nonzero exit is a failed check."""
        proc = run_child([sys.executable, CHILD, *args],
                         child_env(self.work_dir), self.path(f"{args[0]}.out"))
        self._count((1, int(proc.returncode != 0)), args[0])
        return proc

    def cold_pass(self) -> None:
        """Run the commands against an empty cache."""
        self.cache_env = child_env(fresh_dir(self.path("cache")))
        prefixes = [[sys.executable, "-m", "repro"]] * len(self.commands)
        self.cold = self._run_commands("cold", self.cache_env, prefixes)
        self.raw["cold_wall_s"].append(sum(p.wall_s for p in self.cold))
        self.raw["peak_rss_mb"].append(max(p.rss_mb for p in self.cold))

    def sample_pass(self) -> None:
        """One calibration, one set-up, then the commands against the cache
        the last cold pass filled.  Calibrating in every pass spreads the
        calibrations over the whole run, like the samples they scale."""
        self.calibration_s.append(self._step("calibrate").wall_s)
        self.raw["setup_s"].append(self._step("setup",
                                              self.workload.name).wall_s)
        prefixes = [[sys.executable, "-m", "repro"]] * len(self.commands)
        warm = self._run_commands("warm", self.cache_env, prefixes,
                                  cold=self.cold)
        self.raw["warm_wall_s"].append(sum(p.wall_s for p in warm))

    def traced_pass(self, index: int) -> None:
        env = child_env(fresh_dir(self.path("cache")))
        records: Dict[str, List[dict]] = {}
        procs: Dict[str, List[Finished]] = {}
        for phase in ("cold", "warm"):
            paths = [self.path(f"{command.name}.traced-{phase}.json")
                     for command in self.commands]
            for path in paths:
                if os.path.exists(path):
                    os.remove(path)
            prefixes = [[sys.executable, CHILD, "traced",
                         f"{index}:{phase}:{command.name}", path, "--"]
                        for command, path in zip(self.commands, paths)]
            procs[phase] = self._run_commands(f"traced-{phase}", env,
                                              prefixes, cold=procs.get("cold"))
            records[phase] = []
            for path in paths:
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        records[phase].append(json.load(handle))
        wall = sum(p.wall_s for p in procs["cold"])
        self.traced_cold_s.append(wall)
        self.passes.append(pass_metrics(records["cold"], records["warm"],
                                        wall))
        self.spans += span_dump(records["cold"] + records["warm"])

    # -- results --------------------------------------------------------------

    def samples(self) -> Dict[str, List[float]]:
        """The sampled metrics, times scaled to reference seconds.

        Each time is scaled by the calibration of its own sample pass,
        the one measured next to it: pass ``i`` follows cold pass ``i``
        and holds set-up and warm sample ``i``.  The machine's speed
        changes within seconds, so a calibration further away tracks it
        worse.
        """
        return {name: [v * REFERENCE_CALIBRATION_S / c
                       for v, c in zip(values, self.calibration_s)]
                if name in TIMED else values
                for name, values in self.raw.items()}

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def per_layer(self, units: Dict[str, str]) -> Dict[str, float]:
        """Per-layer metrics over the traced passes: exact counts from
        the first pass (every pass must agree), timings as medians."""
        out: Dict[str, float] = {}
        for name, unit in units.items():
            if name == "trace_overhead_frac":
                out[name] = (statistics.median(self.traced_cold_s)
                             / statistics.median(self.raw["cold_wall_s"])
                             - 1.0)
                continue
            values = [metrics[name] for metrics in self.passes]
            if unit in EXACT_UNITS:
                if len(set(values)) > 1:
                    self.problems.append(
                        f"{self.workload.name}: {name} differs between "
                        f"traced passes: {values}")
                out[name] = values[0]
            else:
                out[name] = statistics.median(values)
        return out


def load_benchmark() -> Dict[str, Dict[str, dict]]:
    """The metric definitions of BENCHMARK.json, by section and name."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {section: {m["name"]: m for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def record_references(runs: List[WorkloadRun]) -> None:
    """Write every command's cold stdout as its reference rows."""
    for run in runs:
        env = child_env(fresh_dir(run.path("cache")))
        for command in run.commands:
            argv = [sys.executable, "-m", "repro"] + command.argv(
                run.seed, run.path(f"{command.name}.load.json"))
            proc = run_child(argv, env, run.path(f"{command.name}.out"))
            if proc.returncode != 0:
                raise SystemExit(f"cannot record {command.name}: exit "
                                 f"{proc.returncode}")
            path = wl.reference_path(run.scale, run.workload.name, command,
                                     run.seed)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
            print(f"wrote {os.path.relpath(path, ROOT)}")


def measure(runs: List[WorkloadRun], seconds: float,
            repeats: Optional[int], trace: bool) -> int:
    """Round-robin rounds over the workloads; returns the round count."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        started = time.perf_counter()
        pass_s = 0.0
        for run in runs:
            run.cold_pass()
            pass_started = time.perf_counter()
            run.sample_pass()
            pass_s += time.perf_counter() - pass_started
            if trace:
                run.traced_pass(rounds)
        rounds += 1
        now = time.perf_counter()
        if repeats is not None:
            if rounds >= repeats:
                return rounds
        elif now + (now - started) > deadline:
            break
    # A traced run reports per-layer metrics only, so it takes no more.
    while not trace and time.perf_counter() + pass_s <= deadline:
        started = time.perf_counter()
        for run in runs:
            run.sample_pass()
        pass_s = time.perf_counter() - started
    return rounds


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold, warm and set-up walls of the figure commands, "
                    "with a traced per-layer cost split.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(wl.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help="input seed of the seeded workloads "
                             "(default 11; 23 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run rounds until the next one would pass "
                             "this budget (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced pass per workload and round")
    parser.add_argument("--out", default=os.path.join(OUT_DIR,
                                                      "results.json"),
                        help="raw samples and summaries as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny command sizes, for self-tests")
    parser.add_argument("--record", action="store_true",
                        help="record the reference stdout of every command "
                             "at --seed and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_benchmark()
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        seconds = (args.seconds if args.seconds is not None
                   else json.load(handle)["run_seconds"])
    compileall.compile_dir(SRC, quiet=1)

    scale = "smoke" if args.smoke else "full"
    names = args.workload or list(wl.WORKLOADS)
    work = fresh_dir(os.path.join(OUT_DIR, "work"))
    runs = [WorkloadRun(wl.WORKLOADS[name], scale, args.seed,
                        fresh_dir(os.path.join(work, name)))
            for name in names]
    if args.record:
        record_references(runs)
        return 0

    rounds = measure(runs, seconds, args.repeats, bool(args.trace))

    units = {name: m["unit"] for section in spec.values()
             for name, m in section.items()}
    results = {"seed": args.seed, "scale": scale, "rounds": rounds,
               "trace": bool(args.trace), "workloads": {}}
    final: Dict[str, Dict[str, object]] = {}
    for run in runs:
        name = run.workload.name
        samples = run.samples()
        e2e = {metric: quartiles(values)
               for metric, values in samples.items()}
        entry = {"samples": samples, "raw_samples": run.raw,
                 "calibration_s": run.calibration_s, "end_to_end": e2e,
                 "attempted": run.attempted, "failed": run.failed,
                 "ops_failed_frac": run.failed_frac()}
        calibration = statistics.median(run.calibration_s)
        print(f"== {name} ({rounds} rounds, seed {args.seed}, {scale}, "
              f"median calibration {calibration:.3f} s)")
        for metric, summary in e2e.items():
            print(f"  {metric:<16} {_fmt(summary['median']):>10} "
                  f"{units[metric]:<5} q1 {_fmt(summary['q1'])}  "
                  f"q3 {_fmt(summary['q3'])}  n {summary['n']}")
        print(f"  {'ops_failed_frac':<16} {_fmt(run.failed_frac()):>10} "
              f"ratio {run.failed} of {run.attempted} checks failed")
        if args.trace:
            layers = run.per_layer({metric: units[metric]
                                    for metric in spec["per_layer"]})
            entry.update(per_layer=layers, traced_cold_s=run.traced_cold_s,
                         passes=run.passes)
            for metric, value in layers.items():
                print(f"  {metric:<34} {_fmt(value):>12} {units[metric]}")
            with open(os.path.join(OUT_DIR, f"{name}.spans.json"), "w",
                      encoding="utf-8") as handle:
                json.dump({"workload": name, "spans": run.spans}, handle)
        for problem in run.problems:
            print(f"  FAILED {problem}")
        entry["problems"] = run.problems
        results["workloads"][name] = entry

        label = "" if len(runs) == 1 else f"{name}."
        if args.trace:
            for metric, value in entry["per_layer"].items():
                final[label + metric] = {"value": value,
                                         "unit": units[metric]}
        else:
            for metric in spec["end_to_end"]:
                final[label + metric] = {"value": e2e[metric]["median"],
                                         "unit": units[metric]}

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    correct = failed == 0 and not any(run.problems for run in runs)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Termination raises SystemExit, so run_child kills its child first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
