"""The benchmark's workloads and the checks on their outputs.

Each workload is one or more ``python -m repro`` figure commands.  Their
sizes are cut down so that a run repeats the cold pass several times
within its time budget; README.md gives the full-size walls and the
measurements that show each cut workload keeps the property it was
chosen for.

A command's output is checked row by row: a row is one non-blank stdout
line, and one row is one operation.  A row fails when it is missing or
differs from the recorded reference; a nonzero exit fails every row of
that command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: The seed the seeded commands' reference rows were recorded at; other
#: seeds are checked by the load-sweep invariant only.
REFERENCE_SEED = 11
DEFAULT_SEED = 11

TRAFFIC_TOPOLOGY = "xbar_tree:levels=2,arity=4"
TRAFFIC_ARBITER = "priority"
TRAFFIC_CLASSES = "urgent:prio=0:weight=4,bulk:prio=1:weight=1"
TRAFFIC_MIX = "urgent=incast:0.2:odd,bulk=hotspot:0.8:even"


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` invocation of a workload.

    ``name`` is unique within the workload and names the reference file.
    A ``seeded`` command also takes ``--seed`` and ``--json-out``.
    """

    name: str
    args: Tuple[str, ...]
    seeded: bool = False

    def argv(self, seed: int, json_out: str) -> List[str]:
        argv = list(self.args) + ["--jobs", "1"]
        if self.seeded:
            argv += ["--seed", str(seed), "--json-out", json_out]
        return argv

    def reference_name(self, seed: int) -> str:
        return f"{self.name}.seed{seed}" if self.seeded else self.name


@dataclass(frozen=True)
class Workload:
    """A named set of commands, by scale, plus the machine its set-up
    builds.  Why each workload exists is recorded in BENCHMARK.json.

    ``machine`` is ``"node"`` (one PowerMANNA SMP node), ``"cluster"``
    (the 8-node cluster world) or ``"topology"`` (the classed
    ``xbar_tree`` world of the traffic workload).
    """

    name: str
    machine: str
    commands: Dict[str, Tuple[Command, ...]]


def _figs(names: Sequence[str], sizes: Sequence[int]) -> Tuple[Command, ...]:
    sizes_args = ("--sizes",) + tuple(str(n) for n in sizes)
    return tuple(Command(name, (name,) + sizes_args) for name in names)


def _traffic(messages: int) -> Tuple[Command, ...]:
    return (Command("traffic", (
        "traffic", "--topology", TRAFFIC_TOPOLOGY,
        "--arbiter", TRAFFIC_ARBITER, "--classes", TRAFFIC_CLASSES,
        "--pattern-mix", TRAFFIC_MIX, "--load", "0.3,0.5,0.8",
        "--messages", str(messages)), seeded=True),)


COMM_FIGS = ("fig9", "fig10", "fig11", "fig12")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "node_smp", "node",
        {"full": (Command("fig8", ("fig8", "--sizes", "16", "24")),),
         "smoke": (Command("fig8", ("fig8", "--sizes", "8")),)}),
    Workload(
        "node_uni", "node",
        {"full": (Command("fig6", ("fig6",)),
                  Command("fig7", ("fig7", "--sizes", "8", "24", "48"))),
         "smoke": (Command("fig6", ("fig6", "--subintervals", "64")),
                   Command("fig7", ("fig7", "--sizes", "8")))}),
    Workload(
        "comm_figs", "cluster",
        {"full": _figs(COMM_FIGS, (4, 64, 1024, 32768)),
         "smoke": _figs(COMM_FIGS, (8, 64))}),
    Workload(
        # At 12 messages the three load points differ in messages in
        # flight, collisions and urgent p99; at 4 they were one point.
        "traffic_load", "topology",
        {"full": _traffic(12), "smoke": _traffic(2)}),
)}


# -- output checks ----------------------------------------------------------


def rows(text: str) -> List[str]:
    """The non-blank lines of a command's stdout, byte for byte."""
    return [line for line in text.split("\n") if line.strip()]


def reference_path(scale: str, workload: str, command: Command,
                   seed: int) -> str:
    return os.path.join(REFERENCE_DIR, scale, workload,
                        command.reference_name(seed) + ".txt")


def load_reference(scale: str, workload: str, command: Command,
                   seed: int) -> Optional[List[str]]:
    """The reference rows, or ``None`` for a seeded command at a seed no
    reference was recorded at."""
    path = reference_path(scale, workload, command, seed)
    if command.seeded and seed != REFERENCE_SEED and not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return rows(handle.read())


def check_rows(expected: List[str], stdout: str,
               returncode: int) -> Tuple[int, int]:
    """``(attempted, failed)`` of one command's rows against ``expected``.

    Every expected row is one operation; each row printed beyond them is
    one more, failed, operation.
    """
    if returncode != 0:
        return max(1, len(expected)), max(1, len(expected))
    got = rows(stdout)
    failed = sum(1 for i, row in enumerate(expected)
                 if i >= len(got) or got[i] != row)
    extra = max(0, len(got) - len(expected))
    return len(expected) + extra, failed + extra


def check_load_json(path: str, returncode: int) -> Tuple[int, int]:
    """``(attempted, failed)`` of the load-sweep invariant.

    One operation per load point: the messages delivered across its
    classes must sum to the messages it planned.
    """
    if returncode != 0 or not os.path.exists(path):
        return 1, 1
    with open(path, encoding="utf-8") as handle:
        points = json.load(handle)
    if not points:
        return 1, 1
    failed = sum(1 for point in points
                 if sum(c["messages"] for c in point["classes"])
                 != point["messages"])
    return len(points), failed
