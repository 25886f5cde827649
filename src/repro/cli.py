"""Command-line interface: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig9 --sizes 8 64 1024
    python -m repro logp
    python -m repro fig7 --scale 32 --sizes 8 24 64

Each command prints the same rows the benchmark harness produces; the
heavier figures accept ``--scale``/``--sizes`` to trade fidelity for
speed.

Observability::

    python -m repro trace fig9 --out trace.json     # Perfetto-loadable
    python -m repro metrics fig7 --out metrics.json
    python -m repro fig9 --trace t.json --metrics-out m.json

Parallelism and caching::

    python -m repro fig7 --jobs 4                   # fan points out
    python -m repro chaos --seeds 16 --jobs 4       # multi-seed campaign
    python -m repro fig9 --no-cache                 # force recomputation

Every sweep-style command farms its independent points over ``--jobs``
worker processes and consults a content-addressed result cache
(``~/.cache/repro`` or ``--cache-dir``); output is byte-identical at any
``--jobs`` level, and re-running an unchanged figure is a cache hit.

Resilient execution::

    python -m repro fig9 --jobs 4 --point-timeout 60   # hang detection
    python -m repro chaos --seeds 16 --journal camp.jsonl
    python -m repro chaos --seeds 16 --resume camp.jsonl

Every sweep run is journaled (``--journal FILE`` to pick the path,
``--no-journal`` to disable); crashed or hung workers are retried up to
``--retries`` times, repeatedly-failing points are quarantined and
reported at the end (exit 3), and Ctrl-C stops cleanly at a point
boundary (exit 130) with a ``--resume`` hint.  A resumed run skips the
journaled points and produces byte-identical artifacts to an
uninterrupted one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.bench.hint import NODE_SWEEP_MODULES, hint_point_task
from repro.bench.matmult import matmult_point_task, smp_point_task
from repro.bench.microbench import comm_sweep, metric_value
from repro.bench.report import format_config_table, format_series, format_table
from repro.core.machine import PowerMannaSystem
from repro.core.specs import (
    PC_CLUSTER_180,
    PC_CLUSTER_266,
    POWERMANNA,
    SUN_ULTRA,
    table1,
)
from repro.obs import DEFAULT_SAMPLE_INTERVAL_NS, observe
from repro.obs.export import (
    write_metrics_csv,
    write_metrics_json,
    write_timeline_json,
    write_trace,
)
from repro.obs.metrics import format_series as format_metric_series
from repro.parallel import (
    PoisonedSweepError,
    ResultCache,
    SuperviseConfig,
    SweepInterrupted,
    run_sweep,
)

NODE_MACHINES = (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180, PC_CLUSTER_266)
DEFAULT_COMM_SIZES = (8, 64, 512, 4096, 16384)
DEFAULT_MATMULT_SIZES = (8, 24, 48, 96)


def _emit(text: str) -> None:
    print(text)
    print()


def _supervise_config(args) -> SuperviseConfig:
    """The shared --retries/--point-timeout/--journal/--resume surface."""
    return SuperviseConfig(
        retries=args.retries,
        point_timeout_s=args.point_timeout,
        enable_journal=not args.no_journal,
        journal_path=args.journal,
        journal_dir=(os.path.join(args.cache_dir, "journals")
                     if args.cache_dir else None),
        resume_from=args.resume)


def _sweep_options(args) -> dict:
    """The shared --jobs/--no-cache/--cache-dir and supervision surface
    as run_sweep keywords."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return {"jobs": args.jobs or 1, "cache": cache,
            "supervise": _supervise_config(args)}


def _report_cache(cache: Optional[ResultCache]) -> None:
    """Cache accounting goes to stderr so stdout stays byte-comparable
    between cold and warm runs."""
    if cache is not None and (cache.hits or cache.misses):
        print(cache.stats_line(), file=sys.stderr)


def _report_supervision(supervise: SuperviseConfig) -> None:
    """Supervision accounting also goes to stderr, and only when the
    supervisor actually had to do something — a clean run's streams are
    byte-identical with or without supervision."""
    if supervise.stats is not None and supervise.stats.any_events():
        print(supervise.stats.summary_line(), file=sys.stderr)


def _write_session_artifacts(session, trace_path: Optional[str],
                             metrics_path: Optional[str],
                             timeline_path: Optional[str] = None,
                             partial: bool = False,
                             metrics_csv: bool = False) -> None:
    """The one write-and-print block every traced/metered command shares.

    ``partial`` marks artifacts flushed after an interrupt (the metrics
    JSON array and CSV schemas cannot carry a marker, but they are still
    flushed atomically); ``metrics_csv`` writes the metrics as CSV."""
    suffix = " (partial)" if partial else ""
    if trace_path:
        tracer = session.tracer
        write_trace(trace_path, tracer, partial=partial)
        # Drop accounting is always on the summary line: a truncated
        # trace that looks complete is the worst failure of a span budget.
        print(f"wrote {trace_path}: {len(tracer.finished_spans())} spans "
              f"over {len(tracer.message_ids())} messages, "
              f"{tracer.dropped} dropped (span limit {tracer.limit})"
              f"{suffix}")
        if tracer.dropped:
            print(f"warning: {tracer.dropped} spans were dropped; raise "
                  f"--span-limit (repro trace or report) to capture the "
                  f"full run", file=sys.stderr)
    if metrics_path:
        if metrics_csv:
            write_metrics_csv(metrics_path, session.metrics)
        else:
            write_metrics_json(metrics_path, session.metrics)
        print(f"wrote {metrics_path}: {len(session.metrics)} series"
              f"{suffix}")
    if timeline_path:
        write_timeline_json(timeline_path, session.timeline,
                            partial=partial)
        print(f"wrote {timeline_path}: {len(session.timeline)} series"
              f"{suffix}")


def _sampling_interval(args) -> Optional[float]:
    """The --sample-interval value; timeline/health flags imply sampling
    at the default interval when no explicit interval was given."""
    if args.sample_interval is not None:
        return float(args.sample_interval)
    if args.timeline_out or args.health:
        return DEFAULT_SAMPLE_INTERVAL_NS
    return None


def _check_health(args, session):
    """Evaluate and print the --health gates against the session; the
    verdict, or None without --health."""
    if not args.health:
        return None
    from repro.obs.health import HealthSpec, format_health

    report = HealthSpec.load(args.health).evaluate(
        timeline=session.timeline, metrics=session.metrics)
    _emit(format_health(report))
    return report


def _interruptible(session_scope, run, **artifacts):
    """``(session, run())``, ``run`` called under ``session_scope``.  An
    interrupt flushes what was observed so far to ``artifacts`` (the
    paths of :func:`_write_session_artifacts`), marked partial, and
    propagates, so ``main`` stays the one place that reports it (with
    any --resume hint) and exits 130."""
    session = None
    try:
        with session_scope as session:
            result = run()
    except KeyboardInterrupt:
        if session is not None:
            print("interrupted: flushing partial artifacts",
                  file=sys.stderr)
            _write_session_artifacts(session, partial=True, **artifacts)
        raise
    return session, result


def _in_session(args, run, show, view=None, metrics_csv: bool = False,
                **session_options) -> int:
    """``show(run())`` under the one observation session path.

    The session records what the observation flags of ``args`` ask for
    (``session_options`` go to :func:`~repro.obs.observe`).  After
    ``show``, the artifacts are written, the --health verdict printed,
    and ``view(session, health)`` renders a wrapper's own output; the
    return code is 1 on a violated health gate.  An interrupt flushes
    partial artifacts (:func:`_interruptible`).
    """
    artifacts = {"trace_path": args.trace, "metrics_path": args.metrics_out,
                 "timeline_path": args.timeline_out,
                 "metrics_csv": metrics_csv}
    session, result = _interruptible(
        observe(sample_interval_ns=_sampling_interval(args),
                **session_options), run, **artifacts)
    show(result)
    _write_session_artifacts(session, **artifacts)
    health = _check_health(args, session)
    if view is not None:
        view(session, health)
    return 0 if health is None or health.ok else 1


def _observed(args, run, show) -> int:
    """``show(run())``, under an observation session only when --trace,
    --metrics-out or sampling asks for one (:func:`_in_session`)."""
    if not (args.trace or args.metrics_out or _sampling_interval(args)):
        show(run())
        return 0
    return _in_session(args, run, show)


def cmd_list(_args) -> None:
    rows = [
        ["table1", "configuration of the test systems"],
        ["fig6", "HINT QUIPS curves (double + int)"],
        ["fig7", "MatMult MFLOPS by size (naive + transposed)"],
        ["fig8", "dual-processor MatMult speedup"],
        ["fig9", "one-way latency vs BIP/FM"],
        ["fig10", "send gap at saturation"],
        ["fig11", "unidirectional bandwidth"],
        ["fig12", "bidirectional bandwidth"],
        ["chaos", "fault-injection experiment from a plan file"],
        ["traffic", "offered-load patterns on any topology"],
        ["logp", "LogP parameters of the 8-node cluster"],
        ["trace", "run an experiment under span tracing (Perfetto JSON)"],
        ["metrics", "run an experiment under labeled metrics"],
        ["report", "run fully observed; render an HTML dashboard"],
    ]
    _emit(format_table(["command", "regenerates"], rows,
                       title="Available experiments"))


def cmd_table1(_args) -> None:
    _emit(format_config_table(table1()))


def _node_figure(args, body) -> Optional[int]:
    """Run a trace-driven node figure, optionally under a sampling session.

    ``body`` prints its own tables.  The node kernels never build a
    Simulator, so their timelines stay empty — the flags exist so every
    figure shares one observability surface (and so a HealthSpec with
    metric rules still gates them).
    """
    return _observed(args, body, lambda _: None)


def cmd_fig6(args) -> Optional[int]:
    def body() -> None:
        sweep = _sweep_options(args)
        # One point per machine: its data types replay side by side and
        # share each checkpoint's oracle passes.
        points = [(spec.key,
                   {"spec": spec,
                    "scale": args.scale,
                    "max_subintervals": args.subintervals})
                  for spec in NODE_MACHINES]
        outcomes = run_sweep("fig6", points, hint_point_task,
                             modules=NODE_SWEEP_MODULES, **sweep)
        results = {(result.data_type, outcome.key): result
                   for outcome in outcomes for result in outcome.value}
        for data_type in ("double", "int"):
            marks = [p.subintervals
                     for p in results[(data_type, "powermanna")].points]
            series = {spec.key: [results[(data_type, spec.key)]
                                 .quips_at_subintervals(m) for m in marks]
                      for spec in NODE_MACHINES}
            _emit(format_series(
                series, marks, "subintervals",
                title=f"Figure 6 ({data_type.upper()}): QUIPS"))
        _report_cache(sweep["cache"])
        _report_supervision(sweep["supervise"])

    return _node_figure(args, body)


def cmd_fig7(args) -> Optional[int]:
    def body() -> None:
        sizes = args.sizes or list(DEFAULT_MATMULT_SIZES)
        sweep = _sweep_options(args)
        machines = (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180)
        points = [((version, spec.key, n),
                   {"spec": spec, "n": n, "version": version,
                    "scale": args.scale})
                  for version in ("naive", "transposed")
                  for spec in machines
                  for n in sizes]
        outcomes = run_sweep("fig7", points, matmult_point_task,
                             modules=NODE_SWEEP_MODULES, **sweep)
        results = {outcome.key: outcome.value for outcome in outcomes}
        for version in ("naive", "transposed"):
            series = {spec.key: [results[(version, spec.key, n)].mflops
                                 for n in sizes]
                      for spec in machines}
            _emit(format_series(series, sizes, "N",
                                title=f"Figure 7 ({version}): MFLOPS"))
        _report_cache(sweep["cache"])
        _report_supervision(sweep["supervise"])

    return _node_figure(args, body)


def cmd_fig8(args) -> Optional[int]:
    def body() -> None:
        sizes = args.sizes or [40, 96]
        sweep = _sweep_options(args)
        machines = (POWERMANNA, SUN_ULTRA, PC_CLUSTER_180)
        points = [((spec.key, version, n),
                   {"spec": spec, "n": n, "version": version,
                    "scale": args.scale})
                  for spec in machines
                  for version in ("naive", "transposed")
                  for n in sizes]
        outcomes = run_sweep("fig8", points, smp_point_task,
                             modules=NODE_SWEEP_MODULES, **sweep)
        rows = [[key[0], key[1], key[2], round(outcome.value, 3)]
                for key, outcome in ((o.key, o) for o in outcomes)]
        _emit(format_table(["machine", "version", "N", "speedup"], rows,
                           title="Figure 8: dual-processor speedup"))
        _report_cache(sweep["cache"])
        _report_supervision(sweep["supervise"])

    return _node_figure(args, body)


def _fault_plan_from_args(args, error_rate: Optional[float] = None):
    """A FaultPlan from --fault-plan/--fault-seed and a uniform link
    ``error_rate`` (fig9-fig12's --error-rate), or None."""
    plan_path = args.fault_plan
    if plan_path is None and not error_rate:
        return None
    from repro.faults import FaultPlan, uniform_error_plan

    if plan_path is not None:
        plan = FaultPlan.load(plan_path)
        if error_rate:
            plan = FaultPlan(
                seed=plan.seed,
                faults=list(plan.faults)
                + list(uniform_error_plan(error_rate).faults))
    else:
        plan = uniform_error_plan(error_rate)
    if args.fault_seed is not None:
        plan = plan.with_seed(args.fault_seed)
    return plan


def _comm_figure(metric: str, title: str, args) -> Optional[int]:
    from repro.network.topo import parse_topology

    sizes = tuple(args.sizes) if args.sizes else DEFAULT_COMM_SIZES
    plan = _fault_plan_from_args(args, args.error_rate)
    topology = parse_topology(args.topology)
    options = _sweep_options(args)

    def run():
        return comm_sweep(metric, sizes=sizes, fault_plan=plan,
                          topology=topology, **options)

    def show(sweep) -> None:
        # The title stays topology-free so every figure table keeps the
        # form of the paper's figures (and of the recorded goldens).
        series = {system: [metric_value(p, metric) for p in points]
                  for system, points in sweep.items()}
        _emit(format_series(series, list(sizes), "bytes", title=title))

    rc = _observed(args, run, show)
    _report_cache(options["cache"])
    _report_supervision(options["supervise"])
    return rc


def cmd_fig9(args) -> Optional[int]:
    return _comm_figure("latency", "Figure 9: one-way latency (us)", args)


def cmd_fig10(args) -> Optional[int]:
    return _comm_figure("gap", "Figure 10: send gap at saturation (us)",
                        args)


def cmd_fig11(args) -> Optional[int]:
    return _comm_figure("unidir",
                        "Figure 11: unidirectional bandwidth (MB/s)", args)


def cmd_fig12(args) -> Optional[int]:
    return _comm_figure("bidir",
                        "Figure 12: bidirectional bandwidth (MB/s)", args)


def cmd_chaos(args) -> Optional[int]:
    from repro.faults import FaultPlan, uniform_error_plan
    from repro.faults.chaos import format_report, run_chaos

    if args.plan:
        plan = FaultPlan.load(args.plan)
    elif args.link_error_rate:
        plan = uniform_error_plan(args.link_error_rate)
    else:
        plan = FaultPlan()
    if args.seed is not None:
        plan = plan.with_seed(args.seed)

    if args.seeds:
        return _chaos_campaign(plan, args)

    def run():
        return run_chaos(plan,
                         topology=args.topology,
                         protocol=args.protocol,
                         flows=args.flows,
                         messages=args.messages,
                         nbytes=args.nbytes,
                         window=args.window,
                         error_rate=args.error_rate,
                         ack_error_rate=args.ack_error_rate)

    def show(report) -> None:
        _emit(format_report(report))
        _write_report_out(args, report)

    return _observed(args, run, show)


def _write_report_out(args, report) -> None:
    """The --report-out JSON of a chaos run or campaign."""
    if args.report_out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(args.report_out, report.to_json() + "\n")
        print(f"wrote {args.report_out}")


def _chaos_campaign(plan, args) -> Optional[int]:
    """``chaos --seeds N``: a multi-seed campaign over the sweep scheduler."""
    from repro.parallel.campaign import format_campaign, run_campaign

    options = _sweep_options(args)

    def run():
        return run_campaign(plan, args.seeds,
                            topology=args.topology,
                            protocol=args.protocol,
                            flows=args.flows,
                            messages=args.messages,
                            nbytes=args.nbytes,
                            window=args.window,
                            error_rate=args.error_rate,
                            ack_error_rate=args.ack_error_rate,
                            **options)

    def show(report) -> None:
        _emit(format_campaign(report))
        _write_report_out(args, report)

    rc = _observed(args, run, show)
    _report_cache(options["cache"])
    _report_supervision(options["supervise"])
    return rc


def _traffic_qos(args):
    """QosConfig from --arbiter/--classes, or None — the legacy path.

    None keeps the crossbars on the original ``Resource`` arbiters, so
    the default invocation stays byte-identical to the pre-QoS CLI.
    """
    from repro.bench.traffic import parse_classes
    from repro.network.qos import QosConfig

    if not args.classes and args.arbiter == "fifo":
        return None
    if args.classes:
        return QosConfig(arbiter=args.arbiter,
                         classes=parse_classes(args.classes))
    return QosConfig(arbiter=args.arbiter)


def _traffic_load(args, spec) -> Optional[int]:
    """The offered-load surface: --load sweeps under run_sweep."""
    from repro.bench.traffic import load_sweep, parse_loads, parse_mix
    from repro.network.qos import AdaptiveConfig

    qos = _traffic_qos(args)
    mix = parse_mix(args.pattern_mix) if args.pattern_mix else None
    loads = parse_loads(args.load)
    adaptive = (AdaptiveConfig(depth_threshold=args.adaptive_depth)
                if args.adaptive else None)
    plan = _fault_plan_from_args(args)
    options = _sweep_options(args)
    results = load_sweep(
        spec, loads, qos=qos, mix=mix, messages=args.messages,
        message_bytes=args.nbytes, seed=args.seed,
        closed_loop=args.closed_loop, window=args.window,
        adaptive=adaptive, fault_plan=plan,
        jobs=options["jobs"], cache=options["cache"],
        supervise=options["supervise"])
    rows = []
    for result in results:
        for cls in result["classes"]:
            rows.append([f"{result['load']:.2f}", cls["name"],
                         f"{cls['offered_mb_s']:.1f}",
                         f"{cls['goodput_mb_s']:.1f}",
                         f"{cls['latency_p50_ns'] / 1e3:.1f}",
                         f"{cls['latency_p99_ns'] / 1e3:.1f}",
                         result["collisions"], result["reroutes"]])
    arbiter = results[0]["arbiter"] if results else "fifo"
    _emit(format_table(
        ["load", "class", "offered MB/s", "goodput MB/s", "p50 (us)",
         "p99 (us)", "collisions", "reroutes"], rows,
        title=f"Offered load vs goodput/latency on {spec.label()} "
              f"({arbiter} arbiter)"))
    if args.json_out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(args.json_out,
                          json.dumps(results, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    _report_cache(options["cache"])
    _report_supervision(options["supervise"])
    return 0


def _unroutable_pair(spec) -> Optional[str]:
    """Why ``spec`` cannot carry traffic between every pair of its nodes
    on plane 0 (the plane a traffic world sends on), or None when it can.

    One search from the first node suffices: every generated fabric
    attaches a node to one crossbar per plane over a duplex link, so when
    the first node reaches every other node, any two meet at its crossbar.
    """
    from repro.network.routing import NoRouteError, RouteTable
    from repro.network.topo import build_graph
    from repro.network.topology import node_key

    graph = build_graph(spec)
    nodes = sorted({key[1] for key in graph.nodes if key[0] == "node"})
    routes = RouteTable(graph)
    for dst in nodes[1:]:
        try:
            routes.path(node_key(nodes[0], 0), node_key(dst, 0))
        except NoRouteError:
            return (f"traffic: {spec.label()} has no crossbar path from node "
                    f"{nodes[0]} to node {dst} on plane 0; that pair needs "
                    f"a software relay, which traffic patterns do not model")
    return None


def cmd_traffic(args) -> Optional[int]:
    """Offered-load patterns (permutation/random/hotspot) on any spec."""
    from repro.bench.traffic import run_pattern
    from repro.msg.api import build_topology_world
    from repro.network.crossbar import CrossbarConfig
    from repro.network.topo import parse_topology

    spec = parse_topology(args.topology)
    if spec.fidelity != "flit":
        print("traffic needs flit fidelity: offered-load contention is "
              "exactly what the flow tier abstracts away", file=sys.stderr)
        return 2
    unroutable = _unroutable_pair(spec)
    if unroutable:
        print(unroutable, file=sys.stderr)
        return 2
    if args.load:
        return _traffic_load(args, spec)
    qos = _traffic_qos(args)
    crossbar_config = (CrossbarConfig(qos=qos) if qos is not None
                       else CrossbarConfig())
    patterns = args.patterns or ["permutation", "random", "hotspot"]
    rows = []
    for pattern in patterns:
        # A fresh world per pattern: no warm FIFOs or collision counters
        # leak between patterns.
        _, world = build_topology_world(spec,
                                        crossbar_config=crossbar_config)
        result = run_pattern(world, pattern, message_bytes=args.nbytes,
                             rounds=args.rounds, seed=args.seed)
        rows.append([pattern, result.nodes, result.messages,
                     f"{result.elapsed_ns / 1e3:.1f}",
                     f"{result.aggregate_mb_s:.1f}",
                     f"{result.per_node_mb_s:.2f}",
                     result.collisions])
    _emit(format_table(
        ["pattern", "nodes", "messages", "elapsed (us)", "aggregate MB/s",
         "per-node MB/s", "collisions"], rows,
        title=f"Traffic patterns on {spec.label()}"))
    return 0


def cmd_logp(args) -> None:
    system = PowerMannaSystem.cluster()
    params = system.logp(0, 1, args.nbytes)
    _emit(format_table(
        ["parameter", "value"],
        [["message size", f"{params.nbytes} B"],
         ["one-way latency", f"{params.latency_ns / 1e3:.2f} us"],
         ["send overhead o_s", f"{params.overhead_send_ns / 1e3:.2f} us"],
         ["gap g", f"{params.gap_ns / 1e3:.2f} us"],
         ["implied bandwidth", f"{params.bandwidth_mb_s:.1f} MB/s"]],
        title="LogP parameters, 8-node PowerMANNA"))


# Experiments that drive the discrete-event network (and so produce spans);
# the purely trace-driven node experiments only produce metrics.
TRACEABLE = ("fig9", "fig10", "fig11", "fig12", "logp")
OBSERVABLE = ("fig6", "fig7", "fig8") + TRACEABLE


# The observation flags an experiment may take.  A wrapper moves them
# into its own session: the experiment must not open a nested one (that
# would swap the backends the wrapper's session is collecting into).
_OBSERVATION_FLAGS = ("trace", "metrics_out", "timeline_out", "health",
                      "sample_interval")


def _wrapped(args, view, **session_options) -> int:
    """Run the wrapped experiment, parsed by its own subparser into
    ``args.experiment_args``, under the wrapper's one session
    (:func:`_in_session`); ``view(session, health)`` renders the
    wrapper's output."""
    experiment = args.experiment_args
    for name in _OBSERVATION_FLAGS:
        value = getattr(experiment, name)
        if value is None:
            continue
        if getattr(args, name) is not None:
            print(f"repro {args.command}: give the "
                  f"--{name.replace('_', '-')} artifact through "
                  f"{args.command}'s own options", file=sys.stderr)
            return 2
        setattr(args, name, value)
        setattr(experiment, name, None)
    return _in_session(args, lambda: _COMMANDS[args.experiment](experiment),
                       lambda _: None, view, **session_options)


def cmd_trace(args) -> int:
    def critical_path(session, _health) -> None:
        tracer = session.tracer
        totals: dict = {}
        for mid in tracer.message_ids():
            for stage, dur in tracer.breakdown(mid):
                totals[stage] = totals.get(stage, 0.0) + dur
        grand = sum(totals.values()) or 1.0
        rows = [[stage, f"{ns / 1e3:.2f}", f"{100.0 * ns / grand:.1f}%"]
                for stage, ns in sorted(totals.items(),
                                        key=lambda kv: -kv[1])]
        _emit(format_table(
            ["stage", "total (us)", "share"], rows,
            title=f"Critical path across {len(tracer.message_ids())} "
                  f"messages"))

    return _wrapped(args, critical_path, span_limit=args.span_limit)


def cmd_metrics(args) -> int:
    def table(session, _health) -> None:
        rows = []
        for inst in sorted(session.metrics.instruments(),
                           key=lambda i: (i.name, -i.value)):
            series = format_metric_series(inst.name, inst.labels)
            if inst.kind == "histogram":
                s = inst.summary()
                value = (f"n={s['count']} mean={s['mean']:.1f} "
                         f"p50={s['p50']:.1f} p99={s['p99']:.1f} "
                         f"p999={s['p999']:.1f}")
            else:
                value = f"{inst.value:g}"
            rows.append([series, inst.kind, value])
        shown = rows if args.top <= 0 else rows[:args.top]
        _emit(format_table(["series", "kind", "value"], shown,
                           title=f"Metrics for {args.experiment} "
                                 f"({len(rows)} series)"))
        if len(shown) < len(rows):
            print(f"... {len(rows) - len(shown)} more series "
                  f"(raise --top or use --out)")

    return _wrapped(args, table, metrics_csv=args.csv)


def cmd_report(args) -> int:
    """Run an experiment under full observation; render the dashboard."""
    def dashboard(session, health) -> None:
        from repro.obs.report import report_data, write_report

        data = report_data(f"repro {args.experiment}",
                           timeline=session.timeline,
                           metrics=session.metrics,
                           tracer=session.tracer,
                           health=health)
        write_report(args.out, data)
        print(f"wrote {args.out}: {len(data['series'])} sampled series, "
              f"{len(data.get('critical_path', []))} critical-path stages")

    return _wrapped(args, dashboard, span_limit=args.span_limit)


def _add_sampling_options(parser: argparse.ArgumentParser) -> None:
    """The shared timeline-sampling/health-gate surface."""
    parser.add_argument("--sample-interval", type=float, default=None,
                        metavar="NS",
                        help="sample component gauges every NS simulated "
                             "nanoseconds into time-series timelines")
    parser.add_argument("--timeline-out", metavar="FILE", default=None,
                        help="write the sampled timelines as JSON "
                             "(implies --sample-interval "
                             f"{DEFAULT_SAMPLE_INTERVAL_NS:g})")
    parser.add_argument("--health", metavar="FILE", default=None,
                        help="evaluate a HealthSpec JSON against the run; "
                             "exit 1 on any violated gate (implies "
                             "sampling)")


def _add_observation_options(parser: argparse.ArgumentParser) -> None:
    """The shared span-trace/metrics-dump surface."""
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record span tracing; write a Chrome "
                             "trace-event JSON (load in Perfetto / "
                             "chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write labeled metrics of the run as JSON")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """The shared fault-plan surface of the measurement commands."""
    parser.add_argument("--fault-plan", metavar="FILE", default=None,
                        help="run under this fault plan (JSON; see the "
                             "chaos subcommand)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="override the fault plan's seed")


def _add_supervise_options(parser: argparse.ArgumentParser) -> None:
    """The shared supervision/journaling surface of every sweep run."""
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry a crashed/hung/failed point up to N "
                             "times with exponential backoff before "
                             "quarantining it (default 2)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="S",
                        help="presume a point hung after S wall seconds; "
                             "its worker is restarted and the point "
                             "retried")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="write the run journal here (default: an "
                             "auto-pruned file under the cache dir's "
                             "journals/, or $REPRO_JOURNAL_DIR)")
    parser.add_argument("--no-journal", action="store_true",
                        help="disable run journaling")
    parser.add_argument("--resume", metavar="JOURNAL", default=None,
                        help="resume from a run journal: completed points "
                             "replay their stored results; final "
                             "artifacts are byte-identical to an "
                             "uninterrupted run")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """The shared --jobs/--no-cache/--cache-dir surface of every sweep."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the point sweep; output "
                             "is byte-identical at any jobs level")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    _add_supervise_options(parser)


def _add_topology_option(parser: argparse.ArgumentParser,
                         help: str) -> None:
    """The --topology argument, read by :func:`_topology_spec`."""
    parser.add_argument("--topology", metavar="NAME_OR_JSON",
                        default="cluster", help=help)


_WRAPPER_EPILOG = ("Every other option is the wrapped experiment's own, "
                   "with its defaults and checks: see "
                   "'repro EXPERIMENT --help'.")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate PowerMANNA (HPCA 2000) tables and figures.")
    # Every namespace carries every observation flag, None where the
    # command takes none.
    parser.set_defaults(**dict.fromkeys(_OBSERVATION_FLAGS))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="Table 1: system configurations")

    fig6 = sub.add_parser("fig6", help="HINT QUIPS curves")
    fig6.add_argument("--scale", type=int, default=16)
    fig6.add_argument("--subintervals", type=int, default=4096)
    _add_sampling_options(fig6)
    _add_sweep_options(fig6)

    for name, helptext in (("fig7", "MatMult MFLOPS"),
                           ("fig8", "SMP speedup")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--scale", type=int, default=16)
        p.add_argument("--sizes", type=int, nargs="*", default=None)
        _add_sampling_options(p)
        _add_sweep_options(p)

    for name, helptext in (("fig9", "one-way latency"),
                           ("fig10", "send gap"),
                           ("fig11", "unidirectional bandwidth"),
                           ("fig12", "bidirectional bandwidth")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--sizes", type=int, nargs="*", default=None)
        _add_observation_options(p)
        p.add_argument("--error-rate", type=float, default=None,
                       help="inject uniform link corruption at this "
                            "probability while measuring")
        _add_fault_options(p)
        _add_topology_option(
            p, "topology to measure on: a generator expression "
               "(hypercube:dimensions=8,fidelity=flow), inline spec JSON, "
               "or a spec file; the measured pair is the topology's far "
               "pair (default: the 8-node cluster)")
        _add_sampling_options(p)
        _add_sweep_options(p)

    traffic = sub.add_parser(
        "traffic", help="offered-load patterns on any topology")
    _add_topology_option(traffic, "topology spec to drive (flit fidelity; "
                                  "default: the 8-node cluster)")
    traffic.add_argument("--patterns", nargs="*", default=None,
                         choices=("permutation", "random", "hotspot"),
                         help="patterns to run (default: all three)")
    traffic.add_argument("--nbytes", type=int, default=1024)
    traffic.add_argument("--rounds", type=int, default=4,
                         help="messages each node sends per pattern")
    traffic.add_argument("--seed", type=int, default=7,
                         help="seed for the random pattern's destinations")
    traffic.add_argument("--arbiter", default="fifo",
                         choices=("fifo", "priority", "wdrr"),
                         help="output-port arbitration policy (fifo with "
                              "no --classes keeps the legacy arbiters and "
                              "byte-identical output)")
    traffic.add_argument("--classes", metavar="SPEC", default=None,
                         help="service classes, e.g. 'urgent:prio=0:"
                              "weight=4,bulk:prio=1:rate=30:burst=4096'")
    traffic.add_argument("--pattern-mix", metavar="SPEC", default=None,
                         help="per-class load shape, e.g. 'urgent=incast:"
                              "0.2:odd,bulk=hotspot:0.8:even' "
                              "(pattern[:fraction[:senders[:burst_len]]])")
    traffic.add_argument("--load", metavar="SWEEP", default=None,
                         help="offered-load sweep as a fraction of line "
                              "rate: '0.2,0.5,0.8' or start:stop:step; "
                              "switches from fixed patterns to the "
                              "load/goodput/latency surface")
    traffic.add_argument("--messages", type=int, default=32,
                         help="messages per sender per load point")
    traffic.add_argument("--closed-loop", action="store_true",
                         help="self-clocked senders (at most --window "
                              "undelivered messages each) instead of "
                              "open-loop planned injection times")
    traffic.add_argument("--window", type=int, default=4,
                         help="closed-loop in-flight window per sender")
    traffic.add_argument("--adaptive", action="store_true",
                         help="congestion-aware adaptive routing: detour "
                              "around output ports whose arbiter queue "
                              "reaches --adaptive-depth")
    traffic.add_argument("--adaptive-depth", type=int, default=4,
                         help="queue depth at which an output port "
                              "counts as congested")
    _add_fault_options(traffic)
    traffic.add_argument("--json-out", metavar="FILE", default=None,
                         help="write the load-sweep results as JSON")
    _add_sweep_options(traffic)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection experiment from a plan file")
    chaos.add_argument("--plan", metavar="FILE", default=None,
                       help="fault plan JSON (seed + fault specs)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="override the plan's seed")
    _add_topology_option(chaos, "manna, grid (scaled-down Figure-5b "
                                "systems) or any topology spec expression/"
                                "JSON/file at flit fidelity")
    chaos.add_argument("--protocol", choices=("sliding", "stopwait"),
                       default="sliding")
    chaos.add_argument("--flows", type=int, default=4)
    chaos.add_argument("--messages", type=int, default=8,
                       help="messages per flow")
    chaos.add_argument("--nbytes", type=int, default=1024)
    chaos.add_argument("--window", type=int, default=8,
                       help="sliding-window size")
    chaos.add_argument("--error-rate", type=float, default=0.0,
                       help="protocol-level corruption probability")
    chaos.add_argument("--ack-error-rate", type=float, default=None,
                       help="decouple the reverse path: probability an "
                            "acknowledgement is corrupted (default: "
                            "mirrors --error-rate)")
    chaos.add_argument("--link-error-rate", type=float, default=0.0,
                       help="shorthand: uniform link_corrupt plan at this "
                            "probability (ignored when --plan is given)")
    _add_observation_options(chaos)
    chaos.add_argument("--report-out", metavar="FILE", default=None,
                       help="write the chaos report (or campaign report "
                            "with --seeds) as JSON")
    chaos.add_argument("--seeds", type=int, default=0, metavar="N",
                       help="campaign mode: run the experiment under N "
                            "derived seeds and aggregate goodput/reroute "
                            "statistics (mean/p50/p99)")
    _add_sampling_options(chaos)
    _add_sweep_options(chaos)

    logp = sub.add_parser("logp", help="LogP parameters")
    logp.add_argument("--nbytes", type=int, default=8)

    trace = sub.add_parser(
        "trace", help="run an experiment with span tracing enabled",
        epilog=_WRAPPER_EPILOG)
    trace.add_argument("experiment", choices=TRACEABLE)
    trace.add_argument("--out", dest="trace", default="trace.json",
                       help="trace-event JSON output path")
    trace.add_argument("--span-limit", type=int, default=1_000_000)

    metrics = sub.add_parser(
        "metrics", help="run an experiment with labeled metrics enabled",
        epilog=_WRAPPER_EPILOG)
    metrics.add_argument("experiment", choices=OBSERVABLE)
    metrics.add_argument("--out", dest="metrics_out", default=None,
                         help="write the full metrics dump here")
    metrics.add_argument("--csv", action="store_true",
                         help="write --out as CSV instead of JSON")
    metrics.add_argument("--top", type=int, default=40,
                         help="series rows to print (<= 0 for all)")

    report = sub.add_parser(
        "report", help="run an experiment fully observed and render a "
                       "self-contained HTML dashboard",
        epilog=_WRAPPER_EPILOG)
    report.add_argument("experiment", choices=OBSERVABLE + ("chaos",))
    report.add_argument("--out", default="report.html",
                        help="dashboard output path (one file, no "
                             "external dependencies)")
    report.add_argument("--span-limit", type=int, default=1_000_000)
    _add_sampling_options(report)
    _add_observation_options(report)
    # The dashboard always samples.
    report.set_defaults(sample_interval=DEFAULT_SAMPLE_INTERVAL_NS)
    return parser


_COMMANDS = {
    "list": cmd_list,
    "table1": cmd_table1,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "fig12": cmd_fig12,
    "chaos": cmd_chaos,
    "traffic": cmd_traffic,
    "logp": cmd_logp,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "report": cmd_report,
}


_WRAPPERS = ("trace", "metrics", "report")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if args.command in _WRAPPERS:
        # The wrapper's leftover arguments meet exactly the options,
        # defaults and checks of ``repro <experiment>``.
        args.experiment_args = parser.parse_args([args.experiment, *extras])
    elif extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        rc = _COMMANDS[args.command](args)
    except PoisonedSweepError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        if exc.journal_path:
            print(f"journal: {exc.journal_path} (fix the cause, then "
                  f"--resume to retry only the quarantined points)",
                  file=sys.stderr)
        return 3
    except SweepInterrupted as exc:
        if exc.journal_path:
            print("interrupted: journal flushed, workers shut down",
                  file=sys.stderr)
            print(f"resume with: --resume {exc.journal_path}",
                  file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return rc or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
