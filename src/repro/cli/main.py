"""Argument parsing and command dispatch for the ``repro`` CLI."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Crossroads intersection-management reproduction (DAC 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one workload under one policy (optionally traced "
             "and metered)",
    )
    run.add_argument("--policy", default="crossroads",
                     help="a registered policy name or alias "
                          "(list them with 'repro policies')")
    group = run.add_mutually_exclusive_group()
    group.add_argument("--scenario", type=int, metavar="N",
                       help="scale-model scenario number 1..10")
    group.add_argument("--flow", type=float, metavar="RATE",
                       help="Poisson flow, cars/lane/second (traffic seeded "
                            "like run_flow and sweep: seed + int(flow*1000))")
    run.add_argument("--cars", type=int, default=20,
                     help="vehicles for --flow")
    run.add_argument("--seed", type=int, default=2017)
    run.add_argument("--faults", metavar="SPEC", default=None,
                     help="fault-injection spec, e.g. 'burst,spike', "
                          "'chaos', 'spike=0.1:0.05:0.4,blackout=40:45' "
                          "(see repro.faults.FaultConfig.from_spec); "
                          "runs are replayable: same --seed + same spec "
                          "=> identical fault trace and metrics")
    run.add_argument("--perf", action="store_true",
                     help="print the run's perf counters and wall time")
    _add_trace_argument(run)
    run.add_argument("--kernel", action="store_true",
                     help="with --trace, also record per-DES-event "
                          "des.step records (high volume)")
    _add_metrics_argument(run)
    run.add_argument("--bucket", type=float, default=1.0, metavar="SECONDS",
                     help="with --metrics, the time-series bucket width in "
                          "simulated seconds (default: 1.0)")
    _add_plugin_argument(run)

    sweep = sub.add_parser("sweep", help="Fig 7.2: throughput vs flow grid")
    sweep.add_argument("--policies", nargs="+", default=None,
                       help="default: aim vt-im crossroads (micro), "
                            "vt-im crossroads (analytic)")
    sweep.add_argument("--flows", nargs="+", type=float,
                       default=[0.05, 0.1, 0.3, 0.6, 1.0])
    sweep.add_argument("--cars", type=int, default=40)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--engine", choices=("micro", "analytic"),
                       default="micro",
                       help="micro = full protocol simulation; analytic = "
                            "ideal-vehicle fast engine (VT-style IMs only)")
    sweep.add_argument("--jobs", default=None,
                       help="worker processes for the micro engine: an "
                            "integer, 'auto' (one per CPU), or unset to "
                            "honour $REPRO_JOBS (default: serial); results "
                            "are bit-identical to a serial run")
    sweep.add_argument("--perf", action="store_true",
                       help="print the merged perf counters and wall time "
                            "of every sweep cell (micro engine only)")
    _add_plugin_argument(sweep)

    grid = sub.add_parser(
        "grid",
        help="multi-intersection corridor: routed graph of IMs with "
             "per-hop hand-off",
    )
    topo = grid.add_mutually_exclusive_group()
    topo.add_argument("--grid", metavar="FILE", default=None,
                      help="load a GridSpec from a JSON file "
                           "(see repro.grid.GridSpec.to_json)")
    topo.add_argument("--spec", metavar="FILE", default=None,
                      help="synonym for --grid: load a saved GridSpec "
                           "JSON (round-trips with --save-spec)")
    topo.add_argument("--nodes", type=int, default=3, metavar="N",
                      help="build a two-way west-east corridor of N "
                           "intersections (default: 3)")
    grid.add_argument("--policy", default="crossroads",
                      help="IM policy run at every node (for --nodes)")
    grid.add_argument("--policies", nargs="+", default=None, metavar="P",
                      help="per-node policies (one per node, for --nodes); "
                           "mixed policies are allowed")
    grid.add_argument("--link-length", type=float, default=6.0,
                      help="box-exit to transmission-line link distance, m")
    grid.add_argument("--flow", type=float, default=0.10,
                      help="Poisson boundary flow, cars/lane/second")
    grid.add_argument("--cars", type=int, default=20,
                      help="total boundary vehicles")
    grid.add_argument("--seed", type=int, default=2017)
    grid.add_argument("--seeds", nargs="+", type=int, default=None,
                      metavar="S",
                      help="replicate the corridor across these seeds on "
                           "the parallel runner instead of one full run")
    grid.add_argument("--jobs", default=None,
                      help="worker processes for --seeds replication "
                           "(int | 'auto' | unset for $REPRO_JOBS); "
                           "results are bit-identical to a serial run")
    _add_trace_argument(grid)
    grid.add_argument("--save-spec", metavar="FILE", default=None,
                      help="also write the resolved GridSpec as JSON")
    _add_metrics_argument(grid)
    _add_plugin_argument(grid)

    fuzz = sub.add_parser(
        "fuzz",
        help="scenario fuzzer: sample the scenario DSL, shrink failures, "
             "persist minimal reproducers",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="sampler seed; the whole session is replayable "
                           "from it (default: 0)")
    fuzz.add_argument("--examples", type=int, default=25,
                      help="maximum scenarios to draw (default: 25)")
    fuzz.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                      help="wall-clock budget; stop drawing once it elapses")
    fuzz.add_argument("--policies", nargs="+",
                      default=["crossroads", "vt-im", "aim"])
    fuzz.add_argument("--max-cars", type=int, default=8,
                      help="traffic volume ceiling per draw (default: 8)")
    fuzz.add_argument("--benign", action="store_true",
                      help="draw only benign scenarios (clean-run property: "
                           "any violation is a failure)")
    fuzz.add_argument("--out", metavar="DIR", default=None,
                      help="shrink interesting cases and persist minimal "
                           "JSON reproducers into DIR (e.g. scenarios/found)")
    fuzz.add_argument("--replay", metavar="DIR", default=None,
                      help="instead of fuzzing, replay every spec under DIR "
                           "and check its 'expect' contract")
    fuzz.add_argument("-v", "--verbose", action="store_true",
                      help="print every draw's outcome")

    serve = sub.add_parser(
        "serve",
        help="IM-as-a-service: host one IM over TCP speaking the "
             "wire-framed protocol messages, WC-RTD measured online",
    )
    serve.add_argument("--policy", default="crossroads",
                       help="a registered policy name or alias "
                            "(list them with 'repro policies')")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="TCP port; 0 picks an ephemeral port "
                            "(printed on startup; default: 7411)")
    serve.add_argument("--http-port", type=int, default=None, metavar="PORT",
                       help="also serve GET /metrics (Prometheus text) and "
                            "/healthz on this port (0 for ephemeral)")
    serve.add_argument("--time-scale", type=float, default=1.0,
                       help="simulated seconds per wall second (default: 1)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="IM work-queue bound; requests beyond it are "
                            "shed with an AimReject (default: 64)")
    serve.add_argument("--safety-factor", type=float, default=2.0,
                       help="WC-RTD estimator safety multiplier (default: 2)")
    serve.add_argument("--static-wc-rtd", action="store_true",
                       help="keep the configured WC-RTD constant; report "
                            "the online estimate without applying it")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="stop (drain + flush) after this wall time "
                            "(default: run until SIGINT/SIGTERM)")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="flush the final metrics snapshot here on "
                            "shutdown (format by extension, like "
                            "'run --metrics')")
    _add_plugin_argument(serve)

    bench = sub.add_parser("bench", help="load-test harnesses")
    bench_sub = bench.add_subparsers(dest="bench_target", required=True)
    bserve = bench_sub.add_parser(
        "serve",
        help="open-loop rate sweep against a self-hosted serve-mode IM: "
             "sustained TPS, p99 RTD, overload degradation",
    )
    bserve.add_argument("--rate", type=float, nargs="+",
                        default=[40.0, 120.0, 800.0], metavar="TPS",
                        help="wall transactions/sec to sweep "
                             "(default: 40 120 800)")
    bserve.add_argument("--duration", type=float, default=2.0,
                        metavar="SECONDS",
                        help="wall seconds of sending per rate (default: 2)")
    bserve.add_argument("--policy", default="crossroads")
    bserve.add_argument("--time-scale", type=float, default=10.0,
                        help="simulated seconds per wall second "
                             "(default: 10; capacity ~ time_scale / 30 ms)")
    bserve.add_argument("--max-queue", type=int, default=64)
    bserve.add_argument("--out", metavar="FILE", default=None,
                        help="write the BENCH_serve-style JSON payload here")

    scen = sub.add_parser("scenarios", help="Fig 7.1: the 10 scale-model cases")
    scen.add_argument("--repeats", type=int, default=3)
    scen.add_argument("--policies", nargs="+", default=["vt-im", "crossroads"])

    sub.add_parser("buffer", help="Ch 3: safety-buffer estimation experiment")
    sub.add_parser("info", help="library, policies and testbed constants")

    pol = sub.add_parser("policies", help="list registered IM policies")
    _add_plugin_argument(pol)
    return parser


def _bad_traffic(flow_flag: str, flows, cars: int) -> int:
    """2 (argparse's usage-error code) after a one-line message when a
    ``flow_flag`` value or ``--cars`` breaks the traffic generators'
    rules, else 0.  Checked before any run, so a bad value is never
    mistaken for a run's own failure (exit 1 means a collision)."""
    from repro.traffic.generator import check_flow_rate, check_n_cars

    checks = [(flow_flag, check_flow_rate, flow) for flow in flows]
    checks.append(("--cars", check_n_cars, cars))
    for flag, check, value in checks:
        try:
            check(value)
        except ValueError as exc:
            print(f"bad {flag}: {value!r} ({exc})", file=sys.stderr)
            return 2
    return 0


def _bad_policies(flag: str, names, supported=None) -> int:
    """2 (argparse's usage-error code) after a one-line message when a
    name in ``names`` is not a registered policy (or not one of the
    analytic engine's ``supported``), else 0; checked before any run."""
    from repro.core import registry

    known = supported or registry.available_policies() + registry.extension_policies()
    for name in names:
        try:
            ok = registry.normalize_policy(name) in known
        except ValueError:  # not a registered policy at all
            ok = False
        if not ok:
            where = "the analytic engine supports" if supported else "registered:"
            print(f"bad {flag}: {name!r} ({where} {' '.join(known)})", file=sys.stderr)
            return 2
    return 0


def _build_workload(args):
    """Resolve ``run``'s workload args.

    Returns ``(status, arrivals, label, config, fault_config)``;
    ``status`` is 0 on success, 2 (argparse's usage-error code) when
    the arguments were invalid (an error was already printed).
    """
    from repro.faults import FaultConfig
    from repro.sim.flowsweep import flow_arrivals
    from repro.sim.world import WorldConfig
    from repro.traffic import scale_model_scenarios

    config = None
    fault_config = None
    if args.faults is not None:
        try:
            fault_config = FaultConfig.from_spec(args.faults)
        except ValueError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return 2, None, None, None, None
        config = WorldConfig(faults=fault_config)

    if args.flow is not None:
        if _bad_traffic("--flow", [args.flow], args.cars):
            return 2, None, None, None, None
        arrivals = flow_arrivals(args.flow, args.cars, args.seed)
        label = f"flow {args.flow} car/lane/s, {args.cars} cars"
    else:
        number = args.scenario if args.scenario is not None else 1
        if not 1 <= number <= 10:
            print("scenario must be 1..10", file=sys.stderr)
            return 2, None, None, None, None
        scenario = scale_model_scenarios()[number - 1]
        arrivals = scenario.arrivals
        label = f"scenario {scenario.name}"
    return 0, arrivals, label, config, fault_config


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="FILE", action="append", default=[],
        help="record the run on the repro.obs event bus and write it to "
             "FILE (repeatable; format by extension: .jsonl raw event "
             "stream, otherwise a Chrome trace-event file to open at "
             "https://ui.perfetto.dev)")


def _add_metrics_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="attach the streaming-metrics registry and export its "
             "snapshot to FILE (format by extension: .prom/.txt "
             "Prometheus text, .csv per-bucket series, .jsonl)")


def _make_log(args):
    """The event log for ``--trace FILE`` flags (None when unset)."""
    if not args.trace:
        return None
    from repro.obs import EventLog

    return EventLog(kernel=getattr(args, "kernel", False))


def _make_registry(args):
    """The registry for a ``--metrics FILE`` flag (None when unset);
    raises ValueError for a bad ``--bucket``."""
    if args.metrics is None:
        return None
    from repro.obs import MetricsRegistry

    return MetricsRegistry(bucket_dt=getattr(args, "bucket", 1.0))


def _export_metrics(snapshot, path: str) -> None:
    """Write ``snapshot`` to ``path``, format chosen by extension
    (Prometheus text when unrecognised)."""
    from repro.obs import metrics_to_csv, metrics_to_jsonl, to_prometheus

    if path.endswith(".csv"):
        metrics_to_csv(snapshot, path=path)
    elif path.endswith(".jsonl"):
        metrics_to_jsonl(snapshot, path=path)
    else:
        with open(path, "w") as handle:
            handle.write(to_prometheus(snapshot))


def _report_trace(log, paths: List[str], stats) -> None:
    """Write the event log to every ``--trace`` path (``.jsonl`` raw
    events, otherwise a Chrome trace) and print the span statistics."""
    from repro.obs import to_chrome_trace, to_jsonl

    for path in paths:
        if path.endswith(".jsonl"):
            to_jsonl(log.events, path=path)
        else:
            to_chrome_trace(log.events, path=path)
    print(f"\ntrace: {len(log)} events ({log.dropped} evicted) -> "
          f"{', '.join(paths)} (Chrome traces open at https://ui.perfetto.dev)")
    _print_span_stats(stats)


def _add_plugin_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help="import MODULE first so its policy registrations are available "
             "(repeatable), e.g. --plugin examples.custom_policy")


def _load_plugins(modules: List[str]) -> int:
    """Import plugin modules for their registration side effects.

    Returns 0 on success, 2 (the argparse usage-error convention) if any
    module fails to import.
    """
    import importlib

    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            print(f"cannot import plugin {module!r}: {exc}", file=sys.stderr)
            return 2
    return 0


# -- commands -----------------------------------------------------------------

def _cmd_run(args) -> int:
    from repro.analysis import render_table
    from repro.sim import run_scenario

    status = _load_plugins(args.plugin) or _bad_policies("--policy", [args.policy])
    if status:
        return status
    status, arrivals, label, config, fault_config = _build_workload(args)
    if status:
        return status
    try:
        registry = _make_registry(args)
    except ValueError as exc:
        print(f"bad --bucket: {exc}", file=sys.stderr)
        return 2

    log = _make_log(args)
    result = run_scenario(
        args.policy, arrivals, config=config, seed=args.seed, obs=log,
        metrics=registry,
    )
    print(f"{args.policy} on {label}")
    if fault_config is not None:
        print(f"faults: {fault_config.describe()} (seed {args.seed})")
    print()
    rows = [
        [f"V{r.vehicle_id}", r.movement_key, r.spawn_time, r.delay,
         r.requests_sent, r.came_to_stop]
        for r in sorted(result.records, key=lambda r: r.vehicle_id)
    ]
    print(render_table(
        ["vehicle", "movement", "spawn (s)", "wait (s)", "requests", "stopped"],
        rows, precision=2,
    ))
    print(f"\navg wait {result.average_delay:.3f} s | throughput "
          f"{result.throughput:.3f} | messages {result.messages_sent} | "
          f"IM compute {result.compute_time:.2f} s | safe {result.safe}")
    losses = ", ".join(
        f"{reason}={n}" for reason, n in result.losses_by_reason.items()
    ) or "none"
    print(f"losses by reason: {losses} | "
          f"dup dropped {result.duplicates_dropped}")
    if fault_config is not None:
        injected = ", ".join(
            f"{kind}={n}" for kind, n in result.fault_injections.items()
        ) or "none"
        print(
            f"robustness: finished {result.n_finished}/{len(result.records)} | "
            f"stale rejected {result.stale_rejected} | "
            f"deadline misses {result.deadline_misses} | "
            f"retries {result.retries} | "
            f"degraded {result.degraded_time:.2f} s "
            f"({result.degraded_entries} entries) | "
            f"invalidations {result.reservation_invalidations} | "
            f"stale reqs dropped {result.stale_requests_dropped}"
        )
        print(f"injected: {injected}")
    if args.perf and result.perf:
        print("\nperf counters:")
        for name, value in sorted(result.perf.items()):
            print(f"  {name:44s} {value:.6g}")
    if log is not None:
        _report_trace(log, args.trace, result.obs)
    if registry is not None:
        rows = [
            [name, f"{value:.6g}"]
            for name, value in sorted(registry.flat().items())
        ]
        print()
        print(render_table(["series", "value"], rows))
        _export_metrics(result.metrics, args.metrics)
        print(f"metrics: {len(registry)} series over "
              f"{result.sim_duration:.1f} simulated seconds (bucket "
              f"{registry.bucket_dt:g} s) -> {args.metrics}")
    return 0 if result.safe else 1


def _print_span_stats(stats) -> None:
    if not stats:
        return
    print(
        "spans: {total:.0f} total, {complete:.0f} complete, "
        "{retried:.0f} retried | RTD p50 {p50:.1f} ms, p95 {p95:.1f} ms, "
        "max {mx:.1f} ms | IM compute p95 {cp95:.1f} ms".format(
            total=stats["spans_total"],
            complete=stats["spans_complete"],
            retried=stats["spans_retried"],
            p50=stats["rtd_p50_s"] * 1000,
            p95=stats["rtd_p95_s"] * 1000,
            mx=stats["rtd_max_s"] * 1000,
            cp95=stats["compute_p95_s"] * 1000,
        )
    )


def _cmd_sweep(args) -> int:
    from repro.analysis import flow_sweep_rows, render_table, speedup_summary

    status = _load_plugins(args.plugin) or _bad_traffic(
        "--flows", args.flows, args.cars
    )
    if status:
        return status
    if args.engine == "analytic":
        from repro.geometry import ConflictTable, IntersectionGeometry
        from repro.sim import run_analytic
        from repro.sim.analytic import ANALYTIC_POLICIES
        from repro.sim.flowsweep import FlowPoint, flow_arrivals

        policies = args.policies or ANALYTIC_POLICIES
        if _bad_policies("--policies", policies, ANALYTIC_POLICIES):
            return 2
        geometry = IntersectionGeometry()
        conflicts = ConflictTable(geometry)
        sweep = {}
        for policy in policies:
            points = []
            for flow in args.flows:
                result = run_analytic(
                    policy, flow_arrivals(flow, args.cars, args.seed),
                    geometry=geometry, conflicts=conflicts,
                )
                points.append(FlowPoint(policy=result.policy, flow_rate=flow,
                                        result=result))
            sweep[points[0].policy] = points
    else:
        from repro.sim import run_flow_sweep

        policies = args.policies or ["aim", "vt-im", "crossroads"]
        if _bad_policies("--policies", policies):
            return 2
        sweep = run_flow_sweep(
            policies=policies,
            flow_rates=args.flows,
            n_cars=args.cars, seed=args.seed, jobs=args.jobs,
        )

    headers, rows = flow_sweep_rows(sweep)
    print(render_table(headers, rows, precision=4))
    if "crossroads" in sweep and len(sweep) > 1:
        print("\nCrossroads advantage:")
        for baseline, stats in speedup_summary(sweep, subject="crossroads").items():
            print(f"  vs {baseline:12s} worst {stats['worst_case']:.2f}X, "
                  f"avg {stats['average']:.2f}X")
    if args.perf:
        from repro.sim.metrics import merge_perf

        snapshots = [
            point.result.perf
            for points in sweep.values()
            for point in points
            if getattr(point.result, "perf", None)
        ]
        merged = merge_perf(snapshots)
        if merged:
            print("\nperf counters (merged over "
                  f"{len(snapshots)} sweep cells):")
            for name, value in sorted(merged.items()):
                print(f"  {name:44s} {value:.6g}")
        else:
            print("\nperf counters: none recorded "
                  "(the analytic engine keeps no perf state)")
    return 0


def _cmd_grid(args) -> int:
    from repro.analysis import render_table
    from repro.grid import GridSpec, corridor_spec, run_grid, sweep_grid

    status = _load_plugins(args.plugin) or _bad_traffic(
        "--flow", [args.flow], args.cars
    )
    if status:
        return status
    spec_file = args.grid if args.grid is not None else args.spec
    try:
        if spec_file is not None:
            spec = GridSpec.from_file(spec_file)
            label = f"spec {spec_file}"
        else:
            spec = corridor_spec(
                args.nodes,
                link_length=args.link_length,
                policy=args.policy,
                policies=args.policies,
            )
            label = f"{args.nodes}-node corridor"
    except (ValueError, OSError) as exc:
        print(f"bad grid spec: {exc}", file=sys.stderr)
        return 2
    if spec_file is not None:
        flag = "--grid" if args.grid is not None else "--spec"
    else:
        flag = "--policies" if args.policies is not None else "--policy"
    if _bad_policies(flag, [node.policy for node in spec.nodes]):
        return 2
    if args.save_spec is not None:
        spec.to_json(args.save_spec)
        print(f"spec -> {args.save_spec}")

    if args.seeds is not None:
        if args.metrics is not None:
            print("--metrics applies to single corridor runs, not --seeds "
                  "replication", file=sys.stderr)
            return 2
        cells = sweep_grid(
            spec, args.cars, seeds=args.seeds, flow_rate=args.flow,
            jobs=args.jobs,
        )
        headers = ["seed", "completed", "avg corridor (s)", "avg wait (s)",
                   "handoffs", "delayed", "collisions"]
        rows = [
            [c["seed"], c["summary"]["completed"],
             c["summary"]["avg_corridor_time_s"],
             c["summary"]["avg_delay_s"], c["summary"]["handoffs"],
             c["summary"]["handoffs_delayed"], c["summary"]["collisions"]]
            for c in cells
        ]
        print(f"{label}: {len(spec)} nodes, flow {args.flow}, "
              f"{args.cars} cars x {len(args.seeds)} seeds")
        print(render_table(headers, rows, precision=3))
        return 0 if all(
            c["summary"]["collisions"] == 0 for c in cells
        ) else 1

    log = _make_log(args)
    registry = _make_registry(args)
    result = run_grid(
        spec, args.cars, flow_rate=args.flow, seed=args.seed, obs=log,
        metrics=registry,
    )
    print(f"{label}: flow {args.flow} car/lane/s, {args.cars} cars, "
          f"seed {args.seed}\n")
    rows = []
    for name, node in result.per_node.items():
        rows.append([
            name, node.policy, node.n_finished, node.average_delay,
            node.messages_sent, node.compute_time, node.collisions,
        ])
    print(render_table(
        ["node", "policy", "served", "avg wait (s)", "messages",
         "IM compute (s)", "collisions"],
        rows, precision=3,
    ))
    summary = result.summary()
    print(f"\ncorridor: {result.n_completed}/{result.n_vehicles} trips "
          f"complete | avg corridor time {summary['avg_corridor_time_s']:.3f} s | "
          f"avg wait {summary['avg_delay_s']:.3f} s | "
          f"handoffs {result.handoffs} ({result.handoffs_delayed} delayed, "
          f"{result.handoff_wait_s:.2f} s waiting) | safe {result.safe}")
    if log is not None:
        _report_trace(log, args.trace, result.obs)
    if registry is not None:
        _export_metrics(result.metrics, args.metrics)
        print(f"metrics: {len(registry)} series -> {args.metrics}")
    return 0 if result.safe else 1


def _cmd_fuzz(args) -> int:
    from repro.scenarios import fuzz, load_library, property_failures, run_spec

    if _bad_policies("--policies", args.policies):
        return 2
    if args.replay is not None:
        specs = load_library(args.replay)
        if not specs:
            print(f"no scenario specs under {args.replay}", file=sys.stderr)
            return 2
        bad = 0
        for spec in specs:
            outcome = run_spec(spec)
            status = "ok" if outcome.matches_expectation else "MISMATCH"
            if not outcome.matches_expectation or property_failures(outcome):
                bad += 1
            print(f"  {status:8s} {spec.name}: {outcome}")
        print(f"\nreplayed {len(specs)} scenario(s), {bad} failure(s)")
        return 0 if bad == 0 else 1

    report = fuzz(
        seed=args.seed,
        max_examples=args.examples,
        budget_s=args.budget,
        policies=args.policies,
        max_cars=args.max_cars,
        adversarial=not args.benign,
        out_dir=args.out,
        verbose=args.verbose,
    )
    print(f"draws: {report.draws} | interesting: {len(report.interesting)} | "
          f"property failures: {len(report.failures)}")
    for outcome in report.failures:
        print(f"  FAIL {outcome.spec.name}: {outcome} "
              f"(kinds: {', '.join(sorted(property_failures(outcome)))})")
    for path in report.saved:
        print(f"  saved {path}")
    return 0 if report.ok else 1


def _cmd_scenarios(args) -> int:
    from repro.analysis import render_table
    from repro.sim import run_scenario
    from repro.traffic import scale_model_scenarios

    if _bad_policies("--policies", args.policies):
        return 2
    rows = []
    for scenario in scale_model_scenarios():
        row = [scenario.name]
        for policy in args.policies:
            delays = [
                run_scenario(policy, scenario.arrivals, seed=100 + rep).average_delay
                for rep in range(args.repeats)
            ]
            row.append(float(np.mean(delays)))
        rows.append(row)
    headers = ["scenario"] + [f"{p} wait (s)" for p in args.policies]
    print(render_table(headers, rows, precision=2))
    return 0


def _cmd_buffer(_args) -> int:
    from repro.analysis import render_table
    from repro.sensors import SafetyBufferCalculator, worst_case_elong

    bound, up, down = worst_case_elong(trials=20, rng=np.random.default_rng(2017))
    print(render_table(
        ["profile", "mean Elong (mm)", "max |Elong| (mm)"],
        [
            ["0.1 -> 3.0 m/s", up.mean_elong * 1000, up.max_abs_elong * 1000],
            ["3.0 -> 0.1 m/s", down.mean_elong * 1000, down.max_abs_elong * 1000],
        ],
        precision=1,
    ))
    b = SafetyBufferCalculator(elong=bound).breakdown()
    print(f"\nElong bound {bound * 1000:.1f} mm (paper: 75 mm); "
          f"base buffer {b.base * 1000:.1f} mm; VT-IM total {b.total:.3f} m")
    return 0


def _cmd_info(_args) -> int:
    import repro
    from repro.core.base import IMConfig
    from repro.core.registry import available_policies, extension_policies
    from repro.core.vtim import rtd_buffer

    config = IMConfig()
    print(f"repro {repro.__version__} — Crossroads reproduction (DAC 2017)")
    print(f"policies   : {', '.join(available_policies())}")
    print(f"extensions : {', '.join(extension_policies()) or 'none'}")
    print(f"WC-RTD     : {config.wc_rtd * 1000:.0f} ms")
    print(f"base buffer: {config.base_buffer * 1000:.0f} mm")
    print(f"RTD buffer : {rtd_buffer(config):.2f} m (VT-IM only)")
    return 0


def _cmd_policies(args) -> int:
    from repro.analysis import render_table
    from repro.core import registry

    status = _load_plugins(args.plugin)
    if status:
        return status
    rows = []
    for spec in registry.iter_policies():
        rows.append([
            spec.name + (" (ext)" if spec.extension else ""),
            ", ".join(spec.aliases) or "-",
            spec.im_name,
            spec.vehicle_cls.__name__,
            spec.doc,
        ])
    print(render_table(
        ["policy", "aliases", "IM", "vehicle", "description"], rows
    ))
    print("\nResolve any name/alias with --policy; plugins register via "
          "repro.core.registry.register_policy (see README 'Adding a new "
          "policy').")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import ImServer, ServeConfig

    status = _load_plugins(args.plugin) or _bad_policies("--policy", [args.policy])
    if status:
        return status
    config = ServeConfig(
        policy=args.policy,
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        time_scale=args.time_scale,
        max_queue=args.max_queue,
        safety_factor=args.safety_factor,
        apply_estimate=not args.static_wc_rtd,
    )

    async def _serve() -> int:
        server = ImServer(config)
        await server.start()
        line = (
            f"serving {config.policy} IM on tcp {config.host}:{server.port}"
            f" (time scale {config.time_scale:g}x, queue bound "
            f"{config.max_queue})"
        )
        if server.http_port is not None:
            line += f"; metrics on http://{config.host}:{server.http_port}/metrics"
        print(line, flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # e.g. Windows event loops; KeyboardInterrupt still works
        if args.duration is not None:
            loop.call_later(args.duration, server.request_shutdown)
        try:
            await server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - handler fallback
            await server.shutdown()
        if args.metrics_out:
            _export_metrics(server.snapshot(), args.metrics_out)
            print(f"metrics snapshot -> {args.metrics_out}", flush=True)
        stats = server.im.stats
        print(
            f"serve: drained and stopped; {stats.crossing_requests} requests"
            f" ({stats.accepts} accepts, {stats.rejects} rejects,"
            f" {stats.exits} exits), wc-rtd estimate"
            f" {server.wc_rtd_estimate() * 1000.0:.1f} ms"
            f" ({server.estimator.count} ack samples)",
            flush=True,
        )
        return 0

    return asyncio.run(_serve())


def _cmd_bench(args) -> int:
    import json

    from repro.serve import bench_serve

    if _bad_policies("--policy", [args.policy]):
        return 2
    payload = bench_serve(
        rates=tuple(args.rate),
        duration_s=args.duration,
        policy=args.policy,
        time_scale=args.time_scale,
        max_queue=args.max_queue,
    )
    print(f"{'rate':>8} {'sent':>6} {'tps':>8} {'p50 ms':>8} {'p99 ms':>8} "
          f"{'rejects':>8} {'timeouts':>9}")
    for report in payload["sweep"].values():
        print(f"{report['rate']:>8g} {report['sent']:>6d} "
              f"{report['tps']:>8.1f} "
              f"{report['rtd_p50_wall_s'] * 1000.0:>8.2f} "
              f"{report['rtd_p99_wall_s'] * 1000.0:>8.2f} "
              f"{report['rejects']:>8d} {report['timeouts']:>9d}")
    overload = payload["overload"]
    print(f"overload: {overload['rejects']} shed "
          f"(by_reason['overload']), peak backlog "
          f"{overload['peak_backlog']}, alive after: "
          f"{overload['alive_after_overload']}")
    server_info = payload["server"]
    print(f"wc-rtd estimate: {server_info['wc_rtd_estimate_s'] * 1000.0:.1f} ms "
          f"({server_info['rtd_samples']} ack samples, worst service "
          f"{server_info['worst_service_s'] * 1000.0:.1f} ms)")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"bench payload -> {args.out}")
    return 0 if overload["alive_after_overload"] else 1


_COMMANDS = {
    "run": _cmd_run,
    "serve": _cmd_serve,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "fuzz": _cmd_fuzz,
    "scenarios": _cmd_scenarios,
    "buffer": _cmd_buffer,
    "info": _cmd_info,
    "policies": _cmd_policies,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
