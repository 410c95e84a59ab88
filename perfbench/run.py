"""The repository benchmark: four reference workloads, end to end and
layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload e5-sat-crossroads --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate run that reports the per-layer metrics: it
runs one untraced op for the program's own counts, then wraps every
``repro`` entry point (:mod:`layertrace`) and splits host time across
the layers of ``tools/check_layers.py``.  Either way the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is non-zero when any output check failed.  Workloads,
metric definitions and the reasoning behind them: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

WORKLOADS = ("e5-sat-crossroads", "e5-sat-aim", "fig72-analytic", "serve-200rps")
DEFAULT_SEED = 7
#: Set-up is timed this many times per run (fresh processes), with a
#: calibration batch before and after each; the median, in reference
#: seconds, is reported.
SETUP_SAMPLES = 5
ROOT = Path.cwd()

#: Traced entry points whose call counts are reported by name.
DRIVE_TICK = "repro.vehicle.agent.BaseVehicle._drive_loop"
PLANT_STEP = "repro.sensors.plant.LongitudinalPlant.step"
COMPUTE_CHARGE = "repro.core.compute.ComputeModel.charge"


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(values: List[float], q: float) -> float:
    import serveload

    return serveload.quantile(values, q) * 1000.0


def layer_counts(delta: dict, entries: Dict[str, str], ops: int) -> Dict[str, float]:
    """Per-op self seconds and call counts from a tracer window."""
    import layertrace

    calls = delta["calls"]
    out = {k: v / ops for k, v in layertrace.self_times(delta).items()}
    out["vehicle.ticks"] = calls.get(DRIVE_TICK, 0) / ops
    out["sensors.plant_steps"] = calls.get(PLANT_STEP, 0) / ops
    out["kinematics.calls"] = sum(
        n for key, n in calls.items() if entries.get(key) == "kinematics"
    ) / ops
    return out


def derived(metrics: Dict[str, float]) -> None:
    """Fill the per-unit ratios from counts and self times."""
    def ratio(num, den, scale):
        return metrics[num] / metrics[den] * scale if metrics[den] else 0.0

    metrics["des.ns_per_event"] = ratio("des.self_s", "des.events", 1e9)
    metrics["vehicle.us_per_tick"] = ratio("vehicle.self_s", "vehicle.ticks", 1e6)
    metrics["core.us_per_request"] = ratio("core.self_s", "core.requests", 1e6)


# -- simulation workloads ------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Child mode: import and build one workload's inputs, then report."""
    import sims

    sims.make(workload).setup(seed)
    print("ready", flush=True)
    return 0


def sim_setup_seconds(workload: str, seed: int) -> List[float]:
    """Process start -> inputs built, timed in fresh processes, in
    reference seconds."""
    import calibrate

    samples = []
    brackets = [calibrate.batch()[0]]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        samples.append(time.perf_counter() - started)
        child.communicate(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        brackets.append(calibrate.batch()[0])
    return calibrate.scaled(samples, brackets)


def sim_counts(results, analytic: bool) -> Dict[str, float]:
    """Per-op counts the program itself reports (``SimResult``)."""
    perf: Dict[str, float] = {}
    for _, result, _ in results:
        for key, value in result.perf.items():
            if key.startswith("count."):
                perf[key] = perf.get(key, 0.0) + value
    total = lambda attr: sum(getattr(r, attr) for _, r, _ in results)  # noqa: E731
    requests = total("compute_requests")
    # The analytic engine retries without counting rejects, so its
    # grants are the vehicles that got a slot.
    grants = total("n_finished") if analytic else requests - total("rejects")
    hits = perf.get("count.tile_cache_hits", 0.0)
    misses = perf.get("count.tile_cache_misses", 0.0)
    cells = len(results)
    return {
        "des.events": perf.get("count.des_events", 0.0),
        "core.requests": float(requests),
        "core.grant_ratio": grants / requests if requests else 0.0,
        "core.sim_compute_s": total("compute_time"),
        "geometry.tile_cells_tested": perf.get("count.tile_cells_tested", 0.0),
        "geometry.tile_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "network.messages": float(total("messages_sent")),
        "network.bytes": float(total("bytes_sent")),
        "network.drops": float(sum(
            sum(r.losses_by_reason.values()) for _, r, _ in results)),
        "protocol.exchanges": perf.get("count.machine.request_loop.exchanges", 0.0),
        "protocol.timeouts": perf.get("count.machine.request_loop.timeouts", 0.0),
        "protocol.discarded": perf.get("count.machine.request_loop.discarded", 0.0),
        "sim.throughput": total("throughput") / cells,
        "sim.avg_delay_s": total("average_delay") / cells,
    }


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    import sims

    calibrate.pin()
    setup = [] if trace else sim_setup_seconds(name, seed)
    workload = sims.make(name)
    workload.setup(seed)
    if not trace:
        run = sims.SimRun(workload, calibrated=True)
        run.run_for(seconds, range(workload.draws))
        wall, cpu = run.reference_seconds()
        host_wall, host_cpu = run.host_seconds()
        return {
            "problems": run.problems,
            "failures": run.failures,
            "attempted": run.vehicles,
            "failed": run.failed,
            "metrics": {
                "setup_s": statistics.median(setup),
                "vehicles_per_s": run.finished / wall,
                "ok_share": (run.vehicles - run.failed) / run.vehicles,
                "peak_rss_mb": peak_rss_mb(),
                "cpu_ms_per_vehicle": cpu / run.finished * 1e3,
            },
            "notes": [
                f"host (unscaled): {run.finished / host_wall:.4g} vehicles/s, "
                f"{host_cpu / run.finished * 1e3:.4g} CPU ms/vehicle "
                f"over {len(run.op_wall)} ops of {len(run.digests)} draws",
            ],
            "digests": run.digests,
        }

    # Per-layer numbers describe draw 0 (the E5 cell itself for the
    # default seed): its counts from one untraced op, its self times
    # from traced repeats of the same op.  Only that op counts as
    # attempted; the repeats must reproduce it.
    import layertrace

    started = time.perf_counter()
    base = sims.SimRun(workload)
    base.run_op(0)
    tracer = layertrace.install(ROOT)
    traced = sims.SimRun(workload)
    before = tracer.snapshot()
    window_start = time.perf_counter()
    traced.run_for(seconds - (window_start - started), [0])
    window = time.perf_counter() - window_start
    delta = layertrace.delta(before, tracer.snapshot())
    ops = len(traced.op_wall)
    metrics = dict.fromkeys(declared_metrics(ROOT, True), 0.0)
    metrics.update(sim_counts(base.last_results,
                              analytic=isinstance(workload, sims.AnalyticGrid)))
    metrics.update(layer_counts(delta, tracer.entries, ops))
    metrics["unattributed.self_s"] = layertrace.unattributed(delta, window) / ops
    metrics["trace.overhead_ratio"] = statistics.median(traced.op_wall) / base.op_wall[0]
    derived(metrics)
    problems = base.problems + traced.problems
    if traced.digests != base.digests:
        problems.append("traced summary digests differ from the untraced run")
    return {
        "problems": problems,
        "failures": base.failures,
        "attempted": base.vehicles,
        "failed": base.failed,
        "metrics": metrics,
        "digests": base.digests,
    }


# -- serve workload --------------------------------------------------------------

async def _load(server, client, seed: int, seconds: float, trace_window: bool,
                probe=None) -> dict:
    """Warm up, then one timed open-loop window.  Returns the window's
    load result, server and load-generator CPU seconds and ``/metrics``
    deltas; with a :class:`serveload.CoreProbe`, also the server's CPU
    seconds in reference seconds (else None)."""
    import calibrate
    import serveload

    n_warm = int(serveload.RATE * serveload.WARMUP_S)
    n = int(serveload.RATE * seconds)
    plan = serveload.transaction_plan(seed, n_warm + n)
    await serveload.open_loop(client, serveload.RATE, plan[:n_warm])
    if trace_window:
        server.trace_mark(signal.SIGUSR1)
    scrape0 = await server.scrape()
    if probe:
        probe.start()
    try:
        cpu0, loadgen_cpu0 = server.cpu_s(), time.process_time()
        load = await serveload.open_loop(client, serveload.RATE, plan[n_warm:],
                                         first_index=n_warm)
        cpu1, loadgen_cpu1 = server.cpu_s(), time.process_time()
    finally:
        speed = probe.stop() if probe else None
    if trace_window:
        server.trace_mark(signal.SIGUSR2)
    scrape1 = await server.scrape()
    scrape = {k: v - scrape0.get(k, 0.0) for k, v in scrape1.items()}
    scrape["repro_serve_wc_rtd_estimate"] = scrape1.get("repro_serve_wc_rtd_estimate", 0.0)
    return {
        "load": load,
        "server_cpu_s": cpu1 - cpu0,
        "server_reference_cpu_s": (
            (cpu1 - cpu0) * calibrate.REFERENCE_BATCH_S / speed if speed else None),
        "loadgen_cpu_s": loadgen_cpu1 - loadgen_cpu0,
        "scrape": scrape,
    }


def _serve_failures(load) -> List[str]:
    if not load.failed:
        return []
    return [f"{load.failed} of {load.due} transactions failed "
            f"({load.rejects} rejects, {load.timeouts} timeouts)"]


def _serve_problems(scrape) -> List[str]:
    if scrape.get("repro_serve_wire_errors_total", 0.0):
        return ["server counted wire errors"]
    return []


async def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    try:
        return await _run_serve(workdir, seed, seconds, trace)
    finally:
        if not any(workdir.iterdir()):
            workdir.rmdir()


async def _run_serve(workdir: Path, seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    import layertrace
    import serveload

    serveload.pin_loadgen()
    if not trace:
        # A server starts on the load generator's core, where the
        # calibration batches run, and moves to its own core once up.
        setup, brackets = [], [calibrate.batch()[0]]
        for _ in range(SETUP_SAMPLES - 1):
            server, client, took = await serveload.start_session(ROOT, workdir)
            setup.append(took)
            await serveload.end_session(server, client)
            server.cleanup()
            brackets.append(calibrate.batch()[0])
        server, client, took = await serveload.start_session(ROOT, workdir)
        try:
            setup.append(took)
            brackets.append(calibrate.batch()[0])
            window = await _load(server, client, seed, seconds, False,
                                 probe=serveload.CoreProbe(ROOT))
            rss = server.peak_rss_mb()
        finally:
            await serveload.end_session(server, client)
            server.cleanup()
        setup = calibrate.scaled(setup, brackets)
        load = window["load"]
        cpu_s = window["server_reference_cpu_s"]
        p50, p99 = percentile_ms(load.rtd_s, 0.50), percentile_ms(load.rtd_s, 0.99)
        limit = serveload.latency_limit_ms()
        return {
            "problems": _serve_problems(window["scrape"]),
            "failures": _serve_failures(load),
            "attempted": load.due,
            "failed": load.failed,
            "metrics": {
                "setup_s": statistics.median(setup),
                "vehicles_per_s": load.grants / load.window_s,
                "ok_share": load.grants / load.due,
                "peak_rss_mb": rss,
                "cpu_ms_per_vehicle": cpu_s / load.due * 1e3,
            },
            "notes": [
                f"host (unscaled): {window['server_cpu_s'] / load.due * 1e3:.4g} "
                f"server CPU ms/transaction",
                f"rtd p50 {p50:.3f} ms, p99 {p99:.3f} ms: p99 "
                f"{'within' if p99 <= limit else 'OVER'} the {limit:g} ms limit "
                f"(WC-RTD / time scale; not gated)",
            ],
        }

    # Untraced quarter: the load-generator and timing-dependent numbers,
    # and the CPU baseline for the overhead ratio.
    server, client, _ = await serveload.start_session(ROOT, workdir)
    try:
        base_window = await _load(server, client, seed, seconds / 4, False)
    finally:
        await serveload.end_session(server, client)
    try:
        stats = server.final_stats()
        backlog_peak = server.backlog_peak()
    finally:
        server.cleanup()
    # Traced three quarters: self times and the window's counts.
    server, client, _ = await serveload.start_session(ROOT, workdir, traced=True)
    try:
        traced_window = await _load(server, client, seed, seconds * 3 / 4, True)
        window = server.read_trace()
    finally:
        await serveload.end_session(server, client)
        server.cleanup()
    base, base_scrape = base_window["load"], base_window["scrape"]
    load, scrape = traced_window["load"], traced_window["scrape"]
    delta = window["delta"]
    metrics = dict.fromkeys(declared_metrics(ROOT, True), 0.0)
    metrics.update(layer_counts(delta, window["entries"], 1))
    metrics.update({
        "unattributed.self_s": layertrace.unattributed(delta, window["wall_s"]),
        "des.events": scrape.get("repro_des_events_total", 0.0),
        "core.requests": float(delta["calls"].get(COMPUTE_CHARGE, 0)),
        "core.grant_ratio": stats["accepts"] / stats["requests"],
        "network.messages": scrape.get("repro_net_sent_total", 0.0),
        "network.drops": scrape.get("repro_net_dropped_total", 0.0),
        "serve.frames": scrape.get("repro_serve_frames_total", 0.0),
        "serve.wire_errors": scrape.get("repro_serve_wire_errors_total", 0.0),
        "serve.overload_rejects": scrape.get("repro_serve_overload_total", 0.0),
        "serve.backlog_peak": backlog_peak,
        "serve.wc_rtd_estimate_ms": base_scrape["repro_serve_wc_rtd_estimate"] * 1e3,
        "serve.rtd_p50_ms": percentile_ms(base.rtd_s, 0.50),
        "serve.rtd_p99_ms": percentile_ms(base.rtd_s, 0.99),
        "loadgen.lag_p99_ms": percentile_ms(base.lag_s, 0.99),
        "loadgen.cpu_ms_per_tx": base_window["loadgen_cpu_s"] / base.due * 1e3,
        "trace.overhead_ratio": (
            (traced_window["server_cpu_s"] / load.due)
            / (base_window["server_cpu_s"] / base.due)),
    })
    derived(metrics)
    return {
        "problems": _serve_problems(base_scrape) + _serve_problems(scrape),
        "failures": _serve_failures(base) + _serve_failures(load),
        "attempted": base.due + load.due,
        "failed": base.failed + load.failed,
        "metrics": metrics,
    }


# -- entry point ---------------------------------------------------------------

def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def declared_metrics(root: Path, trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run reports, from BENCHMARK.json."""
    spec = benchmark_spec(root)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_checkout(root: Path) -> None:
    missing = [p for p in ("src/repro/__init__.py", "tools/check_layers.py",
                           "BENCHMARK.json")
               if not (root / p).is_file()]
    if missing:
        raise SystemExit(
            f"perfbench: run from the repository root; missing {', '.join(missing)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    check_checkout(ROOT)
    if args.seconds is None:
        args.seconds = float(benchmark_spec(ROOT)["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    trace = bool(args.trace)
    if args.workload == "serve-200rps":
        outcome = asyncio.run(run_serve(args.seed, args.seconds, trace))
    else:
        outcome = run_sim(args.workload, args.seed, args.seconds, trace)
    units = declared_metrics(ROOT, trace)
    if set(outcome["metrics"]) != set(units):
        raise RuntimeError(
            f"metrics reported {sorted(outcome['metrics'])} differ from "
            f"BENCHMARK.json {sorted(units)}")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for failure in outcome["failures"]:
        print(f"FAILED OP: {failure}", file=sys.stderr)
    for name, value in outcome["metrics"].items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    for digests in outcome.get("digests", {}).values():
        for label, value in digests.items():
            print(f"digest {label} {value}")
    for note in outcome.get("notes", ()):
        print(note)
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
