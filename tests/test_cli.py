"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "crossroads"
        assert args.scenario is None and args.flow is None
        assert args.trace == []

    def test_run_flow_and_scenario_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--flow", "0.5", "--scenario", "1"])

    def test_sweep_flows_parsed(self):
        args = build_parser().parse_args(["sweep", "--flows", "0.1", "0.5"])
        assert args.flows == [0.1, 0.5]
        assert args.perf is False

    def test_sweep_perf_flag(self):
        args = build_parser().parse_args(["sweep", "--perf"])
        assert args.perf is True

    def test_trace_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.trace == []
        assert args.kernel is False
        assert args.metrics is None
        assert args.bucket == 1.0

    def test_trace_workload_knobs_shared_with_run(self):
        args = build_parser().parse_args(
            ["run", "--policy", "aim", "--flow", "0.3", "--cars", "8",
             "--seed", "4", "--trace", "x.json", "--trace", "x.jsonl",
             "--kernel", "--metrics", "m.csv", "--bucket", "0.5"]
        )
        assert args.policy == "aim" and args.flow == 0.3
        assert args.trace == ["x.json", "x.jsonl"] and args.kernel is True
        assert args.metrics == "m.csv" and args.bucket == 0.5

    def test_help_mentions_trace(self, capsys):
        """Tracing and `--trace` are discoverable from --help."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "trace" in out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        run_help = capsys.readouterr().out
        assert "--trace" in run_help and "--kernel" in run_help
        assert "perfetto" in run_help.lower()
        assert ".jsonl" in run_help


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "crossroads" in out
        assert "150 ms" in out

    def test_run_scenario(self, capsys):
        assert main(["run", "--scenario", "10", "--policy", "crossroads"]) == 0
        out = capsys.readouterr().out
        assert "avg wait" in out
        assert "safe True" in out

    def test_run_flow(self, capsys):
        assert main(["run", "--flow", "0.2", "--cars", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_run_bad_scenario_number(self, capsys):
        assert main(["run", "--scenario", "11"]) == 2

    def test_run_always_reports_losses_and_duplicates(self, capsys):
        """The robustness tallies print even on a healthy run, so a
        lossy network can never hide in a quiet summary."""
        assert main(["run", "--flow", "0.2", "--cars", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "losses by reason" in out
        assert "dup dropped" in out

    def test_run_metrics_export_parses(self, capsys, tmp_path):
        from repro.obs import parse_prometheus

        out_file = tmp_path / "run.prom"
        assert main(["run", "--flow", "0.2", "--cars", "6", "--seed", "3",
                     "--metrics", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        samples = parse_prometheus(out_file.read_text())
        names = {name for name, _, _ in samples}
        assert "repro_des_events_total" in names
        assert "repro_vehicle_rtd_seconds_bucket" in names

    def test_metrics_command_prints_series_table(self, capsys, tmp_path):
        csv_file = tmp_path / "series.csv"
        assert main(["run", "--flow", "0.2", "--cars", "6", "--seed", "3",
                     "--metrics", str(csv_file), "--bucket", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "des.events" in out
        assert "vehicle.rtd_seconds" in out
        assert "series over" in out and "bucket 0.5 s" in out
        assert csv_file.read_text().startswith(
            "metric,type,labels,t_start_s,value")

    def test_bad_bucket_is_a_usage_error(self, capsys, tmp_path):
        assert main(["run", "--flow", "0.2", "--cars", "4", "--metrics",
                     str(tmp_path / "m.prom"), "--bucket", "0"]) == 2
        assert "bad --bucket" in capsys.readouterr().err

    # A bad traffic value is a usage error (2), never exit 1, which
    # run and grid keep for "a collision happened".
    def test_run_zero_cars_is_a_usage_error(self, capsys):
        assert main(["run", "--flow", "0.3", "--cars", "0"]) == 2
        assert capsys.readouterr().err.startswith("bad --cars: 0")

    def test_run_negative_flow_is_a_usage_error(self, capsys):
        assert main(["run", "--flow", "-1"]) == 2
        assert capsys.readouterr().err.startswith("bad --flow: -1.0")

    def test_sweep_zero_flow_is_a_usage_error(self, capsys):
        assert main(["sweep", "--flows", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --flows: 0.0") and err.count("\n") == 1

    def test_grid_zero_cars_is_a_usage_error(self, capsys):
        assert main(["grid", "--cars", "0"]) == 2
        assert capsys.readouterr().err.startswith("bad --cars: 0")

    def test_grid_metrics_with_seeds_rejected(self, capsys, tmp_path):
        rc = main(["grid", "--nodes", "2", "--cars", "4", "--seeds", "1", "2",
                   "--metrics", str(tmp_path / "x.prom")])
        assert rc == 2

    def test_run_with_trace_writes_chrome_trace(self, capsys, tmp_path):
        out_file = tmp_path / "run.trace.json"
        assert main(["run", "--flow", "0.2", "--cars", "5", "--seed", "3",
                     "--trace", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        doc = json.loads(out_file.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(r["ph"] == "X" for r in doc["traceEvents"])

    def test_trace_command(self, capsys, tmp_path):
        """One run writes a Chrome trace and a raw JSON Lines stream."""
        out_file = tmp_path / "out.trace.json"
        jsonl_file = tmp_path / "events.jsonl"
        assert main(["run", "--flow", "0.2", "--cars", "5", "--seed", "3",
                     "--trace", str(out_file), "--trace", str(jsonl_file),
                     "--perf"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "spans" in out
        assert "count.machine.request_loop.exchanges" in out
        doc = json.loads(out_file.read_text())
        assert {r["ph"] for r in doc["traceEvents"]} >= {"M", "X"}
        lines = jsonl_file.read_text().splitlines()
        assert lines and all(json.loads(line)["kind"] for line in lines)

    def test_run_flow_arrivals_match_run_flow(self, capsys, monkeypatch):
        """`run --flow F --cars N --seed S` runs run_flow's cell: same
        arrivals, same world seed."""
        import repro.sim
        import repro.sim.flowsweep
        from repro.sim.flowsweep import run_flow

        calls = []
        real = repro.sim.run_scenario

        def spy(policy, arrivals, **kwargs):
            calls.append((list(arrivals), kwargs["seed"]))
            return real(policy, arrivals, **kwargs)

        monkeypatch.setattr(repro.sim, "run_scenario", spy)
        monkeypatch.setattr(repro.sim.flowsweep, "run_scenario", spy)
        main(["run", "--flow", "0.6", "--cars", "6", "--seed", "11"])
        run_flow("crossroads", 0.6, n_cars=6, seed=11)
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_sweep_analytic(self, capsys):
        code = main([
            "sweep", "--engine", "analytic",
            "--policies", "vt-im", "crossroads",
            "--flows", "0.1", "0.8", "--cars", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "crossroads thr" in out
        assert "Crossroads advantage" in out

    def test_sweep_analytic_defaults_to_the_policies_it_runs(self, capsys):
        # README's `sweep --engine analytic --cars 160`, at a smaller size.
        code = main(["sweep", "--engine", "analytic",
                     "--flows", "0.1", "0.8", "--cars", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vt-im thr" in out and "crossroads thr" in out
        assert "aim" not in out

    def test_sweep_analytic_aim_is_a_usage_error(self, capsys):
        code = main(["sweep", "--engine", "analytic", "--policies", "aim",
                     "--cars", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'aim'" in err and "vt-im crossroads" in err

    def test_run_unknown_policy_is_a_usage_error(self, capsys):
        code = main(["run", "--policy", "bogus", "--flow", "0.1", "--cars", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'bogus'" in err and "vt-im crossroads aim" in err

    def test_sweep_unknown_policy_is_a_usage_error(self, capsys):
        code = main(["sweep", "--policies", "crossroads", "bogus",
                     "--flows", "0.1", "--cars", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'bogus'" in err and "vt-im crossroads aim" in err

    def test_removed_batch_policy_is_a_usage_error(self, capsys):
        code = main(["run", "--policy", "batch-crossroads", "--flow", "0.1",
                     "--cars", "4"])
        assert code == 2
        assert capsys.readouterr().err == (
            "bad --policy: 'batch-crossroads' "
            "(registered: vt-im crossroads aim)\n"
        )

    @pytest.mark.parametrize("argv", [
        ["serve", "--policy", "bogus", "--port", "0", "--duration", "0.1"],
        ["bench", "serve", "--policy", "bogus", "--rate", "10",
         "--duration", "0.1"],
        ["grid", "--policy", "bogus", "--nodes", "1", "--cars", "2"],
        ["grid", "--policies", "crossroads", "bogus", "--nodes", "2",
         "--cars", "2"],
        ["scenarios", "--policies", "bogus", "--repeats", "1"],
        ["fuzz", "--policies", "bogus", "--examples", "1"],
    ], ids=["serve", "bench-serve", "grid-policy", "grid-policies",
            "scenarios", "fuzz-policies"])
    def test_unknown_policy_is_a_usage_error_everywhere(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'bogus'" in err and "vt-im crossroads aim" in err

    def test_grid_spec_file_policy_is_checked(self, capsys, tmp_path):
        from repro.grid import corridor_spec

        path = tmp_path / "bogus.grid.json"
        corridor_spec(1, policy="bogus").to_json(str(path))
        assert main(["grid", "--grid", str(path), "--cars", "2"]) == 2
        assert capsys.readouterr().err.startswith("bad --grid: 'bogus'")

    def test_info_without_extensions_says_none(self, capsys, monkeypatch):
        import repro.core.policy  # noqa: F401  (registers the built-ins)
        from repro.core import registry

        monkeypatch.setattr(registry, "_REGISTRY", {
            key: spec for key, spec in registry._REGISTRY.items()
            if not spec.extension
        })
        assert main(["info"]) == 0
        assert "extensions : none\n" in capsys.readouterr().out

    def test_run_policy_alias_still_runs(self, capsys):
        assert main(["run", "--policy", "xroads", "--flow", "0.1",
                     "--cars", "2"]) == 0

    def test_sweep_perf_micro(self, capsys):
        code = main([
            "sweep", "--engine", "micro", "--perf",
            "--policies", "crossroads",
            "--flows", "0.2", "--cars", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "count.des_events" in out
        assert "count.machine.request_loop.exchanges" in out

    def test_sweep_perf_analytic_has_none(self, capsys):
        code = main([
            "sweep", "--engine", "analytic", "--perf",
            "--policies", "crossroads",
            "--flows", "0.2", "--cars", "8",
        ])
        assert code == 0
        assert "none recorded" in capsys.readouterr().out

    def test_buffer(self, capsys):
        assert main(["buffer"]) == 0
        out = capsys.readouterr().out
        assert "Elong bound" in out

    def test_scenarios_small(self, capsys):
        assert main(["scenarios", "--repeats", "1",
                     "--policies", "crossroads"]) == 0
        out = capsys.readouterr().out
        assert "S1-worst" in out
        assert "S10-best" in out


class TestGridSpecFile:
    """`repro grid --spec FILE` loads a saved GridSpec (round-trips
    with `--save-spec`; synonym for the original `--grid FILE`)."""

    def test_save_then_load_round_trip(self, capsys, tmp_path):
        from repro.grid import GridSpec

        saved = tmp_path / "corridor.grid.json"
        assert main(["grid", "--nodes", "2", "--cars", "4",
                     "--flow", "0.3", "--seed", "5",
                     "--save-spec", str(saved)]) == 0
        first = capsys.readouterr().out
        assert saved.exists()
        assert main(["grid", "--spec", str(saved), "--cars", "4",
                     "--flow", "0.3", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        # Same spec + same seed => the loaded run reproduces the
        # generated one line for line; only the header lines (topology
        # label, saved-spec notice) differ.
        def results(out):
            lines = out.splitlines()
            return [ln for ln in lines if ln.startswith(("node", "N", "corridor:"))]

        assert results(second) == results(first)
        assert results(second)
        # And the file itself round-trips through the spec API.
        assert GridSpec.from_file(str(saved)).to_dict() == json.loads(
            saved.read_text()
        )

    def test_spec_excludes_other_topology_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["grid", "--spec", "a.json", "--grid", "b.json"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["grid", "--spec", "a.json", "--nodes", "2"]
            )

    def test_missing_spec_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["grid", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "bad grid spec" in capsys.readouterr().err
