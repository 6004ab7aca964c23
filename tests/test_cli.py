"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestWorkloadsCommand:
    def test_lists_builtins(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "paper-fig7", "star", "synthetic"):
            assert name in out


class TestDesignCommand:
    def test_paper_design(self, capsys):
        assert main(["design", "--workload", "paper"]) == 0
        out = capsys.readouterr().out
        assert "materialize:" in out
        assert "total=" in out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "design.json"
        assert main(["design", "--workload", "paper", "--json", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["materialized_names"]
        assert data["cost"]["total"] > 0

    def test_synthetic_design(self, capsys):
        assert (
            main(
                [
                    "design",
                    "--workload",
                    "synthetic",
                    "--seed",
                    "3",
                    "--relations",
                    "4",
                    "--queries",
                    "3",
                    "--rotations",
                    "1",
                ]
            )
            == 0
        )
        assert "chosen MVPP" in capsys.readouterr().out

    def test_star_design(self, capsys):
        assert main(["design", "--workload", "star", "--queries", "3"]) == 0


class TestCompareCommand:
    def test_table(self, capsys):
        assert main(["compare", "--workload", "paper"]) == 0
        out = capsys.readouterr().out
        assert "all-virtual" in out
        assert "heuristic (Fig.9)" in out
        assert "simulated-annealing" in out

    def test_with_exhaustive(self, capsys):
        assert main(["compare", "--workload", "paper", "--exhaustive"]) == 0
        assert "exhaustive-optimal" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_output(self, capsys):
        assert main(["trace", "--workload", "paper"]) == 0
        out = capsys.readouterr().out
        assert "materialize" in out
        assert "M = {" in out

    def test_trace_json_format(self, capsys):
        assert main(["trace", "--workload", "paper", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["mvpp"]
        assert document["materialized"]
        assert document["total_cost"] > 0
        decisions = {step["decision"] for step in document["steps"]}
        assert "materialize" in decisions
        assert all(
            {"vertex", "weight", "saving", "decision", "pruned"} == set(step)
            for step in document["steps"]
        )


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestDotCommand:
    def test_stdout(self, capsys):
        assert main(["dot", "--workload", "paper", "--rotations", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "mvpp.dot"
        assert (
            main(
                [
                    "dot",
                    "--workload",
                    "paper",
                    "--rotations",
                    "1",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        assert target.read_text().startswith("digraph")


class TestErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["design", "--workload", "nope"])


class TestReportCommand:
    def test_report_sections(self, capsys):
        assert main(["report", "--workload", "paper", "--rotations", "1"]) == 0
        out = capsys.readouterr().out
        assert "Chosen views" in out
        assert "Drop-one sensitivity" in out


class TestErrorExit:
    def test_repro_error_exits_nonzero(self, capsys):
        # compare --exhaustive on a large synthetic MVPP exceeds the 2^n
        # cap and must exit 1 with a message on stderr.
        code = main(
            [
                "compare",
                "--workload",
                "synthetic",
                "--relations",
                "10",
                "--queries",
                "12",
                "--exhaustive",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRefreshCommand:
    def test_clean_refresh_exits_zero(self, capsys):
        assert main(["refresh", "--workload", "paper", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "resilient refresh" in out
        assert "refreshed" in out
        assert "stale views remaining: 0" in out

    def test_refresh_with_faults_reports_injections(self, capsys):
        assert (
            main(
                [
                    "refresh",
                    "--workload",
                    "paper",
                    "--scale",
                    "0.02",
                    "--failure-rate",
                    "0.3",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failure rate 0.3" in out
        assert "faults injected:" in out


class TestSimulateCommand:
    def test_fault_simulation_converges(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--faults",
                    "--workload",
                    "paper",
                    "--scale",
                    "0.02",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "0 consistency violations" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--faults",
                    "--workload",
                    "paper",
                    "--scale",
                    "0.02",
                    "--rounds",
                    "2",
                    "--seed",
                    "7",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["converged"] is True
        assert document["queries"]["violations"] == 0
        assert document["view_violations"] == 0
        assert document["partial_writes"] == 0
        assert document["refreshes"]["succeeded"] >= 2

    def test_without_faults_flag_runs_failure_free(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "paper",
                    "--scale",
                    "0.02",
                    "--rounds",
                    "1",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["faults_injected"].get("storage_faults", 0) == 0
        assert document["refreshes"]["retries"] == 0

    def test_bad_rounds_rejected(self, capsys):
        assert main(["simulate", "--faults", "--rounds", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateDrift:
    def test_drift_replay_beats_baselines(self, capsys):
        assert main(["simulate", "--drift", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        for name in ("static", "adaptive", "eager"):
            assert name in out
        assert "accepted" in out

    def test_stationary_control_exits_zero(self, capsys):
        assert main(["simulate", "--drift", "--stationary", "--seed", "1"]) == 0
        assert "stationary control" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert (
            main(
                [
                    "simulate", "--drift", "--seed", "7",
                    "--windows-per-phase", "2", "--format", "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["windows"] == 6
        assert set(document["variants"]) == {"static", "adaptive", "eager"}

    def test_bad_windows_rejected(self, capsys):
        assert main(["simulate", "--drift", "--windows-per-phase", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestAdaptCommand:
    def test_inverting_hot_set_adapts(self, capsys):
        assert main(["adapt", "--windows", "8"]) == 0
        out = capsys.readouterr().out
        assert "hot set inverts" in out
        assert "accepted" in out
        assert "serving views:" in out

    def test_stationary_accepts_nothing(self, capsys):
        assert main(["adapt", "--windows", "6", "--stationary"]) == 0
        out = capsys.readouterr().out
        assert "accepted redesigns: 0" in out

    def test_json_format(self, capsys):
        assert (
            main(["adapt", "--windows", "6", "--format", "json"]) == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert len(document["decisions"]) == 6
        assert document["accepted"] >= 1
        assert document["final_views"]

    def test_too_few_windows_rejected(self, capsys):
        assert main(["adapt", "--windows", "1"]) == 1
        assert "--windows" in capsys.readouterr().err


class TestTraceEventsFlag:
    def test_jsonl_on_stdout(self, capsys):
        assert main(["trace", "--workload", "paper", "--events"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        for event in events:
            assert {"seq", "kind", "correlation_id", "tick", "attributes"} <= (
                set(event)
            )
        # one refresh story is threaded through a single correlation id
        refresh_ids = {
            e["correlation_id"]
            for e in events
            if e["kind"].startswith("resilience.refresh.")
        }
        assert refresh_ids
        assert all(cid.startswith("refresh-") for cid in refresh_ids)
        kinds = {e["kind"] for e in events}
        assert "resilience.refresh.begin" in kinds
        assert "resilience.epoch.advance" in kinds
        assert "adaptive.decision" in kinds

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "trace", "--workload", "paper", "--events",
                    "--output", str(target),
                ]
            )
            == 0
        )
        assert "event(s)" in capsys.readouterr().out
        lines = target.read_text().strip().splitlines()
        assert all(json.loads(line)["seq"] >= 1 for line in lines)


class TestCalibrateCommand:
    def test_text_report(self, capsys):
        assert main(["calibrate", "--workload", "paper"]) == 0
        out = capsys.readouterr().out
        assert "cost-model calibration on paper" in out
        assert "mean relative error" in out
        assert "worst calibrated:" in out

    def test_json_report(self, capsys):
        assert (
            main(["calibrate", "--workload", "paper", "--format", "json"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["workload"] == "paper-example"
        assert document["samples"] > 0
        phases = {entry["phase"] for entry in document["entries"]}
        assert phases == {"access", "maintenance"}
        errors = [e["mean_relative_error"] for e in document["entries"]]
        assert errors == sorted(errors, reverse=True)

    def test_bad_scale_rejected(self, capsys):
        assert main(["calibrate", "--workload", "paper", "--scale", "0"]) == 1
        assert "--scale" in capsys.readouterr().err


class TestBenchCommand:
    def _run(self, tmp_path, extra=()):
        target = tmp_path / "BENCH_macro.json"
        argv = [
            "bench", "--suite", "macro", "--smoke",
            "--repeats", "1", "--windows", "2", "--output", str(target),
        ]
        return main(argv + list(extra)), target

    def test_smoke_run_writes_valid_document(self, tmp_path, capsys):
        code, target = self._run(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "macro bench on paper-example (smoke" in out
        assert "calibration:" in out
        document = json.loads(target.read_text())
        assert document["schema"] == 1
        assert document["smoke"] is True
        assert set(document["phases"]) == {
            "design", "load", "queries", "refresh", "drift",
        }

    def test_second_run_gates_against_committed_baseline(
        self, tmp_path, capsys
    ):
        assert self._run(tmp_path)[0] == 0
        capsys.readouterr()
        code, _ = self._run(tmp_path)
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        code, target = self._run(tmp_path)
        assert code == 0
        document = json.loads(target.read_text())
        document["phases"]["queries"]["io_blocks"] /= 10.0
        target.write_text(json.dumps(document))
        capsys.readouterr()
        code, _ = self._run(tmp_path)
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_explicit_baseline_flag(self, tmp_path, capsys):
        code, target = self._run(tmp_path)
        assert code == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(target.read_text())
        capsys.readouterr()
        code, _ = self._run(tmp_path, ["--baseline", str(baseline)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bad_knobs_rejected(self, capsys):
        assert main(["bench", "--suite", "macro", "--windows", "1"]) == 1
        assert "windows" in capsys.readouterr().err


class TestShardingSimulation:
    def test_sharded_lifecycle_passes(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--shards", "4",
                    "--workload", "paper",
                    "--scale", "0.02",
                    "--seed", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rows identical: True" in out
        assert "affected shards only=True" in out

    def test_json_format_reports_contracts(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--shards", "4",
                    "--workload", "paper",
                    "--scale", "0.02",
                    "--format", "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["rows_identical"] is True
        assert document["pruning_wins"] is True
        assert document["refresh"]["affected_only"] is True
        assert document["selective_queries"] >= 2

    def test_bad_shard_count_rejected(self, capsys):
        assert main(["simulate", "--shards", "-2"]) == 1
        assert "--shards" in capsys.readouterr().err


class TestDesignSharding:
    def test_design_reports_partition_aware_cost(self, capsys):
        assert (
            main(["design", "--workload", "paper", "--shards", "8"]) == 0
        )
        out = capsys.readouterr().out
        assert "8-way partitions" in out
        assert "partition-aware=" in out

    def test_json_includes_shard_catalog(self, tmp_path, capsys):
        target = tmp_path / "design.json"
        assert (
            main(
                [
                    "design",
                    "--workload", "paper",
                    "--shards", "4",
                    "--replicas", "2",
                    "--json", str(target),
                ]
            )
            == 0
        )
        document = json.loads(target.read_text())
        sharding = document["sharding"]
        assert sharding["shards"] == 4
        assert sharding["replicas"] == 2
        assert set(sharding["catalog"]) == {
            s["relation"] for s in sharding["schemes"]
        }
        assert (
            sharding["cost"]["partition_aware"]
            <= sharding["cost"]["whole_object"]
        )


class TestStreamCommand:
    """``repro simulate --stream``: the lifecycle under CDC drains."""

    def test_fault_free_run_converges(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--stream",
                    "--workload", "paper",
                    "--scale", "0.02",
                    "--rounds", "2",
                    "--seed", "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "converged: True" in out
        assert "0 violations" in out
        assert "0 partial writes" in out

    def test_faulted_json_is_machine_readable(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--stream",
                    "--faults",
                    "--failure-rate", "0.3",
                    "--workload", "paper",
                    "--scale", "0.02",
                    "--rounds", "2",
                    "--seed", "7",
                    "--format", "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["converged"] is True
        assert document["queries"]["violations"] == 0
        assert document["view_violations"] == 0
        assert document["partial_writes"] == 0
        assert sum(document["faults_injected"].values()) > 0

    def test_policy_overrides_accepted(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--stream",
                    "--workload", "paper",
                    "--scale", "0.02",
                    "--rounds", "1",
                    "--seed", "7",
                    "--max-lag", "4",
                    "--coalesce", "8",
                    "--retention", "64",
                    "--format", "json",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["drains"]["total"] >= 1

    def test_bad_rounds_rejected(self, capsys):
        assert main(["simulate", "--stream", "--rounds", "0"]) == 1
        assert "rounds must be >= 1" in capsys.readouterr().err

    def test_stream_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--rounds", "1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'stream'" in capsys.readouterr().err
