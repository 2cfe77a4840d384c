"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command",
        ["datasets", "shuhai", "selfcheck",
         "preprocess --dataset GG", "run --dataset GG",
         "sweep --dataset GG", "codegen"],
    )
    def test_commands_parse(self, command):
        args = build_parser().parse_args(command.split())
        assert args.command == command.split()[0]


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "rmat-21-32" in out and "orkut" in out

    def test_shuhai(self, capsys):
        assert main(["shuhai"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out and "knee" in out

    def test_preprocess(self, capsys):
        code = main(
            ["preprocess", "--dataset", "GG", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accelerator:" in out and "partitions:" in out

    def test_run_bfs(self, capsys):
        code = main(
            ["run", "--dataset", "GG", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "4",
             "--app", "bfs"]
        )
        assert code == 0
        assert "MTEPS" in capsys.readouterr().out

    def test_run_pagerank_capped(self, capsys):
        code = main(
            ["run", "--dataset", "AM", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "4",
             "--app", "pagerank", "--iterations", "2"]
        )
        assert code == 0
        assert "iterations: 2" in capsys.readouterr().out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--dataset", "GG", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0L3B" in out and "3L0B" in out and "selected" in out

    def test_codegen(self, tmp_path, capsys):
        code = main(["codegen", "--output", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "7L7B" / "manifest.json").exists()

    def test_run_from_edge_list(self, tmp_path, capsys, tiny_graph):
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.el"
        write_edge_list(tiny_graph, path)
        code = main(
            ["run", "--edge-list", str(path), "--buffer-vertices", "4",
             "--pipelines", "2", "--app", "bfs"]
        )
        assert code == 0

    def test_missing_graph_source_exits(self):
        with pytest.raises(SystemExit):
            main(["preprocess"])

    def test_check_quick(self, capsys):
        code = main(["check", "--device", "u280", "--app", "pagerank",
                     "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle checks passed" in out
        assert "violation" in out


class TestErrorPaths:
    """The CLI's exit-code contract: usage errors exit 2 via argparse,
    user errors (bad keys, unreadable files, unrecoverable fault
    scenarios) print one line on stderr and return 2 — never a
    traceback."""

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["run --dataset GG", "check --quick", "sweep --dataset GG",
         "chaos run", "fleet run"],
    )
    @pytest.mark.parametrize(
        "flag",
        ["--no-sim-cache", "--cache-entries 64", "--shared-cache cache"],
    )
    def test_removed_cache_flags_exit_2(self, command, flag, capsys):
        # No perf-aware subcommand accepts a timing-cache flag.
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + flag.split())
        assert excinfo.value.code == 2
        assert flag.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["run --dataset GG", "check --quick", "sweep --dataset GG",
         "chaos run", "fleet run"],
    )
    def test_removed_no_compiled_flag_exits_2(self, command, capsys):
        # One production timing path: there is no interpreted escape
        # hatch to select any more.
        with pytest.raises(SystemExit) as excinfo:
            main(command.split() + ["--no-compiled"])
        assert excinfo.value.code == 2
        assert "--no-compiled" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--spike-channel", "0", "--spike-multiplier", "nan"],
         ["--spike-channel", "0", "--spike-multiplier", "0.5"],
         ["--spike-channel", "0", "--spike-duration", "0"],
         ["--dead-channel", "-1"],
         ["--stall-rate", "1.5"],
         ["--stall-rate", "0.1", "--stall-pipeline", "-1"],
         ["--bit-flip-rate", "2"],
         ["--dead-channel", "0", "--onset", "-5"]],
    )
    def test_faultsim_out_of_range_fault_returns_2(self, flags, capsys):
        # These used to exit 0 having silently injected nothing.
        code = main(
            ["faultsim", "--dataset", "R21", "--scale", "0.01",
             "--iterations", "5"] + flags
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_dataset_key_returns_2(self, capsys):
        assert main(["run", "--dataset", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "NOPE" in err

    def test_missing_edge_list_returns_2(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.el"
        assert main(["run", "--edge-list", str(missing)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_edge_list_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.el"
        bad.write_text("0 1\nnot an edge\n")
        assert main(["run", "--edge-list", str(bad),
                     "--buffer-vertices", "4", "--pipelines", "2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_one_column_edge_list_returns_2(self, tmp_path, capsys):
        # Used to index column 1 of a one-column array: an IndexError
        # traceback and exit 1.
        bad = tmp_path / "f.txt"
        bad.write_text("0\n")
        assert main(["run", "--edge-list", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "column" in err

    def test_check_unknown_app_returns_2(self, capsys):
        assert main(["check", "--app", "nope", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "unknown oracle app" in err

    def test_faultsim_exhaustion_returns_2(self, capsys):
        # Every drain attempt flips a bit; one retry cannot absorb that,
        # so the resilient runtime gives up -> ResilienceExhaustedError
        # -> exit code 2 (the documented unrecoverable-scenario contract).
        code = main(
            ["faultsim", "--dataset", "GG", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "2",
             "--bit-flip-rate", "1.0", "--retries", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "failed" in err

    def test_faultsim_dead_channel_degrades_but_succeeds(self, capsys):
        # A dead channel is survivable: the runtime retires the victim
        # pipeline and re-plans onto the rest, so the exit code stays 0.
        code = main(
            ["faultsim", "--dataset", "GG", "--scale", "0.005",
             "--buffer-vertices", "256", "--pipelines", "2",
             "--dead-channel", "0", "--retries", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded" in out


class TestFleetCli:
    """``repro fleet run|status|report`` and its error contract."""

    RUN = ["fleet", "run", "--num-jobs", "6", "--fleet-seed", "3",
           "--kill", "0@0.001"]

    def test_run_passes_and_prints_summary(self, capsys):
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "fleet soak: 6 jobs" in out
        assert "kill: r0" in out
        assert "soak PASSED" in out

    def test_run_report_status_round_trip(self, tmp_path, capsys):
        report = tmp_path / "fleet.json"
        assert main(self.RUN + ["--report-json", str(report)]) == 0
        assert report.exists()
        capsys.readouterr()

        assert main(["fleet", "status", str(report)]) == 0
        out = capsys.readouterr().out
        assert "r0 [U280] RETIRED" in out
        assert "admission:" in out

        assert main(["fleet", "report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "jobs completed" in out

    def test_unknown_device_lists_valid_names(self, capsys):
        """The satellite contract: an unknown device surfaces the
        host API's typed error naming every valid device, exit 2."""
        from repro.runtime.host import list_devices

        assert main(["fleet", "run", "--num-jobs", "1",
                     "--replica", "U9000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "U9000" in err
        for name in list_devices():
            assert name in err

    def test_bad_kill_spec_returns_2(self, capsys):
        assert main(["fleet", "run", "--num-jobs", "1",
                     "--kill", "banana"]) == 2
        err = capsys.readouterr().err
        assert "bad --kill spec" in err

    def test_missing_report_file_returns_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["fleet", "status", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "fleet run" in err  # the hint names the producing command

    def test_empty_report_file_returns_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.touch()
        assert main(["fleet", "report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty" in err

    def test_garbage_report_file_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fleet", "status", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_report_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert main(["fleet", "status", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_report_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "partial.json"
        bad.write_text('{"soak_config": {}, "report": null}')
        assert main(["fleet", "report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "malformed" in err


class TestFleetDurabilityCli:
    """``fleet run --journal/--crash-after`` and ``fleet resume``
    (docs/DURABILITY.md)."""

    def _run(self, tmp_path, extra):
        journal = tmp_path / "fleet.journal"
        store = tmp_path / "results.jsonl"
        base = ["fleet", "run", "--num-jobs", "4", "--fleet-seed", "3",
                "--journal", str(journal), "--store", str(store),
                "--no-fsync"]
        return journal, store, main(base + extra)

    def test_crash_exits_3_with_resume_hint(self, tmp_path, capsys):
        journal, store, code = self._run(tmp_path, ["--crash-after", "3"])
        assert code == 3
        out = capsys.readouterr().out
        assert "fleet hard-killed" in out
        assert "repro fleet resume" in out
        assert journal.exists() and store.exists()

    def test_resume_finishes_the_run(self, tmp_path, capsys):
        journal, store, code = self._run(tmp_path, ["--crash-after", "3"])
        assert code == 3
        capsys.readouterr()
        assert main(["fleet", "resume", str(journal),
                     "--store", str(store), "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "soak PASSED" in out

    def test_journaled_run_to_completion(self, tmp_path, capsys):
        journal, store, code = self._run(tmp_path, [])
        assert code == 0
        assert "soak PASSED" in capsys.readouterr().out
        assert journal.exists()

    def test_store_requires_journal(self, tmp_path, capsys):
        assert main(["fleet", "run", "--num-jobs", "1",
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_crash_after_requires_journal(self, tmp_path, capsys):
        assert main(["fleet", "run", "--num-jobs", "1",
                     "--crash-after", "2"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_missing_journal_returns_2(self, tmp_path, capsys):
        assert main(["fleet", "resume",
                     str(tmp_path / "absent.journal")]) == 2
        assert capsys.readouterr().err.startswith("error:")
