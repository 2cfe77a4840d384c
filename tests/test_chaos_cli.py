"""CLI surface of ``repro chaos`` (run / replay / report /
kill-restart)."""

import json

import pytest

from repro.chaos import (
    DEFAULT_CHAOS_POLICY,
    run_cell,
    shrink_cell,
    write_bundle,
)
from repro.cli import build_parser, main

from tests.test_chaos_shrink import regression_cell


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    cell = regression_cell()
    failure = run_cell(cell)
    shrunk = shrink_cell(cell, failure)
    return write_bundle(
        str(tmp_path_factory.mktemp("bundles")), cell, failure,
        DEFAULT_CHAOS_POLICY, shrunk=shrunk,
    )


class TestChaosRun:
    def test_small_campaign_exits_zero(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "chaos", "run", "--cells", "6", "--chaos-seed", "3",
            "--report-json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "6/6 cells survived" in out
        data = json.loads(report_path.read_text())
        assert len(data["results"]) == 6
        assert all(r["status"] == "ok" for r in data["results"])

    def test_run_parses_all_options(self):
        args = build_parser().parse_args([
            "chaos", "run", "--cells", "12", "--chaos-seed", "9",
            "--device", "U50", "--intensity", "heavy",
            "--bundle-dir", "/tmp/b", "--no-shrink", "--max-probes", "7",
        ])
        assert args.command == "chaos"
        assert args.chaos_command == "run"
        assert args.device == ["U50"]
        assert args.no_shrink and args.max_probes == 7

    def test_bad_intensity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos", "run", "--intensity", "cataclysmic"]
            )

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])


class TestChaosReplay:
    def test_replay_reproduces(self, capsys, bundle_path):
        code = main(["chaos", "replay", bundle_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced bit-for-bit" in out
        assert "4 -> 1 fault event(s)" in out

    def test_tampered_digest_exits_one(self, capsys, bundle_path, tmp_path):
        bundle = json.loads(open(bundle_path).read())
        bundle["failure"]["digest"] = "0" * 64
        tampered = tmp_path / "tampered.repro.json"
        tampered.write_text(json.dumps(bundle))
        code = main(["chaos", "replay", str(tampered)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIGEST MISMATCH" in out

    def test_bad_schema_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.repro.json"
        bad.write_text(json.dumps({"schema": "nope/v0"}))
        assert main(["chaos", "replay", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_bundle_exits_two(self, capsys):
        assert main(["chaos", "replay", "/no/such/bundle.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestChaosReport:
    def test_report_summarises_run(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "chaos", "run", "--cells", "4", "--chaos-seed", "11",
            "--report-json", str(report_path),
        ]) == 0
        capsys.readouterr()
        code = main(["chaos", "report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "4/4 cells survived" in out
        assert "breaker trips" in out


class TestKillRestart:
    """``repro chaos kill-restart`` — the durability chaos cell
    (docs/DURABILITY.md)."""

    def test_cell_passes_and_reports(self, capsys, tmp_path):
        report_path = tmp_path / "kr.json"
        code = main([
            "chaos", "kill-restart",
            "--num-jobs", "6", "--fleet-seed", "7",
            "--replica", "U280", "--replica", "U50",
            "--crashes", "1", "--corrupt", "torn-write",
            "--no-fsync",
            "--workdir", str(tmp_path / "wd"),
            "--report-json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "kill-restart PASSED" in out
        assert "oracles: lost=0 duplicates=0" in out
        data = json.loads(report_path.read_text())
        assert data["passed"] is True
        assert data["equivalent"] is True
        assert data["restarts"] >= 1
        assert (tmp_path / "wd" / "fleet.journal").exists()

    def test_bad_corrupt_spec_returns_2(self, capsys, tmp_path):
        code = main([
            "chaos", "kill-restart", "--num-jobs", "2",
            "--corrupt", "gamma-ray", "--workdir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "gamma-ray" in err

    def test_bad_corrupt_target_returns_2(self, capsys, tmp_path):
        code = main([
            "chaos", "kill-restart", "--num-jobs", "2",
            "--corrupt", "bit-flip@ramdisk", "--workdir", str(tmp_path),
        ])
        assert code == 2
        assert "ramdisk" in capsys.readouterr().err

    def test_target_outside_the_cell_returns_2(self, capsys, tmp_path):
        code = main([
            "chaos", "kill-restart", "--num-jobs", "2",
            "--corrupt", "bit-flip@traffic", "--no-fsync",
            "--workdir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "traffic" in captured.err
        assert "PASSED" not in captured.out

    def test_parser_accepts_all_options(self):
        args = build_parser().parse_args([
            "chaos", "kill-restart", "--num-jobs", "12",
            "--fleet-seed", "3", "--replica", "U280",
            "--intensity", "heavy", "--kills", "1", "--crashes", "3",
            "--corrupt", "bit-flip:4@store", "--iterations", "20",
            "--buffer-vertices", "128", "--pipelines", "2",
            "--workdir", "wd", "--no-fsync", "--report-json", "r.json",
        ])
        assert args.chaos_command == "kill-restart"
        assert args.crashes == 3
        assert args.corrupt == ["bit-flip:4@store"]
