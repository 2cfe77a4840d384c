"""Old files still replay: committed durable files pin their outcomes.

Every file under ``tests/fixtures/`` was written by an earlier build of
the program (``tests/fixtures/README.md`` gives each recipe).  Each test
replays, resumes or re-reads one of them from a tmp copy and pins the
digest and counters that build printed, so a change to a decoder, a
record shape or the simulator that would strand files already on disk
fails here.  The committed bytes are never touched.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from repro.chaos.fleet_soak import FleetSoakResult
from repro.cli import main
from repro.fleet.report import FleetReport
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.gateway import ServingGateway

FIXTURES_DIR = Path(__file__).parent / "fixtures"

#: sha256 of every committed fixture, as generated.
FIXTURE_SHA256 = {
    "chaos/campaign.json":
        "b985e2339de5175c819dc881736d377523f207e8b31a38c361ea0c3ff0d40990",
    "chaos/regress-0.repro.json":
        "00fc522883949eed204189c5a31600ebe4a02dea66c366a674bb960000e8e741",
    "fleet/fleet.journal":
        "c388c1011790060d4358c41e4fb77ffb700ded2c7665923da5e15aba478803e8",
    "fleet/report.json":
        "caea4ec9e2498546e6a3b83488a03da73a98ae3ad56d7dc9222c9c5203d5744a",
    "fleet/results.jsonl":
        "d06936b3f9ca70c575cf991316f9110c190393227159541ea87c103e9a20721a",
    "fleet/soak.json":
        "76e190a746cfeaa49db1afee8928a36f7e3190b1769a1f5c139efd20fc786039",
    "graph/small.el":
        "927c1836594f1c2d952edbad0f220c73c065092c46313d441d66a47607917219",
    "serve/jobs.jsonl":
        "11024bafd2d589e5c24de8bddd9163728e3680c2a9e3b9b1a1623b502fff7634",
    "serve/traffic.jsonl":
        "1d9e8783ca5d92e71360bd11b4eb4414e521197d005e48a43f4c3e3fd79a350d",
    "traffic/seed1.jsonl":
        "2574d6fe5039e94d1abf5177073b7d885f6dac398e3c5f38001be4aa522e112a",
}

TRAFFIC_DIGEST = (
    "664421b9136feb20df655edc3aa787c9f7fb390cf2a02a49b6fbc198aa1b9a7a"
)
RESUMED_FLEET_DIGEST = (
    "ebf22b797df8cb8da1e788762baed48f68fbbf1e69818b38ce6983a48e830efc"
)
SOAK_DIGEST = (
    "7e0747e09aebe573547d4f7fca432b16cad3c9ea531d43044f531175b066b3b3"
)
SERVE_DIGEST = (
    "9dcb3b86002ccb6ebb28f61e31262ac0300536956dfba89036835ca781f9099f"
)
CHAOS_DIGEST = (
    "b8d78d7d8f7b5829ec54252285a7612558f8e5cbdbccb648f1eafb5c7e490cb9"
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def serve_config(workdir: Path) -> ServingConfig:
    """The serving config the ``serve/`` fixture was recorded under."""
    return ServingConfig(
        devices=("U280", "U280", "U50"),
        buffer_vertices=256,
        num_pipelines=4,
        tenants=(TenantSpec(name="chaos", api_key="chaos-key"),),
        store_path=str(workdir / "jobs.jsonl"),
        traffic_path=str(workdir / "traffic.jsonl"),
        fsync=False,
    )


def resume_gateway(workdir: Path) -> tuple:
    """(recovery stats, drain summary) of a gateway resumed on workdir."""
    async def run():
        gateway = ServingGateway(
            serve_config(workdir), resume=True, wall=lambda: 0.0
        )
        try:
            stats = dict(gateway.recovery_stats)
            return stats, await gateway.drain()
        finally:
            gateway.close()

    return asyncio.run(run())


@pytest.fixture
def fixture_copy(tmp_path):
    """Copy one fixture directory into tmp_path; return the copy."""
    def copy(name: str) -> Path:
        return Path(shutil.copytree(FIXTURES_DIR / name, tmp_path / name))

    return copy


def test_fixtures_are_the_committed_bytes():
    found = {
        str(p.relative_to(FIXTURES_DIR)): sha256(p)
        for p in sorted(FIXTURES_DIR.rglob("*"))
        if p.is_file() and p.name != "README.md"
    }
    assert found == FIXTURE_SHA256


def test_traffic_bundle_replays_its_digest(fixture_copy):
    bundle = fixture_copy("traffic") / "seed1.jsonl"
    code, out, _ = run_cli(["traffic", "replay", bundle])
    assert code == 0
    assert "3 accepted job(s)" in out
    assert f"replayed digest: {TRAFFIC_DIGEST}" in out
    assert "reproduced the live digest bit-for-bit" in out

    code, out, _ = run_cli(["traffic", "show", bundle])
    assert code == 0
    assert f"digest:   {TRAFFIC_DIGEST}" in out


def test_crashed_fleet_journal_resumes(fixture_copy):
    workdir = fixture_copy("fleet")
    report_path = workdir / "resumed.json"
    code, out, _ = run_cli([
        "fleet", "resume", workdir / "fleet.journal",
        "--store", workdir / "results.jsonl", "--no-fsync",
        "--report-json", report_path,
    ])
    assert code == 0
    assert "fleet: 6/6 jobs completed" in out
    assert (
        "durability: 2 result(s) restored from store, 2 replay "
        "duplicate(s) suppressed, 0 divergence(s)"
    ) in out
    resumed = json.loads(report_path.read_text())
    assert FleetReport.from_dict(resumed).digest() == RESUMED_FLEET_DIGEST
    assert resumed == json.loads((workdir / "report.json").read_text())


@pytest.mark.parametrize("name, digest", [
    ("report.json", RESUMED_FLEET_DIGEST), ("soak.json", SOAK_DIGEST),
])
def test_fleet_report_files_reread(name, digest, fixture_copy):
    path = fixture_copy("fleet") / name
    data = json.loads(path.read_text())
    if "report" in data:
        loaded = FleetSoakResult.from_dict(data)
        assert loaded.report.digest() == digest
    else:
        loaded = FleetReport.from_dict(data)
        assert loaded.digest() == digest
    assert loaded.to_dict() == data
    for command in ("report", "status"):
        code, out, _ = run_cli(["fleet", command, path])
        assert code == 0, out


def test_crashed_job_store_resumes(fixture_copy):
    workdir = fixture_copy("serve")
    stats, summary = resume_gateway(workdir)
    assert stats == {
        "accepts_restored": 5,
        "accepts_merged_from_traffic": 0,
        "results_restored": 2,
        "duplicates_suppressed": 2,
        "replay_divergences": 0,
    }
    assert summary == {
        "drained": True, "outstanding": [], "served": 5,
        "digest": SERVE_DIGEST,
    }


def test_chaos_bundle_reproduces(fixture_copy):
    bundle = fixture_copy("chaos") / "regress-0.repro.json"
    code, out, _ = run_cli(["chaos", "replay", bundle])
    assert code == 0
    assert f"actual digest:   {CHAOS_DIGEST}" in out
    assert "failure reproduced bit-for-bit" in out


def test_chaos_campaign_report_rereads(fixture_copy):
    report = fixture_copy("chaos") / "campaign.json"
    code, out, _ = run_cli(["chaos", "report", report])
    assert code == 0
    assert "chaos campaign: 3/3 cells survived" in out
    assert "faults absorbed: 1 bit-flip, 2 dead-channel" in out
