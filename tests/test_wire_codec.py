"""One wire codec: a record re-encodes to exactly what it decodes from.

Every record class that mixes in :class:`~repro.utils.wire.Wire` is
found by walking the ``repro`` package, so a new record class is
covered without editing this file: its samples are the instances a
small fleet soak, a chaos campaign and ``generate_cells`` produce, or
``cls()`` when it has defaults for every field.  Each sample must
survive ``to_dict`` -> JSON -> ``from_dict`` unchanged, and re-encode
to the same JSON text.

The committed files under ``tests/fixtures/`` hold payloads written by
an earlier build; each must decode and re-encode to itself, or the
encoder has drifted from what is already on disk.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil

import pytest

import repro
from repro.chaos.bundle import ReproBundle
from repro.chaos.campaign import CampaignReport, run_campaign
from repro.chaos.fleet_soak import (
    FleetSoakConfig,
    FleetSoakResult,
    generate_jobs,
    run_fleet_soak,
)
from repro.chaos.generate import CampaignConfig, generate_cells
from repro.chaos.kill_restart import KillRestartConfig
from repro.chaos.serve_kill import ServeKillConfig
from repro.durable import CorruptRecord
from repro.faults.plan import FaultPlan, StorageFault
from repro.fleet.job import Job, JobResult
from repro.fleet.report import FleetReport
from repro.fleet.runtime import FleetPolicy
from repro.runtime.host import HostTimingConfig
from repro.serving.config import TenantSpec
from repro.utils.wire import Wire, decode

from tests.test_golden_fixtures import FIXTURES_DIR


def _wire_classes() -> list:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    found, stack = set(), [Wire]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found and sub.__module__.startswith("repro."):
                found.add(sub)
                stack.append(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


WIRE_CLASSES = _wire_classes()

#: Records that no soak or campaign holds, or holds only with
#: defaults: storage faults, and classes that need arguments.
EXTRA_SAMPLES = [
    FaultPlan(seed=3, storage=(StorageFault("bit-flip", record=2),)),
    KillRestartConfig(
        soak=FleetSoakConfig(jobs=4, seed=7),
        storage_faults=(
            StorageFault("torn-write"),
            StorageFault("bit-flip", record=4, target="store"),
        ),
        fsync=False,
    ),
    ServeKillConfig(
        storage_fault=StorageFault("partial-fsync", target="traffic")
    ),
    TenantSpec.parse("acme:s3cret:50:8"),
    TenantSpec(name="free", api_key="k"),
    CorruptRecord(line_number=3, reason="crc mismatch", raw='{"seq": 3'),
    HostTimingConfig.instant(),
]


def _collect(value, into: dict) -> None:
    """Every Wire record reachable from ``value``, by class."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _collect(item, into)
    elif isinstance(value, dict):
        for item in value.values():
            _collect(item, into)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        if isinstance(value, Wire):
            into.setdefault(type(value), []).append(value)
        for f in dataclasses.fields(value):
            _collect(getattr(value, f.name), into)


@pytest.fixture(scope="module")
def samples() -> dict:
    soak = FleetSoakConfig(
        jobs=6, seed=11, random_kills=1, replicas=("U280", "U50")
    )
    campaign = CampaignConfig(seed=5, cells=3, intensity="heavy")
    found: dict = {}
    _collect([
        run_fleet_soak(soak),
        generate_jobs(soak),
        campaign,
        run_campaign(campaign, shrink_failures=False),
        generate_cells(CampaignConfig(seed=5, cells=6, intensity="heavy")),
        EXTRA_SAMPLES,
    ], found)
    return found


@pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda c: c.__name__)
def test_record_round_trips_through_json(cls, samples):
    records = samples.get(cls)
    if records is None:
        try:
            records = [cls()]
        except TypeError:
            pytest.fail(
                f"{cls.__name__} has no sample: add one to EXTRA_SAMPLES"
            )
    for record in records:
        text = json.dumps(record.to_dict())
        back = cls.from_dict(json.loads(text))
        assert back == record
        assert json.dumps(back.to_dict()) == text


def test_the_walk_finds_the_records():
    names = {cls.__name__ for cls in WIRE_CLASSES}
    assert {
        "Job", "JobResult", "FaultPlan", "FleetReport", "FleetSoakResult",
        "CampaignConfig", "KillRestartConfig", "TenantSpec", "RepairReport",
    } <= names


def _log(name: str) -> list:
    """(type, payload) of every record of a committed log."""
    lines = (FIXTURES_DIR / name).read_text().splitlines()
    return [
        (fields["type"], fields["payload"])
        for fields in map(json.loads, lines)
    ]


def _fixture(name: str):
    return json.loads((FIXTURES_DIR / name).read_text())


LOGS = [
    "fleet/fleet.journal", "fleet/results.jsonl", "serve/jobs.jsonl",
    "serve/traffic.jsonl", "traffic/seed1.jsonl",
]


def test_golden_jobs_and_results_re_encode_to_themselves():
    jobs = results = 0
    for name in LOGS:
        for rtype, payload in _log(name):
            if rtype == "accept":
                job = payload["job"]
                assert Job.from_dict(job).to_dict() == job
                jobs += 1
            elif rtype == "result":
                result = payload["result"]
                assert JobResult.from_dict(result).to_dict() == result
                results += 1
            elif rtype == "run-begin":
                for job in payload["jobs"]:
                    assert Job.from_dict(job).to_dict() == job
                policy = payload["policy"]
                assert FleetPolicy.from_dict(policy).to_dict() == policy
                for replica in payload["pool"]:
                    timing = replica["timing"]
                    back = HostTimingConfig.from_dict(timing)
                    assert back.to_dict() == timing
    assert (jobs, results) == (13, 11)


@pytest.mark.parametrize("name, cls", [
    ("chaos/campaign.json", CampaignReport),
    ("fleet/report.json", FleetReport),
    ("fleet/soak.json", FleetSoakResult),
])
def test_golden_report_files_re_encode_to_themselves(name, cls):
    data = _fixture(name)
    assert cls.from_dict(data).to_dict() == data


def test_golden_repro_bundle_re_encodes_to_itself():
    data = _fixture("chaos/regress-0.repro.json")
    bundle = decode(ReproBundle, data, "bundle")
    for key in ("cell", "policy", "shrunk_plan"):
        assert bundle[key].to_dict() == data[key]
