"""Bad-input contract: a malformed request is refused, never a crash.

Three front doors take untrusted input: the serving gateway's job
payloads, the CLI's argv and the files commands read back.  Each
property starts from a valid request or a committed file and breaks one
field at a time, drawing only values that are wrong: wrong types,
NaN/inf, negatives, zero where at least one is required, and sizes
beyond the admission bound.  A large *valid* value is never drawn: it
would only scale the work (``--jobs`` even starts worker processes),
and no test here may build an oversize graph.

* A served payload either gets a 400 with nothing but the store's
  ``jobstore-begin`` record on disk, or it is accepted and finishes as a
  typed terminal :class:`~repro.fleet.job.JobResult`; the kernel worker
  survives either way and serves the next valid job.  A value of the
  wrong JSON type is always a 400.
* A CLI invocation exits 0, 1, 2 or 3 and never prints a traceback.
* A committed file under ``tests/fixtures/`` with one field of one
  CRC-valid record broken (for the edge list: one cell, or its
  ``# vertices:`` header) is refused or served by every command that
  reads it, under the CLI's exit codes; a refused file keeps its bytes.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import copy
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.durable import Record, read_log
from repro.errors import UserInputError
from repro.fleet.job import JOB_STATUSES, Job
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.gateway import ServingGateway
from repro.serving.http import status_for

from tests.test_golden_fixtures import FIXTURES_DIR, resume_gateway, sha256

REPO = Path(__file__).resolve().parents[1]

CONTRACT = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Bad values, by what the field requires
# ----------------------------------------------------------------------
WRONG_TYPES = st.sampled_from(["abc", "", [1], {"a": 1}, None])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE_INTS = st.integers(min_value=-10**6, max_value=-1)
NEGATIVE_FLOATS = st.floats(
    min_value=-1e6, max_value=-1e-6, allow_nan=False
)

#: Any integer field: never a float (not even a whole one past the
#: wire check), a string or a container.
BAD_INT = WRONG_TYPES | NON_FINITE | st.sampled_from([2.5, True])
BAD_FLOAT = WRONG_TYPES | NON_FINITE | st.sampled_from([True, False])
BAD_BOOL = WRONG_TYPES | st.sampled_from([0, 1, "false", 1.0])


def _bad(kind: str) -> st.SearchStrategy:
    """Wrong values for one field kind."""
    if kind == "count>=1":  # iteration caps, sizes
        return BAD_INT | NEGATIVE_INTS | st.just(0)
    if kind == "index>=0":  # roots, channels, pipelines, seeds
        return BAD_INT | NEGATIVE_INTS
    if kind == "int":  # priority: any integer is valid
        return BAD_INT
    if kind == "time>0":
        return BAD_FLOAT | NEGATIVE_FLOATS | st.just(0.0)
    if kind == "time>=0":
        return BAD_FLOAT | NEGATIVE_FLOATS
    if kind == "probability":
        return BAD_FLOAT | NEGATIVE_FLOATS | st.sampled_from([1.5, 7.0])
    if kind == "factor>=1":
        return BAD_FLOAT | NEGATIVE_FLOATS | st.sampled_from([0.0, 0.5])
    if kind == "bool":
        return BAD_BOOL
    if kind == "str":
        return st.sampled_from([5, 2.5, [1], {"a": 1}, None])
    if kind == "object":
        return st.sampled_from(["abc", 5, [1], None])
    if kind == "list":
        return st.sampled_from(["abc", 5, {"a": 1}, [1], [None]])
    raise AssertionError(kind)


# ----------------------------------------------------------------------
# Served payloads
# ----------------------------------------------------------------------
#: A tiny valid payload carrying one fault of every kind, so every
#: fault-model field has something to break.
BASE_PAYLOAD = {
    "job_id": "probe",
    "app": "pagerank",
    "graph": {
        "kind": "powerlaw", "vertices": 64, "edges": 256, "seed": 3,
        "exponent": 1.8, "weighted": False,
    },
    "root": 0,
    "max_iterations": 5,
    "priority": 0,
    "deadline_seconds": 1.0,
    "submit_time": 0.0,
    "fault_plan": {
        "seed": 1,
        "dead_channels": [{"channel": 1, "onset_cycle": 0.0}],
        "latency_spikes": [{
            "channel": 2, "onset_cycle": 0.0, "duration_cycles": 1000.0,
            "multiplier": 2.0,
        }],
        "bit_flips": [
            {"probability": 0.01, "detectable": True, "onset_cycle": 0.0}
        ],
        "stalls": [
            {"probability": 0.05, "pipeline": 0, "onset_cycle": 0.0}
        ],
    },
}

#: A follow-up job the worker must still serve after any bad payload.
NEXT_PAYLOAD = {
    "job_id": "next",
    "app": "pagerank",
    "graph": {"kind": "uniform", "vertices": 32, "edges": 96, "seed": 1},
    "max_iterations": 3,
}

#: field path -> kind of value it requires.  Oversize entries are the
#: admission bound: the vertex-ID contract and the HBM rule.
PAYLOAD_FIELDS = {
    ("job_id",): "str",
    ("app",): "str",
    ("root",): "index>=0",
    ("max_iterations",): "count>=1",
    ("priority",): "int",
    ("deadline_seconds",): "time>0",
    ("submit_time",): "time>=0",
    ("graph",): "object",
    ("graph", "kind"): "str",
    ("graph", "vertices"): "count>=1",
    ("graph", "edges"): "count>=1",
    ("graph", "seed"): "index>=0",
    ("graph", "exponent"): "factor>=1",
    ("graph", "weighted"): "bool",
    ("fault_plan",): "object",
    ("fault_plan", "seed"): "index>=0",
    ("fault_plan", "dead_channels"): "list",
    ("fault_plan", "dead_channels", 0, "channel"): "index>=0",
    ("fault_plan", "dead_channels", 0, "onset_cycle"): "time>=0",
    ("fault_plan", "latency_spikes"): "list",
    ("fault_plan", "latency_spikes", 0, "channel"): "index>=0",
    ("fault_plan", "latency_spikes", 0, "onset_cycle"): "time>=0",
    ("fault_plan", "latency_spikes", 0, "duration_cycles"): "time>0",
    ("fault_plan", "latency_spikes", 0, "multiplier"): "factor>=1",
    ("fault_plan", "bit_flips"): "list",
    ("fault_plan", "bit_flips", 0, "probability"): "probability",
    ("fault_plan", "bit_flips", 0, "detectable"): "bool",
    ("fault_plan", "bit_flips", 0, "onset_cycle"): "time>=0",
    ("fault_plan", "stalls"): "list",
    ("fault_plan", "stalls", 0, "probability"): "probability",
    ("fault_plan", "stalls", 0, "pipeline"): "index>=0",
    ("fault_plan", "stalls", 0, "onset_cycle"): "time>=0",
}

#: The JSON type each field kind takes; anything else is a 400.
JSON_TYPES = {
    "count>=1": (int,), "index>=0": (int,), "int": (int,),
    "time>0": (int, float), "time>=0": (int, float),
    "probability": (int, float), "factor>=1": (int, float),
    "bool": (bool,), "str": (str,), "object": (dict,), "list": (list,),
}

#: Fields where ``null`` is a valid value, not a wrong type.
NULLABLE = {
    ("max_iterations",), ("deadline_seconds",),
    ("fault_plan", "stalls", 0, "pipeline"),
}

#: The served pool's pipelines (``ServingConfig``'s default): pipeline
#: ``g`` owns channels ``2g`` and ``2g + 1``.
POOL_PIPELINES = 4

#: Fault ids the pool does not have start here; any integer at or above
#: its limit must be a 400, never an accepted job whose fault never fires.
POOL_LIMITS = {
    ("fault_plan", "dead_channels", 0, "channel"): 2 * POOL_PIPELINES,
    ("fault_plan", "latency_spikes", 0, "channel"): 2 * POOL_PIPELINES,
    ("fault_plan", "stalls", 0, "pipeline"): POOL_PIPELINES,
}

OVERSIZE = {
    ("root",): st.sampled_from([64, 10**12]),
    ("graph", "vertices"): st.sampled_from([2**32 + 1, 2**40]),
    ("graph", "edges"): st.sampled_from([10**12, 2**62]),
    **{
        path: st.sampled_from([limit, limit + 1, 10**6])
        for path, limit in POOL_LIMITS.items()
    },
}


@st.composite
def mutated_payloads(draw):
    """The base payload with exactly one field broken."""
    path = draw(st.sampled_from(sorted(PAYLOAD_FIELDS, key=str)))
    values = _bad(PAYLOAD_FIELDS[path])
    if path in OVERSIZE:
        values = values | OVERSIZE[path]
    payload = copy.deepcopy(BASE_PAYLOAD)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(values)
    return path, payload


def _wrong_json_type(path: tuple, payload: dict) -> bool:
    """Whether the field at ``path`` holds a value of the wrong JSON
    type (``true`` is not a number, nor ``2.0`` an integer)."""
    value = payload
    for key in path:
        value = value[key]
    if value is None:
        return path not in NULLABLE
    return type(value) not in JSON_TYPES[PAYLOAD_FIELDS[path]]


def _outside_pool(path: tuple, payload: dict) -> bool:
    """Whether ``payload`` names a fault id the pool does not have."""
    if path not in POOL_LIMITS:
        return False
    value = payload
    for key in path:
        value = value[key]
    return type(value) is int and value >= POOL_LIMITS[path]


def _serve_one(workdir: Path, payload: dict, refused: bool = False) -> None:
    """Submit ``payload``; ``refused`` requires the 400."""
    store = workdir / "jobs.jsonl"

    async def run():
        gateway = ServingGateway(ServingConfig(
            devices=("U50",),
            num_pipelines=POOL_PIPELINES,
            tenants=(TenantSpec(name="t", api_key="k"),),
            store_path=str(store),
            fsync=False,
        ))
        try:
            try:
                ack = await gateway.submit("k", payload)
            except UserInputError as exc:
                assert status_for(exc) == 400
                assert [r.type for r in read_log(store).records] == [
                    "jobstore-begin"
                ]
                job_id = None
            else:
                assert not refused, f"acked a payload it must refuse: {ack}"
                assert ack["status"] == "accepted"
                job_id = ack["job_id"]
            await gateway.submit("k", NEXT_PAYLOAD)
            await gateway.drain()
            if job_id is not None:
                result = gateway.status(job_id)["result"]
                assert result["status"] in JOB_STATUSES
                assert result["status"] == "completed" or (
                    result["error_type"]
                )
            assert gateway.status("next")["status"] == "completed"
        finally:
            gateway.close()

    asyncio.run(run())


_runs = itertools.count()


@CONTRACT
@given(case=mutated_payloads())
def test_bad_payload_is_a_400_or_a_typed_result(case, tmp_path_factory):
    path, payload = case
    workdir = tmp_path_factory.mktemp(f"payload{next(_runs)}")
    _serve_one(workdir, payload, refused=(
        _outside_pool(path, payload) or _wrong_json_type(path, payload)
    ))


@pytest.mark.parametrize("path, value", [
    # Each was accepted, or a bare TypeError, before payloads were
    # decoded from the Job declaration.
    (("job_id",), 5),
    (("submit_time",), None),
    (("submit_time",), "1.5"),
    (("fault_plan", "dead_channels", 0, "onset_cycle"), True),
    (("fault_plan", "latency_spikes", 0, "duration_cycles"), None),
    (("fault_plan", "stalls", 0, "probability"), None),
    (("fault_plan", "bit_flips", 0, "probability"), "0.5"),
    # Undeclared keys, at top level and inside a fault.
    (("tenant",), "t"),
    (("fault_plan", "stalls", 0, "channel"), 1),
    (("graph", "directed"), True),
], ids=str)
def test_wrong_type_or_undeclared_key_is_a_400(path, value, tmp_path):
    payload = copy.deepcopy(BASE_PAYLOAD)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(UserInputError, match=str(path[-1])):
        Job.from_dict(payload)  # the 400 names the field
    _serve_one(tmp_path, payload, refused=True)


@pytest.mark.parametrize("path", sorted(POOL_LIMITS), ids=lambda p: p[1])
def test_fault_ids_outside_the_pool_are_a_400(path, tmp_path):
    # The last id of the pool is served; the first one past it is a 400
    # with nothing but the store header on disk.
    for offset, workdir in ((-1, tmp_path / "last"), (0, tmp_path / "past")):
        payload = copy.deepcopy(BASE_PAYLOAD)
        payload["fault_plan"][path[1]][0][path[3]] = POOL_LIMITS[path] + offset
        workdir.mkdir()
        _serve_one(
            workdir, payload, refused=_outside_pool(path, payload)
        )


def test_base_payload_is_served(tmp_path):
    # The property is vacuous unless the unbroken payload is accepted.
    _serve_one(tmp_path, copy.deepcopy(BASE_PAYLOAD))


# ----------------------------------------------------------------------
# CLI argv
# ----------------------------------------------------------------------
def _base_argv(command: str, workdir: Path) -> list:
    """A tiny valid invocation of ``command`` writing under workdir."""
    dataset = ["--dataset", "HD", "--scale", "0.02",
               "--buffer-vertices", "256", "--pipelines", "4"]
    fresh = str(workdir / f"out{next(_runs)}")
    return {
        "run": ["run", *dataset, "--iterations", "2"],
        "preprocess": ["preprocess", *dataset],
        "sweep": ["sweep", *dataset],
        "faultsim": ["faultsim", *dataset, "--iterations", "2",
                     "--stall-rate", "0.01", "--spike-channel", "1"],
        "check": ["check", "--app", "pagerank", "--quick"],
        "chaos run": ["chaos", "run", "--cells", "1", "--no-shrink",
                      "--max-probes", "2"],
        "chaos kill-restart": ["chaos", "kill-restart", "--num-jobs", "2",
                               "--crashes", "1", "--no-fsync",
                               "--workdir", fresh],
        "chaos serve-kill": ["chaos", "serve-kill", "--num-jobs", "2",
                             "--crash-after", "1", "--no-fsync",
                             "--workdir", fresh],
        "fleet run": ["fleet", "run", "--num-jobs", "2",
                      "--replica", "U280"],
        "traffic record": ["traffic", "record", fresh + ".jsonl",
                           "--num-jobs", "2", "--no-fsync"],
        "serve": ["serve", "--port", "0", "--no-fsync"],
    }[command]


def _numeric_flags():
    """(command, flag, type) for every int/float option of the CLI."""
    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from walk(sub, prefix + (name,))
                return
        for action in parser._actions:
            if action.option_strings and action.type in (int, float):
                yield " ".join(prefix), action.option_strings[0], action.type

    return list(walk(build_parser(), ()))


NUMERIC_FLAGS = _numeric_flags()
#: Flags where zero is valid (ports pick a free one; seeds and start
#: offsets may be zero); zero is drawn only where >= 1 is required.
ZERO_ALLOWED = {
    "--port", "--seed", "--fleet-seed", "--chaos-seed", "--fault-seed",
    "--root", "--onset", "--kills", "--dead-channel", "--stall-pipeline",
    "--spike-channel", "--bit-flip-rate", "--stall-rate",
    "--crash-after", "--max-probes", "--retries",
}


@st.composite
def mutated_argv(draw):
    command, flag, kind = draw(st.sampled_from(NUMERIC_FLAGS))
    bad = ["abc", "", "-1", "-7", "nan", "inf", "-inf"]
    if kind is int:
        bad += ["2.5", "1e3"]
    if flag not in ZERO_ALLOWED:
        bad += ["0"]
    return command, flag, draw(st.sampled_from(bad))


def _run_cli(argv: list) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, err.getvalue()


def _run_serve(argv: list) -> tuple:
    # A serve that accepted its flags would listen until signalled: run
    # it as a child with a timeout, so a regression fails, not hangs.
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=60, cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"repro {' '.join(argv)} started serving")
    return proc.returncode, proc.stderr


@CONTRACT
@given(case=mutated_argv())
def test_bad_cli_number_exits_with_a_contract_code(case):
    command, flag, value = case
    with tempfile.TemporaryDirectory() as workdir:
        argv = _base_argv(command, Path(workdir)) + [flag, value]
        run = _run_serve if command == "serve" else _run_cli
        code, stderr = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    if command == "serve":
        # Every drawn serve value is invalid, and serving would hang.
        assert code == 2, (argv, stderr)


def test_every_numeric_flag_has_a_base():
    with tempfile.TemporaryDirectory() as workdir:
        for command, _, _ in NUMERIC_FLAGS:
            assert _base_argv(command, Path(workdir))


@pytest.mark.parametrize("argv", [
    # ReGraph took 0 as "all the port budget allows".
    ["run", "--dataset", "HD", "--scale", "0.02", "--pipelines", "0"],
    # The fleet, chaos, serve and traffic parsers turned 0 into 4.
    ["fleet", "run", "--num-jobs", "1", "--pipelines", "0"],
    ["chaos", "run", "--cells", "1", "--pipelines", "0"],
    ["traffic", "record", "{tmp}/t.jsonl", "--num-jobs", "1",
     "--pipelines", "0"],
    # The U280's port budget allows 14 pipelines, not 99.
    ["run", "--dataset", "HD", "--scale", "0.02", "--pipelines", "99"],
])
def test_pipelines_outside_the_device_exit_2(argv, tmp_path):
    code, stderr = _run_cli([a.format(tmp=tmp_path) for a in argv])
    assert code == 2, stderr
    assert "num_pipelines" in stderr


def test_serve_pipelines_outside_the_device_exit_2():
    for value in ("0", "99"):
        code, stderr = _run_serve(
            ["serve", "--port", "0", "--no-fsync", "--pipelines", value]
        )
        assert code == 2, stderr


# ----------------------------------------------------------------------
# Files a command reads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_report_json(tmp_path_factory) -> dict:
    """A real ``fleet run --report-json`` file, as parsed JSON."""
    path = tmp_path_factory.mktemp("fleet") / "report.json"
    code, stderr = _run_cli(
        _base_argv("fleet run", path.parent) + ["--report-json", str(path)]
    )
    assert code == 0, stderr
    return json.loads(path.read_text())


@pytest.mark.parametrize("command", ["report", "status"])
@pytest.mark.parametrize("field, value", [
    ("retired_reason", None), ("retired_reason", -1),
    ("retired_reason", 1e308), ("jobs_completed", "3"),
    ("open_breakers", True), ("killed", 0),
])
def test_malformed_replica_row_exits_2(
    fleet_report_json, command, field, value, tmp_path
):
    data = copy.deepcopy(fleet_report_json)
    data["report"]["replicas"][0][field] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(data))
    code, stderr = _run_cli(["fleet", command, str(path)])
    assert code == 2, stderr
    assert field in stderr and "Traceback" not in stderr


# ----------------------------------------------------------------------
# Committed durable files, one field broken
# ----------------------------------------------------------------------
def _set(node, path: tuple, value) -> None:
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _nodes(node, path=()):
    """The path of every value under ``node`` (itself excluded)."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _wrong_types(value) -> list:
    """Values of every JSON type ``value`` does not have."""
    if isinstance(value, bool):
        return [0, "true", None]
    if isinstance(value, int):
        return [True, 2.5, "7", None]
    if isinstance(value, float):
        return [True, "0.5", None, [1.0]]
    if isinstance(value, str):
        return [5, 1e308, None, ["x"], {}]
    if isinstance(value, list):
        return ["x", 5, {}]
    if isinstance(value, dict):
        return ["x", 5, []]
    return ["x", 1.5, [1], {"x": 1}]  # null


def _mutate_log(path: Path, index: int, field: tuple, value) -> None:
    """Break ``field`` of the ``index``-th record of a durable log and
    re-encode the line's CRC, so the record still verifies."""
    lines = path.read_text().splitlines(keepends=True)
    fields = json.loads(lines[index])
    _set(fields, ("payload",) + field, value)
    lines[index] = Record(
        fields["seq"], fields["type"], fields["payload"]
    ).line()
    path.write_text("".join(lines))


def _mutate_json(path: Path, field: tuple, value) -> None:
    data = json.loads(path.read_text())
    _set(data, field, value)
    path.write_text(json.dumps(data))


#: Wrong cells of an edge list: ``None`` drops the column.
BAD_CELLS = ["x", "1.5", "-1", "", None]
#: Wrong ``# vertices:`` header counts.
BAD_HEADERS = ["banana", "-3", "2.5", "1", ""]


def _mutate_edges(path: Path, index: int, field: tuple, value) -> None:
    """Break one cell of an edge list (field ``(column,)``), or its
    ``# vertices:`` header (field ``("vertices",)``)."""
    lines = path.read_text().splitlines()
    if field == ("vertices",):
        lines[index] = f"# vertices: {value}"
    else:
        cells = lines[index].split()
        if value is None:
            del cells[field[0]]
        else:
            cells[field[0]] = value
        lines[index] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edge_fields(path: Path) -> list:
    """(line index, field) of the header and of every cell."""
    lines = path.read_text().splitlines()
    return [(0, ("vertices",))] + [
        (index, (column,))
        for index, line in enumerate(lines)
        if not line.startswith("#")
        for column in range(len(line.split()))
    ]


def _log_fields(path: Path) -> list:
    """(record index, payload field path) of every field of a log."""
    return [
        (index, field)
        for index, line in enumerate(path.read_text().splitlines())
        for field in _nodes(json.loads(line)["payload"])
    ]


def _resume_gateway(workdir: Path) -> int:
    """Resume a gateway over ``workdir``: 0 served, 2 refused (typed).

    A resume that serves must restore every acknowledged job: a broken
    record may be refused, never skipped at the cost of an accept."""
    try:
        stats, _ = resume_gateway(workdir)
    except UserInputError:
        return 2
    assert stats["accepts_restored"] == 5, stats
    return 0


#: target -> (fixture directory, mutated file, how the file is broken,
#: the runs over the broken copy).  A run maps the copy's directory to
#: ``(exit code, stderr)``.
FILE_TARGETS = {
    "traffic": ("traffic", "seed1.jsonl", "log", [
        lambda d: _run_cli(["traffic", "replay", str(d / "seed1.jsonl")]),
        lambda d: _run_cli(["traffic", "show", str(d / "seed1.jsonl")]),
    ]),
    "journal": ("fleet", "fleet.journal", "log", [
        lambda d: _run_cli([
            "fleet", "resume", str(d / "fleet.journal"),
            "--store", str(d / "results.jsonl"), "--no-fsync",
        ]),
    ]),
    "fleet-store": ("fleet", "results.jsonl", "log", [
        lambda d: _run_cli([
            "fleet", "resume", str(d / "fleet.journal"),
            "--store", str(d / "results.jsonl"), "--no-fsync",
        ]),
    ]),
    "report": ("fleet", "report.json", "json", [
        lambda d: _run_cli(["fleet", "report", str(d / "report.json")]),
        lambda d: _run_cli(["fleet", "status", str(d / "report.json")]),
    ]),
    "soak-report": ("fleet", "soak.json", "json", [
        lambda d: _run_cli(["fleet", "report", str(d / "soak.json")]),
        lambda d: _run_cli(["fleet", "status", str(d / "soak.json")]),
    ]),
    "campaign-report": ("chaos", "campaign.json", "json", [
        lambda d: _run_cli(["chaos", "report", str(d / "campaign.json")]),
    ]),
    "chaos-bundle": ("chaos", "regress-0.repro.json", "json", [
        lambda d: _run_cli(
            ["chaos", "replay", str(d / "regress-0.repro.json")]
        ),
    ]),
    "edge-list": ("graph", "small.el", "edges", [
        lambda d: _run_cli([
            "run", "--edge-list", str(d / "small.el"), "--platform", "U50",
            "--pipelines", "2", "--buffer-vertices", "16",
        ]),
    ]),
    "job-store": ("serve", "jobs.jsonl", "log", [
        lambda d: (_resume_gateway(d), ""),
    ]),
    "serve-bundle": ("serve", "traffic.jsonl", "log", [
        lambda d: (_resume_gateway(d), ""),
    ]),
}


def _fields(target: str) -> list:
    directory, name, layout, _ = FILE_TARGETS[target]
    path = FIXTURES_DIR / directory / name
    if layout == "log":
        return _log_fields(path)
    if layout == "edges":
        return _edge_fields(path)
    return [(None, field) for field in _nodes(json.loads(path.read_text()))]


@st.composite
def broken_files(draw):
    """One field of one committed file, and a wrong-typed value."""
    target = draw(st.sampled_from(sorted(FILE_TARGETS)))
    index, field = draw(st.sampled_from(_fields(target)))
    directory, name, layout, _ = FILE_TARGETS[target]
    path = FIXTURES_DIR / directory / name
    if layout == "edges":
        bad = BAD_HEADERS if field == ("vertices",) else BAD_CELLS
        return target, index, field, draw(st.sampled_from(bad))
    if layout == "log":
        node = json.loads(path.read_text().splitlines()[index])["payload"]
    else:
        node = json.loads(path.read_text())
    for key in field:
        node = node[key]
    return target, index, field, draw(st.sampled_from(_wrong_types(node)))


def _run_broken(target, index, field, value, workdir: Path) -> int:
    """Break one field of a copy of the target's fixture and run every
    command over it; returns the first command's exit code."""
    directory, name, layout, runs = FILE_TARGETS[target]
    committed = {
        p: sha256(p) for p in (FIXTURES_DIR / directory).iterdir()
    }
    workcopy = Path(
        shutil.copytree(FIXTURES_DIR / directory, workdir / directory)
    )
    broken = workcopy / name
    if layout == "log":
        _mutate_log(broken, index, field, value)
    elif layout == "edges":
        _mutate_edges(broken, index, field, value)
    else:
        _mutate_json(broken, field, value)
    codes = []
    for run in runs:
        before = sha256(broken)
        code, stderr = run(workcopy)
        assert code in (0, 1, 2, 3), (target, field, value, code, stderr)
        assert "Traceback" not in stderr, (target, field, value, stderr)
        if code == 2:
            # A refused file keeps its bytes.
            assert sha256(broken) == before, (target, field, value)
        codes.append(code)
    assert {p: sha256(p) for p in committed} == committed
    return codes[0]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=broken_files())
def test_broken_committed_file_is_refused_or_served(case, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(f"file{next(_runs)}")
    _run_broken(*case, workdir)


@pytest.mark.parametrize("target, index, field, value", [
    # Each of these was a traceback, or silently resumed, before every
    # file was decoded from its type declaration.
    ("traffic", 1, ("job", "submit_time"), None),
    ("journal", 0, ("pool", 1, "device"), 1e308),
    ("journal", 0, ("pool", 1, "device"), {}),
    ("journal", 0, ("pool", 0, "buffer_vertices"), "256"),
    ("journal", 0, ("jobs", 0, "job_id"), {}),
    # A malformed accept dropped its acknowledged job from replay and
    # resume; every field of an accept now refuses the file alike.
    ("traffic", 1, ("wall",), "x"),
    ("serve-bundle", 2, ("tenant",), 5),
    ("job-store", 3, ("wall",), None),
    ("job-store", 4, ("accept_seq",), "4"),
    # A campaign report's health blocks were free-form dicts, read with
    # ``.get`` on whatever the faults list held.
    ("campaign-report", None, ("results", 0, "health", "faults", 0), 5),
    # An edge list with a dropped column, a non-integer or negative ID,
    # or a header that is not a vertex count.
    ("edge-list", 1, (1,), None),
    ("edge-list", 2, (0,), "x"),
    ("edge-list", 3, (1,), "-1"),
    ("edge-list", 0, ("vertices",), "banana"),
], ids=["submit_time-null", "device-1e308", "device-object",
        "buffer_vertices-string", "job_id-object", "accept-wall-string",
        "bundle-accept-tenant-number", "store-accept-wall-null",
        "store-accept-seq-string", "campaign-fault-number",
        "edge-dropped-column", "edge-non-integer", "edge-negative-id",
        "edge-bad-header"])
def test_known_bad_files_exit_2(target, index, field, value, tmp_path):
    assert _run_broken(target, index, field, value, tmp_path) == 2
