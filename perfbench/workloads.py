"""The benchmark's three workloads, driven only through public entry points.

Each workload is a closed loop with a fixed, seeded op sequence: the op
count depends only on ``--seconds``, never on how fast ops complete, and
warm-up ops come from a seed disjoint from the timed ones and are the
same in every run.  Every op's output is checked; simulated statistics
(props digest, total cycles, iterations) are deterministic, so they are
the correctness oracle, never performance metrics.

* ``cli_run``   — the ``repro run`` shape: load_dataset, preprocess, one
  app, on ~1-2 M-edge Table III stand-ins (checked against pins.json).
* ``analytics`` — preprocess once, run many: five apps rerun to
  convergence on already-lowered plans (checked against pins.json).
* ``serve_http`` — ``repro serve`` in a child process, one client
  POSTing fleet-soak-shaped jobs and streaming each to its terminal
  state (checked against an in-process ``KernelSession.replay``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import layers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS_PATH = Path(__file__).resolve().with_name("pins.json")

#: ``--seed`` selects one of this many pinned input sets (seed mod slots).
PIN_SLOTS = 16
#: Never used while the benchmark was tuned; verify later claims on it.
HELD_OUT_SEED = 15
#: Graph seed of every warm-up input (timed inputs use slot + 1).
WARMUP_GRAPH_SEED = 10_007

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# -- cli_run ------------------------------------------------------------
#: (dataset, scale, platform, app).  R21 is RMAT (Big-heavier plans),
#: TC power-law (Little-heavy); each case costs 0.8-1.2 s on one core.
#: An odd case count and an odd number of cycles put the median inside
#: one case's cluster of samples instead of on the gap between two.
CLI_CASES: Tuple[Tuple[str, float, str, str], ...] = (
    ("R21", 1 / 64, "U280", "pagerank"),
    ("TC", 1 / 16, "U50", "pagerank"),
    ("R21", 1 / 64, "U50", "bfs"),
    ("TC", 1 / 16, "U280", "bfs"),
    ("TC", 1 / 16, "U50", "closeness"),
)
CLI_BUFFER_VERTICES = 2048          # the `repro run` default
CLI_ITERATION_CAP = 10
CLI_WARMUP_SHRINK = 1 / 8           # warm-up: same cases, 8x smaller
CLI_OPS_PER_SECOND = 1.0            # nominal; sizes the fixed op count
CLI_IMPORT_SAMPLES = 7

# -- analytics ----------------------------------------------------------
ANALYTICS_GRAPHS = (("R19", 1 / 64), ("HD", 1 / 64), ("AM", 1 / 16),
                    ("GG", 1 / 16), ("PK", 1 / 128))
ANALYTICS_WARMUP_GRAPHS = (("R19", 1 / 256), ("GG", 1 / 64))
ANALYTICS_APPS = ("pagerank", "delta-pagerank", "bfs", "closeness", "wcc")
ANALYTICS_PLATFORM = "U280"
ANALYTICS_SETUPS = 3
ANALYTICS_OPS_PER_SECOND = 40.0

# -- serve_http ---------------------------------------------------------
SERVE_APPS = ("pagerank", "bfs", "closeness", "sssp", "wcc")
SERVE_GRAPH_KINDS = ("rmat", "powerlaw", "uniform")
SERVE_WARMUP_JOBS = 20
SERVE_SETUPS = 3
SERVE_OPS_PER_SECOND = 40.0
SERVE_API_KEY = "demo-key"
TERMINAL = ("completed", "rejected", "failed")


@dataclass
class Measurement:
    """What one run of a workload observed."""

    latencies: List[float] = field(default_factory=list)
    phase_seconds: float = 0.0
    setup_seconds: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs only).
    layers: Optional[Dict[str, float]] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def op_count(seconds: int, rate: float, cycle: int) -> int:
    """Fixed op count for a run: ``seconds * rate`` rounded to an odd
    number of whole cycles of the workload's case list, at least 20 ops."""
    cycles = max(round(seconds * rate / cycle), math.ceil(20 / cycle))
    return (cycles | 1) * cycle


def slot_of(seed: int) -> int:
    return seed % PIN_SLOTS


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def observe(run) -> list:
    """The deterministic simulated outputs of one run: props digest,
    total cycles (exact, as float.hex) and iteration count."""
    props = np.ascontiguousarray(run.props)
    digest = hashlib.sha256(
        str(props.dtype).encode() + props.tobytes()
    ).hexdigest()[:32]
    return [digest, float(run.total_cycles).hex(), int(run.iterations)]


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def check(pins: Dict[str, list], key: str, observed: list) -> str:
    """'' when ``observed`` matches the pin under ``key``."""
    expected = pins.get(key)
    if expected is None:
        return f"{key}: no pinned value"
    if list(expected) != list(observed):
        return f"{key}: expected {expected}, got {observed}"
    return ""


def timed_phase(
    run_op: Callable[[int], Tuple[float, str]],
    ops: int,
    m: Measurement,
) -> float:
    """Run ops 0..ops-1; record latencies and failures; return wall."""
    start = time.perf_counter()
    for i in range(ops):
        latency, problem = run_op(i)
        m.latencies.append(latency)
        if problem:
            m.fail(problem)
    return time.perf_counter() - start


def traced_passes(
    run_op: Callable[[int], Tuple[float, str]],
    ops: int,
    m: Measurement,
) -> None:
    """Traced pass, then the same ops untraced for the overhead figure.

    The untraced pass runs second, over caches the traced pass warmed,
    so ``trace.overhead_share`` is an upper bound.
    """
    rec = layers.recorder()
    window = layers.StatsWindow()
    with rec:
        timed_phase(run_op, ops, m)
    traced_wall = sum(m.latencies)
    counters = window.ratios()
    untraced = Measurement()
    timed_phase(run_op, ops, untraced)
    m.failed += untraced.failed
    m.problems.extend(untraced.problems)
    m.layers = layers.layer_metrics(
        rec, ops, traced_wall, counters, sum(untraced.latencies)
    )
    m.notes.append("untraced targets: " + (", ".join(rec.untraced) or "none"))


# ---------------------------------------------------------------------------
# cli_run
# ---------------------------------------------------------------------------
def cli_case_run(case, graph_seed: int, shrink: float = 1.0):
    """One ``repro run``: load_dataset -> preprocess -> one app."""
    from repro.arch.config import PipelineConfig
    from repro.core.framework import ReGraph
    from repro.graph.datasets import load_dataset

    key, scale, platform, app = case
    graph = load_dataset(key, scale=scale * shrink, seed=graph_seed)
    framework = ReGraph(
        platform,
        pipeline=PipelineConfig(gather_buffer_vertices=CLI_BUFFER_VERTICES),
    )
    pre = framework.preprocess(graph)
    hub = int(np.argmax(graph.out_degrees()))
    if app == "pagerank":
        return framework.run_pagerank(pre, max_iterations=CLI_ITERATION_CAP)
    if app == "bfs":
        return framework.run_bfs(
            pre, root=hub, max_iterations=CLI_ITERATION_CAP
        )
    return framework.run_closeness(
        pre, root=hub, max_iterations=CLI_ITERATION_CAP
    )


def cli_pins(graph_seed: int, shrink: float = 1.0) -> Dict[str, list]:
    return {
        str(i): observe(cli_case_run(case, graph_seed, shrink))
        for i, case in enumerate(CLI_CASES)
    }


def import_seconds(samples: int) -> List[float]:
    """Wall time of fresh interpreters importing ``repro.cli``."""
    env = child_env()
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env, cwd=ROOT, check=True,
        )
        out.append(time.perf_counter() - start)
    return out


def run_cli(seed: int, seconds: int, trace: bool, tiny: bool = False,
            pins: Optional[dict] = None) -> Measurement:
    pins = pins or load_pins()["cli_run"]
    m = Measurement()
    m.setup_seconds = import_seconds(2 if tiny else CLI_IMPORT_SAMPLES)

    for i, case in enumerate(CLI_CASES):
        run = cli_case_run(case, WARMUP_GRAPH_SEED, CLI_WARMUP_SHRINK)
        problem = check(pins["warmup"], str(i), observe(run))
        if problem:
            m.fail("warm-up " + problem)

    if tiny:
        graph_seed, shrink, table = (
            WARMUP_GRAPH_SEED, CLI_WARMUP_SHRINK, pins["warmup"]
        )
    else:
        slot = slot_of(seed)
        graph_seed, shrink, table = slot + 1, 1.0, pins[str(slot)]

    def op(i: int) -> Tuple[float, str]:
        case = i % len(CLI_CASES)
        start = time.perf_counter()
        run = cli_case_run(CLI_CASES[case], graph_seed, shrink)
        latency = time.perf_counter() - start
        return latency, check(table, str(case), observe(run))

    ops = op_count(seconds, CLI_OPS_PER_SECOND, len(CLI_CASES))
    if trace:
        traced_passes(op, ops, m)
    else:
        m.phase_seconds = timed_phase(op, ops, m)
    m.peak_rss_mb = self_peak_rss_mb()
    m.notes.append(f"cli_run: {ops} ops over {len(CLI_CASES)} cases, "
                   f"graph seed {graph_seed}")
    return m


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------
def analytics_build(graphs, graph_seed: int):
    """Build + preprocess the graph set; (framework, [(key, pre, hub)])."""
    from repro.arch.config import PipelineConfig
    from repro.core.framework import ReGraph
    from repro.graph.datasets import load_dataset

    framework = ReGraph(
        ANALYTICS_PLATFORM,
        pipeline=PipelineConfig(gather_buffer_vertices=CLI_BUFFER_VERTICES),
    )
    prepared = []
    for key, scale in graphs:
        graph = load_dataset(key, scale=scale, seed=graph_seed)
        pre = framework.preprocess(graph)
        hub = pre.to_internal_vertex(int(np.argmax(graph.out_degrees())))
        prepared.append((key, pre, hub))
    return framework, prepared


def analytics_pairs(prepared) -> List[Tuple[str, object, int, str]]:
    return [
        (key, pre, hub, app)
        for key, pre, hub in prepared
        for app in ANALYTICS_APPS
    ]


def analytics_run(framework, pre, hub: int, app: str):
    """Rerun one app to convergence on an already-preprocessed graph."""
    from repro.apps.registry import get_app_spec

    spec = get_app_spec(app)
    return framework.run(pre, lambda graph: spec.build(graph, root=hub))


def analytics_pins(graphs, graph_seed: int) -> Dict[str, list]:
    framework, prepared = analytics_build(graphs, graph_seed)
    return {
        f"{key}/{app}": observe(analytics_run(framework, pre, hub, app))
        for key, pre, hub, app in analytics_pairs(prepared)
    }


def run_analytics(seed: int, seconds: int, trace: bool, tiny: bool = False,
                  pins: Optional[dict] = None) -> Measurement:
    pins = pins or load_pins()["analytics"]
    m = Measurement()

    def checked_pass(framework, pairs, table, label: str) -> None:
        for key, pre, hub, app in pairs:
            problem = check(
                table, f"{key}/{app}",
                observe(analytics_run(framework, pre, hub, app)),
            )
            if problem:
                m.fail(f"{label} {problem}")

    framework, prepared = analytics_build(
        ANALYTICS_WARMUP_GRAPHS, WARMUP_GRAPH_SEED
    )
    checked_pass(framework, analytics_pairs(prepared), pins["warmup"],
                 "warm-up")

    if tiny:
        graphs, graph_seed, table = (
            ANALYTICS_WARMUP_GRAPHS, WARMUP_GRAPH_SEED, pins["warmup"]
        )
    else:
        slot = slot_of(seed)
        graphs, graph_seed, table = ANALYTICS_GRAPHS, slot + 1, pins[str(slot)]
    # Set-up = build + preprocess + the lowering run of every pair,
    # repeated; the last set-up's plans serve the timed ops.
    for _ in range(1 if tiny else ANALYTICS_SETUPS):
        start = time.perf_counter()
        framework, prepared = analytics_build(graphs, graph_seed)
        pairs = analytics_pairs(prepared)
        checked_pass(framework, pairs, table, "set-up")
        m.setup_seconds.append(time.perf_counter() - start)

    def op(i: int) -> Tuple[float, str]:
        key, pre, hub, app = pairs[i % len(pairs)]
        start = time.perf_counter()
        run = analytics_run(framework, pre, hub, app)
        latency = time.perf_counter() - start
        return latency, check(table, f"{key}/{app}", observe(run))

    ops = op_count(seconds, ANALYTICS_OPS_PER_SECOND, len(pairs))
    if trace:
        traced_passes(op, ops, m)
    else:
        m.phase_seconds = timed_phase(op, ops, m)
    m.peak_rss_mb = self_peak_rss_mb()
    m.notes.append(f"analytics: {ops} ops over {len(pairs)} (graph, app) "
                   f"pairs, graph seed {graph_seed}")
    return m


# ---------------------------------------------------------------------------
# serve_http
# ---------------------------------------------------------------------------
def _fault_plan(rng: np.random.Generator, num_pipelines: int = 4) -> dict:
    """A moderate, survivable fault plan (the fleet-soak envelope)."""
    plan = {"seed": int(rng.integers(1, 1_000_000)), "dead_channels": [],
            "latency_spikes": [], "bit_flips": [], "stalls": []}
    channels = 2 * num_pipelines
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.uniform()
        if kind < 0.15 and not plan["dead_channels"]:
            plan["dead_channels"].append({
                "channel": int(rng.integers(channels)),
                "onset_cycle": float(rng.uniform(0, 5_000)),
            })
        elif kind < 0.45:
            plan["latency_spikes"].append({
                "channel": int(rng.integers(channels)),
                "onset_cycle": float(rng.uniform(0, 5_000)),
                "duration_cycles": float(rng.uniform(10_000, 80_000)),
                "multiplier": float(rng.uniform(4.0, 16.0)),
            })
        elif kind < 0.7:
            plan["bit_flips"].append({
                "probability": float(rng.uniform(0.002, 0.01)),
                "detectable": True,
                "onset_cycle": 0.0,
            })
        else:
            plan["stalls"].append({
                "probability": float(rng.uniform(0.05, 0.25)),
                "pipeline": int(rng.integers(num_pipelines)),
                "onset_cycle": 0.0,
            })
    return plan


#: One block of the job stream: every (app, graph kind, faulty?) once.
SERVE_STRATA = [
    (app, kind, faulty)
    for app in SERVE_APPS
    for kind in SERVE_GRAPH_KINDS
    for faulty in (False, True)
]


def serve_payloads(seed: int, count: int, prefix: str) -> List[dict]:
    """Fleet-soak-shaped job payloads: small graphs over the five
    campaign apps, half with fault plans, a third with deadlines.

    The stream is stratified in blocks of ``len(SERVE_STRATA)`` jobs:
    each block holds every (app, graph kind, faulty) combination once,
    evenly spaced graph sizes and a third of deadlines, shuffled by the
    seed.  Seeds then change which graphs and faults a run sees, not
    its mix.  The warm-up stream ("warm" prefix) draws from its own RNG
    stream, so no ``--seed`` reproduces it.
    """
    rng = np.random.default_rng([int(prefix == "warm"), seed])
    block = len(SERVE_STRATA)
    payloads = []
    while len(payloads) < count:
        vertices = rng.permutation(np.linspace(256, 1024, block).astype(int))
        degree = rng.permutation(np.resize(np.arange(4, 11), block))
        deadlines = rng.permutation(np.arange(block) < block // 3)
        for j, k in enumerate(rng.permutation(block)):
            app, kind, faulty = SERVE_STRATA[k]
            graph = {
                "kind": kind,
                "vertices": int(vertices[j]),
                "edges": int(vertices[j] * degree[j]),
                "seed": int(rng.integers(1, 1_000_000)),
                "exponent": float(rng.uniform(1.6, 2.0)),
                "weighted": app == "sssp",
            }
            plan = _fault_plan(rng) if faulty else {
                "seed": 0, "dead_channels": [], "latency_spikes": [],
                "bit_flips": [], "stalls": [],
            }
            payloads.append({
                "job_id": f"{prefix}-{len(payloads):05d}",
                "app": app,
                "graph": graph,
                "root": 0,
                "max_iterations": 30,
                "priority": int(rng.integers(0, 3)),
                "deadline_seconds": (
                    float(rng.uniform(0.002, 0.02)) if deadlines[j] else None
                ),
                "submit_time": 0.0,
                "fault_plan": plan,
            })
    return payloads[:count]


def serving_config(store: Path, traffic: Path):
    """The ServingConfig `repro serve` builds from its default flags."""
    from repro.serving import ServingConfig

    return ServingConfig(store_path=str(store), traffic_path=str(traffic))


async def http_call(port: int, method: str, path: str,
                    body: Optional[dict] = None) -> Tuple[int, bytes]:
    """One HTTP/1.1 request on a fresh connection; (status, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        data = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Authorization: Bearer {SERVE_API_KEY}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
        )
        writer.write(head.encode() + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    if b"transfer-encoding: chunked" in head.lower():
        chunks = []
        while payload:
            size_line, _, rest = payload.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            chunks.append(rest[:size])
            payload = rest[size + 2:]
        payload = b"".join(chunks)
    return status, payload


async def serve_job(port: int, payload: dict) -> Tuple[float, Optional[dict], str]:
    """POST one job, stream it to a terminal state.

    Returns (client latency, terminal result dict, problem)."""
    start = time.perf_counter()
    status, body = await http_call(port, "POST", "/v1/jobs", payload)
    if status != 202:
        return time.perf_counter() - start, None, f"POST -> {status}"
    job_id = payload["job_id"]
    status, body = await http_call(port, "GET", f"/v1/jobs/{job_id}/stream")
    latency = time.perf_counter() - start
    if status != 200:
        return latency, None, f"stream {job_id} -> {status}"
    last = json.loads(body.splitlines()[-1])
    if last.get("status") not in TERMINAL:
        return latency, None, f"{job_id} ended non-terminal: {last}"
    return latency, last.get("result"), ""


async def serve_stream(port: int, payloads: List[dict], m: Measurement,
                       results: Dict[str, dict]) -> float:
    start = time.perf_counter()
    for payload in payloads:
        latency, result, problem = await serve_job(port, payload)
        m.latencies.append(latency)
        if problem:
            m.fail(problem)
        elif result is not None:
            results[payload["job_id"]] = result
    return time.perf_counter() - start


async def report_digest(port: int) -> str:
    status, body = await http_call(port, "GET", "/v1/report")
    return json.loads(body).get("digest", "") if status == 200 else ""


def start_server(workdir: Path, tag: str) -> Tuple[subprocess.Popen, int, float]:
    """Start ``repro serve --port 0`` with durable files; (proc, port,
    seconds until it listens)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(workdir / f"{tag}.sqlite"),
         "--record", str(workdir / f"{tag}.traffic.jsonl")],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"repro serve exited: {proc.wait()}")
            if line.startswith("serving on http://"):
                port = int(line.split()[2].rsplit(":", 1)[1])
                return proc, port, time.perf_counter() - start
    except BaseException:
        stop_server(proc)
        raise


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM (graceful drain) and wait; returns the remaining output."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


def check_serving(m: Measurement, payloads: List[dict],
                  passes: List[Tuple[Dict[str, dict], str]]) -> None:
    """Compare served results + report digests with a replay."""
    from repro.serving import KernelSession

    config = serving_config(Path("unused.sqlite"), Path("unused.jsonl"))
    expected: Dict[str, object] = {}
    session = KernelSession(config.session_spec()).replay(payloads, expected)
    digest = session.digest()
    for results, served_digest in passes:
        for payload in payloads:
            job_id = payload["job_id"]
            want = expected[job_id]
            got = results.get(job_id)
            if got is None:
                continue  # already counted as a failed op
            if got.get("status") != "completed":
                m.fail(f"{job_id}: status {got.get('status')}")
            elif (got.get("result_digest") != want.result_digest
                    or got.get("status") != want.status):
                m.fail(f"{job_id}: result_digest {got.get('result_digest')}"
                       f" != replay {want.result_digest}")
        if served_digest != digest:
            m.fail(f"/v1/report digest {served_digest} != replay {digest}")


def filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (as ``stat -f`` reports it)."""
    proc = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


async def in_process_pass(workdir: Path, tag: str, warm: List[dict],
                          timed: List[dict], m: Measurement,
                          rec=None) -> Tuple[Dict[str, dict], str, dict]:
    """Host the gateway + HTTP server in this process and serve the
    stream over loopback; the recorder (if any) traces the timed jobs."""
    from repro.serving import HttpServer, ServingGateway

    gateway = ServingGateway(serving_config(
        workdir / f"{tag}.sqlite", workdir / f"{tag}.traffic.jsonl"
    ))
    results: Dict[str, dict] = {}
    fleet: dict = {}
    try:
        server = HttpServer(gateway, "127.0.0.1", 0)
        await server.start()
        warm_m = Measurement()
        await serve_stream(server.port, warm, warm_m, results)
        for problem in warm_m.problems:
            m.fail("warm-up " + problem)
        before = gateway.session.report().counters.get("hedges", 0)
        if rec is not None:
            rec.install()
        try:
            await serve_stream(server.port, timed, m, results)
        finally:
            if rec is not None:
                rec.uninstall()
        report = gateway.session.report()
        timed_ids = {p["job_id"] for p in timed}
        attempts = [j.attempts for j in report.jobs if j.job_id in timed_ids]
        fleet = {
            "fleet.attempts_per_job": sum(attempts) / max(len(attempts), 1),
            "fleet.hedges": report.counters.get("hedges", 0) - before,
        }
        digest = await report_digest(server.port)
        await server.stop()
        await gateway.drain()
    finally:
        gateway.close()
    return results, digest, fleet


def run_serve(seed: int, seconds: int, trace: bool, tiny: bool = False,
              pins: Optional[dict] = None) -> Measurement:
    m = Measurement()
    workdir = WORK / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    warm = serve_payloads(WARMUP_GRAPH_SEED, SERVE_WARMUP_JOBS, "warm")
    count = 20 if tiny else op_count(
        seconds, SERVE_OPS_PER_SECOND, len(SERVE_STRATA)
    )
    timed = serve_payloads(seed, count, f"s{seed}")
    m.notes.append(f"serve_http: {count} jobs (+{len(warm)} warm-up), "
                   f"durable files on {filesystem_of(workdir)}")
    try:
        if trace:
            rec = layers.recorder()
            window = layers.StatsWindow()
            traced, digest, fleet = asyncio.run(
                in_process_pass(workdir, "traced", warm, timed, m, rec)
            )
            counters = window.ratios()
            traced_wall = sum(m.latencies)
            untraced = Measurement()
            plain, plain_digest, _ = asyncio.run(
                in_process_pass(workdir, "untraced", warm, timed, untraced)
            )
            m.failed += untraced.failed
            m.problems.extend(untraced.problems)
            check_serving(m, warm + timed,
                          [(traced, digest), (plain, plain_digest)])
            execute_ms = rec.totals["serving.execute"].inclusive_ns / 1e6
            counters.update(fleet)
            counters["serving.wait_ms"] = (
                (traced_wall * 1e3 - execute_ms) / len(timed)
            )
            m.layers = layers.layer_metrics(
                rec, len(timed), traced_wall, counters,
                sum(untraced.latencies),
            )
            m.notes.append(
                "untraced targets: " + (", ".join(rec.untraced) or "none")
            )
            return m

        for rep in range(1 if tiny else SERVE_SETUPS - 1):
            proc, _, seconds_to_listen = start_server(workdir, f"setup{rep}")
            m.setup_seconds.append(seconds_to_listen)
            stop_server(proc)
        proc, port, seconds_to_listen = start_server(workdir, "timed")
        m.setup_seconds.append(seconds_to_listen)
        results: Dict[str, dict] = {}
        try:
            async def client() -> Tuple[float, str]:
                warm_m = Measurement()
                await serve_stream(port, warm, warm_m, results)
                for problem in warm_m.problems:
                    m.fail("warm-up " + problem)
                phase = await serve_stream(port, timed, m, results)
                return phase, await report_digest(port)

            m.phase_seconds, digest = asyncio.run(client())
        finally:
            tail = stop_server(proc)
        if proc.returncode != 0:
            m.fail(f"repro serve exited {proc.returncode}: {tail.strip()}")
        m.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        check_serving(m, warm + timed, [(results, digest)])
        return m
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


WORKLOADS = {
    "cli_run": run_cli,
    "analytics": run_analytics,
    "serve_http": run_serve,
}

