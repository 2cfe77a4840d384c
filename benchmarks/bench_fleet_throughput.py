"""Fleet-throughput benchmark: pool-size scaling of the serving runtime.

Serves one fixed, seeded job stream (clean jobs, all submitted at t=0 so
the pool is the only bottleneck) through fleets of 1, 2 and 4 replicas
and reports jobs per *virtual* second plus p50/p99 modelled latency per
pool size.  The gates: a 4-replica pool must deliver > 1.5x the
single-replica throughput — placement and dispatch must actually use
the extra cards, not serialise onto one — and the scale-out gate holds
1 -> 4 replicas to >= 3x virtual throughput, so added capacity is real
capacity.

A second benchmark prices durability (``docs/DURABILITY.md``): the same
stream served with the write-ahead journal and result store attached.
Gate: without per-append fsync the *wall-clock* throughput cost stays
<= 15% of the in-memory run, and the report digest is bit-identical.
``pytest benchmarks --journal`` additionally measures the full
fsync-per-append contract, which is reported but never gated — fsync
latency is a property of the host's storage, not of this code.

Besides the human-readable tables, the scaling benchmark persists a
machine-readable ``results/BENCH_fleet.json`` (schema
``regraph-bench-fleet/v1``, the ``BENCH_compiled.json`` precedent):
p50/p99 modelled latency per pool size, the 1->4 throughput scaling
ratio and the shed/hedge counters of a deliberately overloaded run —
the numbers regression dashboards diff across commits.
"""

import json
import time
from pathlib import Path

from repro.chaos.spec import GraphSpec
from repro.fleet import (
    FleetPolicy,
    FleetRuntime,
    JobJournal,
    Job,
    ResultStore,
    make_replica,
)
from repro.reporting import format_table, write_report

POOL_SIZES = (1, 2, 4)
#: Devices by pool position: mixed U280/U50, like a real deployment.
POOL_DEVICES = ("U280", "U50", "U280", "U50")
NUM_JOBS = 24
JOB_APPS = ("pagerank", "bfs", "closeness", "wcc")
ITERATIONS = 8
MIN_SPEEDUP_1_TO_4 = 1.5
#: Scale-out gate: 4 replicas must deliver >= 3x the single-replica
#: virtual throughput.
SCALEOUT_MIN_SPEEDUP_1_TO_4 = 3.0

#: Versioned machine-readable output (the BENCH_compiled.json twin).
BENCH_FLEET_SCHEMA = "regraph-bench-fleet/v1"
BENCH_FLEET_JSON = Path(__file__).parent / "results" / "BENCH_fleet.json"

#: Overload scenario: the same stream squeezed through 2 replicas
#: behind a shallow admission queue, with deadlines that arm hedging.
OVERLOAD_QUEUE_DEPTH = 6
OVERLOAD_POOL_SIZE = 2
OVERLOAD_DEADLINE_SECONDS = 0.004


def _jobs():
    return [
        Job(
            job_id=f"bench{i:03d}",
            app=JOB_APPS[i % len(JOB_APPS)],
            graph=GraphSpec(
                kind="uniform",
                vertices=512 + 128 * (i % 3),
                edges=(512 + 128 * (i % 3)) * 6,
                seed=100 + i,
            ),
            max_iterations=ITERATIONS,
            submit_time=0.0,
        )
        for i in range(NUM_JOBS)
    ]


def _serve(pool_size: int):
    pool = [
        make_replica(f"r{i}", POOL_DEVICES[i % len(POOL_DEVICES)])
        for i in range(pool_size)
    ]
    runtime = FleetRuntime(
        pool, FleetPolicy(max_queue_depth=NUM_JOBS, hedge_enabled=False)
    )
    return runtime.run(_jobs())


def _overload_jobs():
    """The bench stream with a deadline on every other job."""
    from dataclasses import replace

    jobs = []
    for i, job in enumerate(_jobs()):
        if i % 2 == 0:
            job = replace(
                job, deadline_seconds=OVERLOAD_DEADLINE_SECONDS
            )
        jobs.append(job)
    return jobs


def _serve_overloaded():
    """Shallow queue + t=0 burst: sheds on purpose."""
    pool = [
        make_replica(f"r{i}", POOL_DEVICES[i % len(POOL_DEVICES)])
        for i in range(OVERLOAD_POOL_SIZE)
    ]
    runtime = FleetRuntime(
        pool,
        FleetPolicy(
            max_queue_depth=OVERLOAD_QUEUE_DEPTH, hedge_enabled=True
        ),
    )
    return runtime.run(_overload_jobs())


#: Hedge scenario: staggered arrivals on a 4-replica pool with
#: deadlines tighter than one service time, so every deadline job's
#: predicted finish misses and a backup replica is idle to race it.
HEDGE_POOL_SIZE = 4
HEDGE_SUBMIT_SPACING = 0.001
HEDGE_DEADLINE_SECONDS = 0.00002


def _serve_hedged():
    from dataclasses import replace

    pool = [
        make_replica(f"r{i}", POOL_DEVICES[i % len(POOL_DEVICES)])
        for i in range(HEDGE_POOL_SIZE)
    ]
    runtime = FleetRuntime(
        pool, FleetPolicy(max_queue_depth=NUM_JOBS, hedge_enabled=True)
    )
    jobs = [
        replace(
            job,
            submit_time=i * HEDGE_SUBMIT_SPACING,
            deadline_seconds=HEDGE_DEADLINE_SECONDS,
        )
        for i, job in enumerate(_jobs())
    ]
    return runtime.run(jobs)


def _pool_stats(report) -> dict:
    latency = report.latency_percentiles()
    return {
        "completed": report.completed,
        "jobs_per_second_virtual": report.jobs_per_second,
        "makespan_seconds": report.makespan_seconds,
        "p50_latency_seconds": latency["p50"],
        "p99_latency_seconds": latency["p99"],
    }


def _write_bench_json(reports, overload_report, hedge_report) -> None:
    counters = overload_report.counters
    hedge_counters = hedge_report.counters
    payload = {
        "schema": BENCH_FLEET_SCHEMA,
        "jobs": NUM_JOBS,
        "iterations": ITERATIONS,
        "pool_devices": list(POOL_DEVICES),
        "pools": {
            str(size): _pool_stats(reports[size]) for size in POOL_SIZES
        },
        "scaling_ratio_1_to_4": (
            reports[4].jobs_per_second / reports[1].jobs_per_second
        ),
        "overload": {
            "replicas": OVERLOAD_POOL_SIZE,
            "max_queue_depth": OVERLOAD_QUEUE_DEPTH,
            "deadline_seconds": OVERLOAD_DEADLINE_SECONDS,
            **_pool_stats(overload_report),
            "shed": overload_report.rejected,
            "admission": dict(overload_report.admission),
            "hedges": counters.get("hedges", 0),
            "hedge_wins": counters.get("hedge_wins", 0),
        },
        "hedged": {
            "replicas": HEDGE_POOL_SIZE,
            "submit_spacing_seconds": HEDGE_SUBMIT_SPACING,
            "deadline_seconds": HEDGE_DEADLINE_SECONDS,
            **_pool_stats(hedge_report),
            "hedges": hedge_counters.get("hedges", 0),
            "hedge_wins": hedge_counters.get("hedge_wins", 0),
        },
    }
    BENCH_FLEET_JSON.parent.mkdir(parents=True, exist_ok=True)
    with open(BENCH_FLEET_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_fleet_throughput_scaling(benchmark):
    reports = {}
    extra = []

    def run_all():
        reports.clear()
        extra.clear()
        for size in POOL_SIZES:
            reports[size] = _serve(size)
        extra.append(_serve_overloaded())
        extra.append(_serve_hedged())
        return reports

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for size in POOL_SIZES:
        report = reports[size]
        latency = report.latency_percentiles()
        rows.append([
            str(size),
            f"{report.completed}/{NUM_JOBS}",
            f"{report.jobs_per_second:,.0f}",
            f"{report.makespan_seconds * 1e3:.2f}",
            f"{latency['p50'] * 1e3:.2f}",
            f"{latency['p99'] * 1e3:.2f}",
        ])
    text = format_table(
        ["replicas", "completed", "jobs/s (virtual)", "makespan ms",
         "p50 ms", "p99 ms"],
        rows,
        title=f"fleet throughput: {NUM_JOBS} clean jobs, "
              f"pool sizes {'/'.join(map(str, POOL_SIZES))}",
    )
    write_report("fleet_throughput", text)

    for size, report in reports.items():
        assert report.completed == NUM_JOBS, (size, report.to_dict())
        assert report.passed, size
    # The scaling gate: 4 replicas must beat 1 by a real margin.
    speedup = reports[4].jobs_per_second / reports[1].jobs_per_second
    assert speedup > MIN_SPEEDUP_1_TO_4, (
        f"1 -> 4 replicas sped throughput up only {speedup:.2f}x"
    )
    assert speedup >= SCALEOUT_MIN_SPEEDUP_1_TO_4, (
        f"1 -> 4 replicas scaled only {speedup:.2f}x "
        f"(gate: {SCALEOUT_MIN_SPEEDUP_1_TO_4:.1f}x)"
    )
    # More replicas never slows the fleet down.
    assert reports[2].jobs_per_second >= reports[1].jobs_per_second

    # The versioned machine-readable record (regraph-bench-fleet/v1).
    overload_report, hedge_report = extra
    _write_bench_json(reports, overload_report, hedge_report)
    data = json.loads(BENCH_FLEET_JSON.read_text())
    assert data["schema"] == BENCH_FLEET_SCHEMA
    assert data["scaling_ratio_1_to_4"] > MIN_SPEEDUP_1_TO_4
    # The shallow queue must actually shed under a t=0 burst; every
    # non-shed job still finishes (shedding is the only loss mode).
    assert data["overload"]["shed"] > 0, overload_report.to_dict()
    assert (
        overload_report.completed + overload_report.rejected == NUM_JOBS
    ), overload_report.to_dict()
    # Impossible deadlines + idle backups must arm hedged execution.
    assert data["hedged"]["hedges"] > 0, hedge_report.to_dict()
    print(f"BENCH_fleet.json: scaling {data['scaling_ratio_1_to_4']:.2f}x, "
          f"overload shed {data['overload']['shed']}, "
          f"hedges {data['hedged']['hedges']} "
          f"({data['hedged']['hedge_wins']} won)")


JOURNAL_POOL_SIZE = 2
#: Wall-clock rounds per mode; min-of-rounds damps scheduler noise.
JOURNAL_ROUNDS = 3
MAX_JOURNAL_OVERHEAD = 0.15


def _serve_durable(workdir, fsync):
    """One journaled+stored serve; ``workdir=None`` is the in-memory run."""
    pool = [
        make_replica(f"r{i}", POOL_DEVICES[i % len(POOL_DEVICES)])
        for i in range(JOURNAL_POOL_SIZE)
    ]
    journal = store = None
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        journal = JobJournal(workdir / "fleet.journal", fsync=fsync)
        store = ResultStore(workdir / "results.jsonl", fsync=fsync)
    runtime = FleetRuntime(
        pool,
        FleetPolicy(max_queue_depth=NUM_JOBS, hedge_enabled=False),
        journal=journal,
        store=store,
    )
    report = runtime.run(_jobs())
    if journal is not None:
        journal.close()
    if store is not None:
        store.close()
    return report


def _time_mode(tmp_path, mode, fsync):
    """Min-of-rounds wall-clock for one durability mode.

    Each round writes into a fresh directory: an existing journal would
    be *continued* (its tail re-read for the next sequence number),
    which is recovery behaviour, not steady-state appending.
    """
    best = float("inf")
    report = None
    for round_index in range(JOURNAL_ROUNDS):
        workdir = (
            None if mode == "in-memory"
            else tmp_path / f"{mode}-{round_index}"
        )
        start = time.perf_counter()
        report = _serve_durable(workdir, fsync)
        best = min(best, time.perf_counter() - start)
    return best, report


def test_fleet_journal_overhead(benchmark, tmp_path, request):
    """Durability price: journaled serving vs in-memory (see module doc)."""
    with_fsync = request.config.getoption("--journal")
    modes = [("in-memory", False), ("journal", False)]
    if with_fsync:
        modes.append(("journal+fsync", True))

    timings = {}

    def run_all():
        timings.clear()
        # One untimed warmup so the first-timed mode doesn't pay the
        # import/allocation cold start for everyone.
        _serve_durable(None, False)
        for mode, fsync in modes:
            timings[mode] = _time_mode(tmp_path, mode, fsync)
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    base_wall, base_report = timings["in-memory"]
    rows = []
    for mode, _ in modes:
        wall, report = timings[mode]
        overhead = wall / base_wall - 1.0
        rows.append([
            mode,
            f"{wall * 1e3:.1f}",
            f"{NUM_JOBS / wall:,.0f}",
            f"{overhead * 100:+.1f}%",
            "yes" if report.digest() == base_report.digest() else "NO",
        ])
    text = format_table(
        ["mode", "wall ms (min)", "jobs/s (wall)", "overhead",
         "digest match"],
        rows,
        title=(
            f"journal overhead: {NUM_JOBS} clean jobs, "
            f"{JOURNAL_POOL_SIZE} replicas, min of {JOURNAL_ROUNDS} rounds"
            + ("" if with_fsync else " (--journal adds the fsync mode)")
        ),
    )
    write_report("fleet_journal_overhead", text)

    # Durability must not change the served outcome at all.
    journal_wall, journal_report = timings["journal"]
    assert journal_report.digest() == base_report.digest()
    assert journal_report.completed == NUM_JOBS
    # The gate: write-ahead journaling (sans fsync) is nearly free.
    overhead = journal_wall / base_wall - 1.0
    assert overhead <= MAX_JOURNAL_OVERHEAD, (
        f"journaling cost {overhead * 100:.1f}% wall-clock "
        f"(gate: {MAX_JOURNAL_OVERHEAD * 100:.0f}%)"
    )
