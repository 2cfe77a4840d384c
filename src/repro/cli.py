"""Command-line interface: ``python -m repro <command>``.

Wraps the framework for shell use, mirroring the push-button workflow of
Fig. 8:

* ``datasets``  — list the Table III registry;
* ``preprocess``— DBG + partition + schedule a graph, print the plan;
* ``run``       — execute an application and report throughput;
* ``sweep``     — throughput across all pipeline combinations;
* ``codegen``   — emit the accelerator artifact bundles;
* ``shuhai``    — characterise the HBM channel model;
* ``selfcheck`` — run the post-install correctness matrix;
* ``faultsim``  — inject faults and exercise the resilient runtime;
* ``check``     — run the conformance oracles and trace invariants;
* ``chaos``     — randomized fault soak campaigns (run/replay/report/
  kill-restart);
* ``fleet``     — serve a seeded job stream over a replica pool while
  killing replicas mid-campaign (run/resume/status/report); ``run
  --journal`` write-ahead logs every transition and ``resume`` rebuilds
  a hard-killed soak from its journal (docs/DURABILITY.md);
* ``serve``     — wall-clock HTTP gateway over the fleet kernel:
  tenant API keys and quotas, durable SQLite job store, traffic
  recording, graceful drain on SIGINT/SIGTERM, ``--resume`` after a
  kill -9 (docs/SERVING.md);
* ``traffic``   — record a seeded stream into a ``regraph-traffic/v1``
  bundle, replay a bundle to a bit-identical report digest, or
  summarise one (record/replay/show).

Graphs come either from ``--dataset KEY`` (synthetic Table III stand-ins,
with ``--scale``) or ``--edge-list FILE``.

Exit codes are uniform across commands (docs/TESTING.md): 0 success,
1 oracle/check failure, 2 user or fault error, 3 interrupted or
hard-killed but resumable.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.arch.config import PipelineConfig
from repro.core.framework import ReGraph
from repro.errors import FleetKilledError, ReproError, RunInterrupted
from repro.graph.datasets import DATASETS, load_dataset, table3_rows
from repro.graph.io import read_edge_list
from repro.hbm.channel import HbmChannelModel
from repro.reporting import format_table


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="Table III key, e.g. HD")
    parser.add_argument("--edge-list", help="path to an edge-list file")
    parser.add_argument(
        "--scale", type=float, default=1 / 32,
        help="dataset scale factor (default 1/32)",
    )
    parser.add_argument("--seed", type=int, default=1)


def _add_platform_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", default="U280", choices=["U280", "U50"])
    parser.add_argument(
        "--buffer-vertices", type=int, default=2048,
        help="destination vertices per Gather PE (scaled default: 2048)",
    )
    parser.add_argument("--pipelines", type=int, default=None)


def _add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """Worker processes for the commands that fan work out (``chaos run``
    cells, ``fleet run`` prewarm; see docs/PERFORMANCE.md)."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for parallelizable stages (default 1 = "
             "serial; results are bit-identical either way)",
    )


def _perf_config(args):
    from repro.perf import PerfConfig

    return PerfConfig(workers=args.jobs)


def _print_compiled_stats() -> None:
    """Compiled-core summary lines (silent when nothing ran)."""
    from repro.compiled import compiled_stats

    cstats = compiled_stats()
    if cstats["evaluations"] or cstats["plans_compiled"]:
        print(f"compiled core: {cstats['plans_compiled']} plans "
              f"({cstats['nodes_lowered']} nodes) compiled, "
              f"{cstats['evaluations']} batched evaluations, "
              f"{cstats['memo_hits']} memo hits")
    if cstats["functional_iterations"] or cstats["traces_synthesized"]:
        print(f"compiled routing: "
              f"{cstats['functional_iterations']} functional iterations "
              f"compiled, "
              f"{cstats['traces_synthesized']} traces synthesized")


def _load_graph(args):
    if args.edge_list:
        return read_edge_list(args.edge_list)
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    raise SystemExit("provide --dataset or --edge-list")


def _framework(args) -> ReGraph:
    return ReGraph(
        args.platform,
        pipeline=PipelineConfig(gather_buffer_vertices=args.buffer_vertices),
        num_pipelines=args.pipelines,
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_datasets(_args) -> int:
    rows = table3_rows()
    print(format_table(
        ["key", "name", "V", "E", "D", "type", "category"],
        rows,
        title=f"Table III registry ({len(DATASETS)} datasets)",
    ))
    return 0


def cmd_preprocess(args) -> int:
    graph = _load_graph(args)
    framework = _framework(args)
    pre = framework.preprocess(graph)
    plan = pre.plan
    print(f"graph: V={graph.num_vertices:,} E={graph.num_edges:,}")
    print(f"partitions: {pre.pset.num_partitions} "
          f"({len(plan.dense_indices)} dense, "
          f"{len(plan.sparse_indices)} sparse)")
    print(f"accelerator: {plan.accelerator.label}")
    print(f"resources: LUT {pre.resources.lut_util:.1%} "
          f"BRAM {pre.resources.bram_util:.1%} "
          f"URAM {pre.resources.uram_util:.1%} "
          f"@ {pre.resources.frequency_mhz:.0f} MHz")
    print(f"estimated iteration makespan: {plan.estimated_makespan:,.0f} "
          f"cycles (balance {plan.balance_ratio:.2f})")
    print(f"preprocessing: DBG {pre.dbg_seconds * 1e3:.1f} ms, "
          f"partition+schedule {pre.schedule_seconds * 1e3:.1f} ms")
    return 0


def cmd_run(args) -> int:
    graph = _load_graph(args)
    framework = _framework(args)
    pre = framework.preprocess(graph)
    run = framework.run_app(
        pre, args.app, root=args.root, max_iterations=args.iterations
    )
    print(f"{run.app_name} on {run.graph_name} "
          f"[{run.accel_label} @ {run.frequency_mhz:.0f} MHz]")
    print(f"iterations: {run.iterations} "
          f"({'converged' if run.converged else 'cap reached'})")
    print(f"simulated time: {run.total_seconds * 1e3:.3f} ms")
    print(f"throughput: {run.mteps:,.0f} MTEPS")
    _print_compiled_stats()
    return 0


def cmd_sweep(args) -> int:
    from repro.apps.pagerank import PageRank
    from repro.core.system import SystemSimulator
    from repro.sched.scheduler import build_schedule

    graph = _load_graph(args)
    framework = _framework(args)
    pre = framework.preprocess(graph)
    n_pip = framework.num_pipelines
    rows = []
    for m in range(n_pip + 1):
        plan = build_schedule(
            pre.pset, framework.model, n_pip, forced_combo=(m, n_pip - m)
        )
        sim = SystemSimulator(plan, framework.platform, framework.channel)
        run = sim.run(
            PageRank(pre.graph), max_iterations=5, functional=False
        )
        marker = "<- selected" if (
            plan.accelerator.label == pre.plan.accelerator.label
        ) else ""
        rows.append((plan.accelerator.label, f"{run.mteps:,.0f}", marker))
    print(format_table(
        ["combo", "PR MTEPS", ""],
        rows,
        title=f"pipeline-combination sweep on {graph.name}",
    ))
    _print_compiled_stats()
    return 0


def cmd_codegen(args) -> int:
    from repro.arch.platform import get_platform
    from repro.codegen.generator import generate_all_combinations, write_bundle

    platform = get_platform(args.platform)
    bundles = generate_all_combinations(platform)
    for bundle in bundles:
        path = write_bundle(bundle, args.output)
        print(f"wrote {bundle.label:>6} -> {path}")
    return 0


def cmd_selfcheck(args) -> int:
    from repro.verify import all_passed, verify_installation

    results = verify_installation(verbose=True)
    ok = all_passed(results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def cmd_shuhai(_args) -> int:
    from repro.hbm.shuhai import run_shuhai_suite

    report = run_shuhai_suite(HbmChannelModel())
    rows = [
        (r.pattern, r.stride_bytes, f"{r.cycles_per_block:.2f}",
         f"{r.effective_bandwidth_fraction:.1%}", f"{r.latency_cycles:.1f}")
        for r in report.results
    ]
    print(format_table(
        ["pattern", "stride B", "cyc/block", "bandwidth", "latency cyc"],
        rows,
        title="HBM channel characterisation (Shuhai-style)",
    ))
    print(f"latency knee at stride {report.knee_stride_bytes} B")
    return 0


def cmd_faultsim(args) -> int:
    from repro.faults import (
        BitFlipFault,
        DeadChannelFault,
        FaultPlan,
        LatencySpikeFault,
        PipelineStallFault,
    )
    from repro.faults.resilience import ResiliencePolicy

    graph = _load_graph(args)
    framework = _framework(args)
    pre = framework.preprocess(graph)

    # --fault-seed defaults to the graph seed so one --seed value pins
    # the whole invocation; the effective pair is printed either way.
    fault_seed = (
        args.fault_seed if args.fault_seed is not None else args.seed
    )
    dead = tuple(
        DeadChannelFault(channel=c, onset_cycle=args.onset)
        for c in (args.dead_channel or [])
    )
    flips = ()
    if args.bit_flip_rate > 0:
        flips = (BitFlipFault(
            probability=args.bit_flip_rate,
            detectable=not args.silent_flips,
            onset_cycle=args.onset,
        ),)
    stalls = ()
    if args.stall_rate > 0:
        stalls = (PipelineStallFault(
            probability=args.stall_rate,
            pipeline=args.stall_pipeline,
            onset_cycle=args.onset,
        ),)
    spikes = ()
    if args.spike_channel is not None:
        spikes = (LatencySpikeFault(
            channel=args.spike_channel,
            onset_cycle=args.onset,
            duration_cycles=args.spike_duration,
            multiplier=args.spike_multiplier,
        ),)
    fault_plan = FaultPlan(
        seed=fault_seed,
        dead_channels=dead,
        latency_spikes=spikes,
        bit_flips=flips,
        stalls=stalls,
    )
    policy = ResiliencePolicy(
        max_retries=args.retries, watchdog_slack=args.slack
    )

    def _execute(**kwargs):
        return framework.run_app(
            pre, args.app, root=args.root, max_iterations=args.iterations,
            **kwargs,
        )

    clean = _execute()
    run = _execute(fault_plan=fault_plan, resilience=policy)
    health = run.health

    print(f"{run.app_name} on {run.graph_name} under fault plan "
          f"(seed {fault_plan.seed}): {len(dead)} dead channel(s), "
          f"{len(spikes)} latency spike(s), {len(flips)} bit-flip model(s), "
          f"{len(stalls)} stall model(s)")
    print(f"seeds: graph={args.seed} fault={fault_seed} "
          f"(reproduce with --seed {args.seed} --fault-seed {fault_seed})")
    print(f"clean run:   {clean.iterations} iterations, "
          f"{clean.total_cycles:,.0f} cycles, {clean.mteps:,.0f} MTEPS")
    print(f"faulted run: {run.iterations} iterations, "
          f"{run.total_cycles:,.0f} cycles, {run.mteps:,.0f} MTEPS "
          f"({'converged' if run.converged else 'cap reached'})")
    print(f"accelerator: {health.initial_label} -> {health.final_label}"
          + (f" (degraded: {', '.join(health.degraded_pipelines)})"
             if health.degraded_pipelines else ""))
    for f in health.faults:
        print(f"  iter {f.iteration:>3} @ {f.cycle:>12,.0f} cyc  "
              f"[{f.category}] {f.detail}")
    print(f"absorbed: {health.fault_count} faults, {health.retries} retries, "
          f"{health.replans} re-plans, "
          f"{health.checkpoint_restores} checkpoint restores, "
          f"{health.watchdog_trips} watchdog trips, "
          f"{health.breaker_trips} breaker trips")
    open_channels = [
        ch for ch, state in health.channel_breakers.items()
        if state["state"] == "open"
    ]
    if open_channels:
        print(f"open breakers: channel(s) {', '.join(open_channels)}")
    print(f"overhead: {health.overhead_cycles:,.0f} cycles "
          f"({health.overhead_fraction:.1%} of useful work)")
    return 0


def cmd_check(args) -> int:
    from repro.check import ORACLE_APPS, run_conformance

    apps = None
    if args.app:
        apps = ORACLE_APPS if "all" in args.app else tuple(args.app)
    graphs = None
    if args.edge_list or args.dataset:
        graphs = [_load_graph(args)]
    report = run_conformance(
        device=args.device,
        apps=apps,
        graphs=graphs,
        buffer_vertices=args.buffer_vertices,
        num_pipelines=args.pipelines,
        seed=args.seed,
        quick=args.quick,
    )
    print(format_table(
        ["check", "subject", "status", "detail"],
        report.rows(),
        title=f"conformance on {report.device} "
              f"(apps: {', '.join(report.apps)})",
    ))
    failed_oracles = sum(not r.passed for r in report.results)
    print(f"{report.num_checks - failed_oracles}/{report.num_checks} "
          f"oracle checks passed, "
          f"{len(report.violations)} invariant violation(s)")
    _print_compiled_stats()
    return 0 if report.passed else 1


def cmd_chaos(args) -> int:
    if args.chaos_command == "run":
        return _chaos_run(args)
    if args.chaos_command == "replay":
        return _chaos_replay(args)
    if args.chaos_command == "kill-restart":
        return _chaos_kill_restart(args)
    if args.chaos_command == "serve-kill":
        return _chaos_serve_kill(args)
    return _chaos_report(args)


def _print_campaign_summary(report) -> None:
    rows = []
    for result in report.results:
        health = result.health
        rows.append((
            result.cell_id,
            result.status,
            len(health.get("faults", [])),
            health.get("replans", 0),
            health.get("breaker_trips", 0),
            result.detail[:60] if result.detail else "",
        ))
    print(format_table(
        ["cell", "status", "faults", "re-plans", "breaker trips", "detail"],
        rows,
        title=f"chaos campaign: {report.survived}/{len(report.results)} "
              f"cells survived",
    ))
    counts = report.fault_counts()
    if counts:
        absorbed = ", ".join(
            f"{n} {cat}" for cat, n in sorted(counts.items())
        )
        print(f"faults absorbed: {absorbed}")
    for path in report.bundles:
        print(f"repro bundle: {path}")


def _chaos_run(args) -> int:
    import json

    from repro.chaos import CampaignConfig, run_campaign

    perf = _perf_config(args)
    config = CampaignConfig(
        seed=args.chaos_seed,
        cells=args.cells,
        devices=tuple(args.device or ["U280", "U50"]),
        intensity=args.intensity,
        buffer_vertices=args.buffer_vertices,
        num_pipelines=args.pipelines or 4,
        max_iterations=args.iterations,
    )
    print(f"chaos campaign: {config.cells} cells, seed {config.seed}, "
          f"intensity {config.intensity}, "
          f"devices {'/'.join(config.devices)}"
          + (f", {perf.workers} workers" if perf.parallel else ""))

    def progress(index, total, result):
        if not result.survived:
            print(f"  [{index + 1}/{total}] {result.cell_id}: "
                  f"{result.status} ({result.category})")

    from repro.serving.signals import graceful_interrupts

    with graceful_interrupts():
        # Campaign cells are independent and seeded; an interrupt here
        # surfaces as RunInterrupted -> exit 3 (re-run with the same
        # --chaos-seed to reproduce the full campaign).
        report = run_campaign(
            config,
            bundle_dir=args.bundle_dir,
            shrink_failures=not args.no_shrink,
            max_probes=args.max_probes,
            progress=progress,
            perf=perf,
        )
    _print_campaign_summary(report)
    _print_compiled_stats()
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    return 0 if report.passed else 1


def _chaos_replay(args) -> int:
    from repro.chaos import load_bundle, replay_bundle

    bundle = load_bundle(args.bundle)
    cell = bundle["cell"]
    shrink = bundle.get("shrink")
    print(f"replaying {cell['cell_id']}: {cell['app']} on "
          f"{cell['device']} ({cell['graph']['kind']} graph, "
          f"{cell['graph']['vertices']} vertices)")
    if shrink:
        print(f"shrunk plan: {shrink['original_events']} -> "
              f"{shrink['shrunk_events']} fault event(s) "
              f"in {shrink['probes']} probes")
    replay = replay_bundle(bundle)
    print(f"outcome: {replay.result.status}"
          + (f" ({replay.result.category})" if replay.result.category else ""))
    print(f"expected digest: {replay.expected_digest}")
    print(f"actual digest:   {replay.actual_digest}")
    print("failure reproduced bit-for-bit" if replay.reproduced
          else "DIGEST MISMATCH: failure did not reproduce")
    return 0 if replay.reproduced else 1


def _chaos_report(args) -> int:
    import json

    from repro.chaos import CampaignReport

    with open(args.report) as fh:
        report = CampaignReport.from_dict(json.load(fh))
    _print_campaign_summary(report)
    return 0 if report.passed else 1


def _parse_storage_fault(spec: str, default_target: str = "journal"):
    """``KIND[:RECORD][@TARGET]`` -> StorageFault.

    Examples: ``torn-write``, ``bit-flip:5``, ``bit-flip:-1@store``.
    """
    from repro.errors import UserInputError
    from repro.faults.plan import StorageFault

    try:
        body, _, target = spec.partition("@")
        kind, _, record = body.partition(":")
        return StorageFault(
            kind=kind,
            record=int(record) if record else -1,
            target=target or default_target,
        )
    except (ValueError, TypeError) as exc:
        raise UserInputError(
            f"bad --corrupt spec {spec!r} (expected KIND[:RECORD][@TARGET], "
            f"e.g. torn-write or bit-flip:5@store): {exc}"
        ) from exc


def _chaos_kill_restart(args) -> int:
    import json

    from repro.chaos.fleet_soak import FleetSoakConfig
    from repro.chaos.kill_restart import KillRestartConfig, run_kill_restart
    from repro.fleet import FleetPolicy

    config = KillRestartConfig(
        soak=FleetSoakConfig(
            seed=args.fleet_seed,
            jobs=args.num_jobs,
            replicas=tuple(args.replica or ["U280", "U50"]),
            intensity=args.intensity,
            random_kills=args.kills,
            buffer_vertices=args.buffer_vertices,
            num_pipelines=args.pipelines or 4,
            max_iterations=args.iterations,
        ),
        crashes=args.crashes,
        storage_faults=tuple(
            _parse_storage_fault(s) for s in (args.corrupt or [])
        ),
        fsync=not args.no_fsync,
    )
    print(f"kill-restart: {config.soak.jobs} jobs over "
          f"{'/'.join(config.soak.replicas)}, seed {config.soak.seed}, "
          f"{config.crashes} hard kill(s), "
          f"{len(config.storage_faults)} storage fault(s)")
    result = run_kill_restart(
        config, args.workdir, policy=FleetPolicy()
    )
    print(f"crash points (events): "
          f"{', '.join(str(p) for p in result.crash_points)}")
    for line in result.storage_fault_log:
        print(f"  corrupt: {line}")
    print(f"restarts: {result.restarts}, "
          f"results restored from store: {result.results_restored}, "
          f"replay duplicates suppressed: {result.duplicates_suppressed}")
    if result.quarantined_records or result.truncated_bytes:
        print(f"corruption contained: {result.quarantined_records} "
              f"record(s) quarantined, {result.truncated_bytes} tail "
              f"byte(s) truncated"
              + (f" -> {result.quarantine_path}"
                 if result.quarantine_path else ""))
    print(f"reference digest: {result.reference_digest}")
    print(f"recovered digest: {result.final_digest}")
    print(f"oracles: lost={len(result.lost_jobs)} "
          f"duplicates={result.duplicate_results} "
          f"divergences={result.replay_divergences} "
          f"equivalent={'yes' if result.equivalent else 'NO'}")
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    print("kill-restart PASSED: recovery is lossless, exactly-once and "
          "bit-equivalent" if result.passed else "kill-restart FAILED")
    return 0 if result.passed else 1


def _chaos_serve_kill(args) -> int:
    import json

    from repro.chaos.fleet_soak import FleetSoakConfig
    from repro.chaos.serve_kill import ServeKillConfig, run_serve_kill

    config = ServeKillConfig(
        soak=FleetSoakConfig(
            seed=args.fleet_seed,
            jobs=args.num_jobs,
            replicas=tuple(args.replica or ["U280", "U50"]),
            intensity=args.intensity,
            buffer_vertices=args.buffer_vertices,
            num_pipelines=args.pipelines or 4,
            max_iterations=args.iterations,
        ),
        crash_after_results=args.crash_after,
        storage_fault=(
            _parse_storage_fault(args.corrupt, default_target="traffic")
            if args.corrupt else None
        ),
        fsync=not args.no_fsync,
    )
    print(f"serve-kill: {config.soak.jobs} jobs over "
          f"{'/'.join(config.soak.replicas)}, seed {config.soak.seed}, "
          f"SIGKILL after {config.crash_after_results} durable result(s)"
          + (f", fault {args.corrupt}" if args.corrupt else ""))
    result = run_serve_kill(config, args.workdir)
    print(f"acked before crash: {result.acked}, "
          f"durable results at crash: {result.results_at_crash}")
    if result.storage_fault_log:
        print(f"  corrupt: {result.storage_fault_log}")
    print(f"recovery: {result.accepts_merged_from_traffic} accept(s) "
          f"merged back from the traffic bundle, "
          f"{result.duplicates_suppressed} replay duplicate(s) "
          f"suppressed, {result.corrupt_traffic_lines} corrupt bundle "
          f"line(s) skipped")
    print(f"reference digest: {result.reference_digest}")
    print(f"recovered digest: {result.final_digest}")
    print(f"oracles: lost-acked={len(result.lost_acked)} "
          f"divergences={result.replay_divergences} "
          f"drained={'yes' if result.drained else 'NO'} "
          f"equivalent={'yes' if result.equivalent else 'NO'}")
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    print("serve-kill PASSED: no acknowledged job lost, recovery is "
          "exactly-once and digest-equivalent" if result.passed
          else "serve-kill FAILED")
    return 0 if result.passed else 1


def cmd_fleet(args) -> int:
    if args.fleet_command == "run":
        return _fleet_run(args)
    if args.fleet_command == "resume":
        return _fleet_resume(args)
    if args.fleet_command == "status":
        return _fleet_status(args)
    return _fleet_report(args)


def _parse_kill(spec: str):
    """``INDEX@SECONDS`` (or ``rINDEX@SECONDS``) -> ReplicaKill."""
    from repro.errors import UserInputError
    from repro.fleet import ReplicaKill

    try:
        target, _, when = spec.partition("@")
        if not when:
            raise ValueError("missing '@'")
        replica_id = target if target.startswith("r") else f"r{int(target)}"
        return ReplicaKill(replica_id=replica_id, at_seconds=float(when))
    except (ValueError, TypeError) as exc:
        raise UserInputError(
            f"bad --kill spec {spec!r} (expected INDEX@SECONDS, "
            f"e.g. 1@0.002): {exc}"
        ) from exc


def _print_fleet_summary(report) -> None:
    rows = [
        (
            r["replica_id"], r["device"], r["state"],
            r["jobs_completed"], r["jobs_failed"], r["repairs"],
            r["retired_reason"][:40],
        )
        for r in report.replicas
    ]
    print(format_table(
        ["replica", "device", "state", "done", "failed", "repairs", "note"],
        rows,
        title=f"fleet: {report.completed}/{len(report.jobs)} jobs completed "
              f"({report.rejected} shed, {report.failed} failed, "
              f"{report.lost} lost)",
    ))
    latency = report.latency_percentiles()
    counters = report.counters
    print(f"makespan {report.makespan_seconds * 1e3:.2f} ms virtual, "
          f"{report.jobs_per_second:.0f} jobs/s, "
          f"latency p50 {latency['p50'] * 1e3:.2f} ms / "
          f"p99 {latency['p99'] * 1e3:.2f} ms")
    print(f"failovers {counters.get('failovers', 0)}, "
          f"hedges {counters.get('hedges', 0)} "
          f"({counters.get('hedge_wins', 0)} won), "
          f"canaries {counters.get('canaries', 0)} "
          f"({counters.get('repairs', 0)} repairs), "
          f"replica kills {counters.get('kills', 0)}")
    print("soak PASSED: zero jobs lost, all completions conformance-clean"
          if report.passed else "soak FAILED")


def _fleet_run(args) -> int:
    import json

    from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak
    from repro.fleet import FleetPolicy

    perf = _perf_config(args)
    config = FleetSoakConfig(
        seed=args.fleet_seed,
        jobs=args.num_jobs,
        replicas=tuple(args.replica or ["U280", "U280", "U50"]),
        intensity=args.intensity,
        kills=tuple(_parse_kill(s) for s in (args.kill or [])),
        random_kills=args.kills,
        buffer_vertices=args.buffer_vertices,
        num_pipelines=args.pipelines or 4,
        max_iterations=args.iterations,
    )
    policy = FleetPolicy(
        max_queue_depth=args.max_queue_depth,
        rate_limit_jobs_per_second=args.rate_limit,
        max_attempts=args.max_attempts,
        hedge_enabled=not args.no_hedge,
    )
    print(f"fleet soak: {config.jobs} jobs over "
          f"{len(config.replicas)} replicas "
          f"({'/'.join(config.replicas)}), seed {config.seed}, "
          f"intensity {config.intensity}"
          + (f", {perf.workers} workers" if perf.parallel else "")
          + (f", journaled to {args.journal}" if args.journal else ""))
    if (args.store or args.crash_after) and not args.journal:
        from repro.errors import UserInputError

        raise UserInputError(
            "--store/--crash-after need --journal (recovery replays the "
            "journaled input batch)"
        )
    from repro.serving.signals import graceful_interrupts

    autoscale = None
    if args.autoscale:
        from repro.fleet import AutoscalePolicy

        autoscale = AutoscalePolicy(
            min_replicas=args.autoscale_min,
            max_replicas=args.autoscale_max,
            cooldown_seconds=args.autoscale_cooldown,
        )
    try:
        # SIGINT/SIGTERM raise a typed RunInterrupted instead of dying
        # mid-write: the journal/store appends are atomic-per-record,
        # so whatever is flushed is exactly what resume replays.
        with graceful_interrupts():
            result = run_fleet_soak(
                config, policy, perf=perf,
                journal_path=args.journal,
                store_path=args.store,
                halt_after_events=args.crash_after,
                journal_fsync=not args.no_fsync,
                autoscale=autoscale,
            )
    except (FleetKilledError, RunInterrupted) as exc:
        verb = (
            "interrupted" if isinstance(exc, RunInterrupted)
            else "hard-killed"
        )
        print(f"fleet {verb}: {exc}")
        if args.journal:
            print(f"recover with: repro fleet resume {args.journal}"
                  + (f" --store {args.store}" if args.store else ""))
        return 3
    for kill in result.kills:
        print(f"  kill: {kill.replica_id} at t={kill.at_seconds * 1e3:.2f} ms")
    _print_fleet_summary(result.report)
    _print_perf_stats(result.perf)
    _print_recovery_stats(result.recovery)
    _print_autoscale_stats(result.autoscale)
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    return 0 if result.report.passed else 1


def _print_recovery_stats(recovery: dict) -> None:
    """Durability side-channel line (silent for in-memory runs)."""
    if not recovery:
        return
    print(f"durability: {recovery.get('results_restored', 0)} result(s) "
          f"restored from store, "
          f"{recovery.get('duplicates_suppressed', 0)} replay "
          f"duplicate(s) suppressed, "
          f"{recovery.get('replay_divergences', 0)} divergence(s)")


def _fleet_resume(args) -> int:
    import json

    from repro.fleet import FleetRuntime

    recovered = FleetRuntime.recover(
        args.journal,
        store_path=args.store,
        quarantine_dir=args.quarantine_dir,
    )
    view = recovered.projection
    print(f"recovered journal {args.journal}: "
          f"{len(recovered.jobs)} job(s) in batch, "
          f"{len(view.results)} already terminal, "
          f"{len(view.outstanding)} outstanding, "
          f"{view.recoveries} earlier recovery/recoveries")
    if recovered.repair.quarantined or recovered.repair.truncated_bytes:
        print(f"journal repair: {recovered.repair.quarantined} corrupt "
              f"record(s) quarantined, "
              f"{recovered.repair.truncated_bytes} torn tail byte(s) "
              f"truncated"
              + (f" -> {recovered.repair.quarantine_path}"
                 if recovered.repair.quarantine_path else ""))
    for job_id, info in sorted(view.inflight.items()):
        print(f"  was in flight: {job_id} on {info['replica_id']} "
              f"(attempt {info['attempt']}, {info['kind']})")
    from repro.serving.signals import graceful_interrupts

    try:
        with graceful_interrupts():
            report = recovered.resume(fsync=not args.no_fsync)
    except (FleetKilledError, RunInterrupted) as exc:
        print(f"fleet hard-killed again: {exc}")
        print(f"recover with: repro fleet resume {args.journal}"
              + (f" --store {args.store}" if args.store else ""))
        return 3
    _print_fleet_summary(report)
    _print_recovery_stats(recovered.runtime.recovery_stats)
    if args.report_json:
        with open(args.report_json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report_json}")
    return 0 if report.passed else 1


def _print_perf_stats(perf: dict) -> None:
    """Execution-acceleration line for a soak (silent when absent)."""
    if not perf:
        return
    line = (f"perf: {perf.get('workers', 1)} worker(s), "
            f"{perf.get('prewarmed_specs', 0)} prewarmed spec(s)")
    print(line)
    placement = perf.get("placement")
    if placement and placement.get("probes", 0):
        print(f"placement probes: {placement['probes']} what-if probes")


def _print_autoscale_stats(autoscale: dict) -> None:
    """Autoscaler side-channel lines (silent when not attached)."""
    if not autoscale:
        return
    p99 = autoscale.get("p99_latency_seconds")
    print(f"autoscaler: {autoscale.get('spawned', 0)} spawned / "
          f"{autoscale.get('retired', 0)} retired"
          + (f", p99 latency {p99 * 1e3:.2f} ms" if p99 else ""))
    for decision in autoscale.get("decisions", []):
        print(f"  {decision['action']}: {decision['replica_id']} "
              f"at t={decision['time'] * 1e3:.2f} ms")


def _load_fleet_report(path):
    """-> (FleetReport, perf dict, autoscale dict) from either layout.

    Missing, empty or undecodable files raise a typed
    :class:`~repro.errors.UserInputError` (one-line message, exit 2)
    instead of surfacing a traceback.
    """
    import json
    import os

    from repro.chaos.fleet_soak import FleetSoakResult
    from repro.errors import UserInputError
    from repro.fleet import FleetReport

    if not os.path.exists(path):
        raise UserInputError(
            f"fleet report not found: {path} (write one with "
            f"`repro fleet run --report-json {path}`)"
        )
    if os.path.getsize(path) == 0:
        raise UserInputError(
            f"fleet report {path} is empty (was the run interrupted "
            "mid-write? re-run `repro fleet run --report-json`)"
        )
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UserInputError(
            f"fleet report {path} is not valid JSON ({exc}); expected a "
            "file written by `repro fleet run --report-json`"
        ) from exc
    if not isinstance(data, dict):
        raise UserInputError(
            f"fleet report {path} does not contain a report object"
        )
    try:
        if "report" in data:
            result = FleetSoakResult.from_dict(data)
            return result.report, result.perf, result.autoscale
        return FleetReport.from_dict(data), {}, {}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UserInputError(
            f"fleet report {path} is malformed: {exc!r}"
        ) from exc


def _fleet_status(args) -> int:
    report, perf, autoscale = _load_fleet_report(args.report)
    for r in report.replicas:
        note = f" ({r['retired_reason']})" if r.get("retired_reason") else ""
        print(f"{r['replica_id']} [{r['device']}] {r['state']}{note}: "
              f"{r['jobs_completed']} done, {r['jobs_failed']} failed, "
              f"{r['open_breakers']} open breaker(s)")
    admission = report.admission
    print(f"admission: {admission.get('admitted', 0)}/"
          f"{admission.get('submitted', 0)} admitted, "
          f"{admission.get('shed_queue_depth', 0)} shed on queue depth, "
          f"{admission.get('shed_rate_limit', 0)} rate-limited")
    _print_perf_stats(perf)
    _print_autoscale_stats(autoscale)
    return 0


def _fleet_report(args) -> int:
    report, perf, autoscale = _load_fleet_report(args.report)
    _print_fleet_summary(report)
    _print_perf_stats(perf)
    _print_autoscale_stats(autoscale)
    return 0 if report.passed else 1


def cmd_serve(args) -> int:
    import asyncio

    from repro.errors import UserInputError
    from repro.serving import (
        EXIT_RESUMABLE,
        HttpServer,
        ServingConfig,
        ServingGateway,
        TenantSpec,
        install_async_drain,
    )

    if args.resume and not args.store:
        raise UserInputError(
            "--resume needs --store (recovery replays the acknowledged "
            "jobs persisted there, merged with the --record bundle)"
        )
    tenants = tuple(TenantSpec.parse(s) for s in (args.tenant or []))
    kwargs = dict(
        devices=tuple(args.replica or ["U280", "U50"]),
        buffer_vertices=args.buffer_vertices,
        num_pipelines=args.pipelines or 4,
        rate_jobs_per_second=args.rate_limit,
        max_pending=args.max_pending,
        drain_budget_seconds=args.drain_budget,
        store_path=args.store,
        traffic_path=args.record,
        fsync=not args.no_fsync,
    )
    if tenants:
        kwargs["tenants"] = tenants
    config = ServingConfig(**kwargs)

    async def _serve() -> int:
        gateway = ServingGateway(config, resume=args.resume)
        try:
            if args.resume:
                stats = gateway.recovery_stats
                print(f"recovered store {args.store}: "
                      f"{stats['accepts_restored']} accept(s) replayed "
                      f"({stats['accepts_merged_from_traffic']} merged "
                      f"back from the traffic bundle), "
                      f"{stats['duplicates_suppressed']} duplicate(s) "
                      f"suppressed, "
                      f"{stats['replay_divergences']} divergence(s)")
            server = HttpServer(gateway, args.host, args.port)
            await server.start()
            print(f"serving on http://{args.host}:{server.port} "
                  f"({len(config.tenants)} tenant(s); SIGINT/SIGTERM "
                  f"drains within {config.drain_budget_seconds:.0f}s)")
            stop = asyncio.Event()

            def _on_signal(name: str) -> None:
                print(f"{name}: draining — no new submissions; signal "
                      "again to force-quit")
                stop.set()

            uninstall = install_async_drain(
                asyncio.get_running_loop(), _on_signal
            )
            try:
                await stop.wait()
            finally:
                uninstall()
            await server.stop()
            summary = await gateway.drain()
            print(f"drained: {summary['served']} job(s) served, "
                  f"{len(summary['outstanding'])} outstanding"
                  + (f", digest {summary['digest']}"
                     if summary["digest"] else ""))
            if summary["outstanding"]:
                print(f"resume with: repro serve --resume "
                      f"--store {args.store}"
                      + (f" --record {args.record}" if args.record else ""))
            return 0 if summary["drained"] else EXIT_RESUMABLE
        finally:
            gateway.close()

    return asyncio.run(_serve())


def cmd_traffic(args) -> int:
    if args.traffic_command == "record":
        return _traffic_record(args)
    if args.traffic_command == "replay":
        return _traffic_replay(args)
    return _traffic_show(args)


def _traffic_record(args) -> int:
    import asyncio
    import os

    from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
    from repro.errors import UserInputError
    from repro.serving import ServingConfig, ServingGateway, TenantSpec

    if os.path.exists(args.bundle) and os.path.getsize(args.bundle) > 0:
        raise UserInputError(
            f"traffic bundle {args.bundle} already exists; recording "
            "never overwrites evidence — pick a fresh path"
        )
    soak = FleetSoakConfig(
        seed=args.fleet_seed,
        jobs=args.num_jobs,
        replicas=tuple(args.replica or ["U280", "U50"]),
        intensity=args.intensity,
        buffer_vertices=args.buffer_vertices,
        num_pipelines=args.pipelines or 4,
        max_iterations=args.iterations,
    )
    payloads = [job.to_dict() for job in generate_jobs(soak)]
    config = ServingConfig(
        devices=soak.replicas,
        buffer_vertices=soak.buffer_vertices,
        num_pipelines=soak.num_pipelines,
        tenants=(TenantSpec(name="recorder", api_key="recorder-key"),),
        traffic_path=args.bundle,
        fsync=not args.no_fsync,
    )

    async def _record() -> dict:
        gateway = ServingGateway(config)
        try:
            for payload in payloads:
                await gateway.submit("recorder-key", payload)
            return await gateway.drain()
        finally:
            gateway.close()

    summary = asyncio.run(_record())
    print(f"recorded {summary['served']} job(s) (seed {soak.seed}) "
          f"-> {args.bundle}")
    print(f"session digest: {summary['digest']}")
    print(f"verify with: repro traffic replay {args.bundle}")
    return 0 if summary["drained"] else 1


def _traffic_replay(args) -> int:
    from repro.serving import replay_traffic

    session, bundle = replay_traffic(args.bundle)
    info = bundle.summary()
    print(f"replayed {info['accepts']} accepted job(s) from "
          f"{args.bundle} ({info['rejects']} reject(s), "
          f"{info['corrupt_lines']} corrupt line(s) skipped)")
    digest = session.digest() if session.served_jobs else ""
    print(f"replayed digest: {digest or '(no jobs)'}")
    if not bundle.drained:
        print("bundle has no traffic-end record (undrained / crashed "
              "run): the replayed digest above is the ground truth")
        return 0
    recorded = info["recorded_digest"]
    print(f"recorded digest: {recorded or '(none)'}")
    print("traffic replay reproduced the live digest bit-for-bit"
          if digest == recorded
          else "DIGEST MISMATCH: the bundle does not reproduce its run")
    return 0 if digest == recorded else 1


def _traffic_show(args) -> int:
    from repro.serving import read_traffic

    bundle = read_traffic(args.bundle)
    info = bundle.summary()
    print(f"traffic bundle {args.bundle} ({info['schema']})")
    print(f"  accepts:  {info['accepts']}")
    print(f"  rejects:  {info['rejects']}")
    print(f"  results:  {info['results']}")
    print(f"  drained:  {'yes' if info['drained'] else 'no'}")
    print(f"  corrupt:  {info['corrupt_lines']} line(s) skipped")
    if info["recorded_digest"]:
        print(f"  digest:   {info['recorded_digest']}")
    for seq, tenant, payload in bundle.accepts:
        print(f"  [{seq:>4}] {payload.get('job_id', '?')} "
              f"({tenant}: {payload.get('app', '?')})")
    return 0


#: Uniform exit-code contract of every subcommand (docs/TESTING.md).
EXIT_CODE_EPILOG = """\
exit codes:
  0  success — the command (and its oracles, if any) passed
  1  a check, oracle or campaign failed (output says which)
  2  user or fault error — one-line message on stderr, no traceback
  3  interrupted (SIGINT/SIGTERM) or hard-killed, but *resumable*:
     durable state is flushed; continue with `repro fleet resume`
     or `repro serve --resume`
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReGraph reproduction: heterogeneous graph pipelines "
                    "on simulated HBM FPGAs",
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table III registry")

    p = sub.add_parser("preprocess", help="partition + schedule a graph")
    _add_graph_arguments(p)
    _add_platform_arguments(p)

    p = sub.add_parser("run", help="execute an application")
    _add_graph_arguments(p)
    _add_platform_arguments(p)
    p.add_argument("--app", default="pagerank",
                   choices=["pagerank", "bfs", "closeness"])
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--iterations", type=int, default=None)

    p = sub.add_parser("sweep", help="sweep pipeline combinations")
    _add_graph_arguments(p)
    _add_platform_arguments(p)

    p = sub.add_parser("codegen", help="emit accelerator bundles")
    p.add_argument("--platform", default="U280", choices=["U280", "U50"])
    p.add_argument("--output", default="generated")

    sub.add_parser("shuhai", help="characterise the HBM channel model")
    sub.add_parser(
        "selfcheck",
        help="run the post-install correctness matrix",
    )

    p = sub.add_parser(
        "faultsim",
        help="inject faults and exercise the resilient runtime",
    )
    _add_graph_arguments(p)
    _add_platform_arguments(p)
    p.add_argument("--app", default="pagerank",
                   choices=["pagerank", "bfs", "closeness"])
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--fault-seed", type=int, default=None,
                   help="seed of the fault injector's RNG "
                        "(default: the graph --seed)")
    p.add_argument("--dead-channel", type=int, action="append",
                   metavar="CH",
                   help="pseudo-channel that dies at --onset (repeatable)")
    p.add_argument("--bit-flip-rate", type=float, default=0.0,
                   help="per-drain bit-flip probability")
    p.add_argument("--silent-flips", action="store_true",
                   help="flips corrupt data instead of raising (no ECC)")
    p.add_argument("--stall-rate", type=float, default=0.0,
                   help="per-task mid-partition stall probability")
    p.add_argument("--stall-pipeline", type=int, default=None,
                   help="pin stalls to one global pipeline index")
    p.add_argument("--spike-channel", type=int, default=None,
                   help="channel hit by a latency-spike burst")
    p.add_argument("--spike-multiplier", type=float, default=8.0)
    p.add_argument("--spike-duration", type=float, default=100_000.0,
                   help="spike window length in cycles")
    p.add_argument("--onset", type=float, default=0.0,
                   help="cycle at which the configured faults switch on")
    p.add_argument("--retries", type=int, default=3,
                   help="retries per iteration before degrading")
    p.add_argument("--slack", type=float, default=8.0,
                   help="watchdog budget = slack * predicted makespan")

    p = sub.add_parser(
        "check",
        help="run the conformance oracles and trace invariants",
    )
    p.add_argument("--device", default="U280",
                   help="platform to check (U280 or U50, case-insensitive)")
    p.add_argument("--app", action="append",
                   help="oracle app to cross-check (repeatable; 'all' or "
                        "default = every oracle app)")
    p.add_argument("--dataset", help="Table III key to check instead of "
                                     "the seed suite")
    p.add_argument("--edge-list", help="edge-list file to check instead of "
                                       "the seed suite")
    p.add_argument("--scale", type=float, default=1 / 32,
                   help="dataset scale factor (default 1/32)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the generated conformance graphs")
    p.add_argument("--buffer-vertices", type=int, default=256,
                   help="destination vertices per Gather PE for the check")
    p.add_argument("--pipelines", type=int, default=4)
    p.add_argument("--quick", action="store_true",
                   help="single-graph smoke suite instead of the full one")

    p = sub.add_parser(
        "chaos",
        help="randomized fault soak campaigns with conformance oracles",
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    pr = chaos_sub.add_parser(
        "run", help="generate and execute a seeded campaign"
    )
    pr.add_argument("--cells", type=int, default=50,
                    help="number of campaign cells (default 50)")
    pr.add_argument("--chaos-seed", type=int, default=0,
                    help="campaign seed: determines every cell exactly")
    pr.add_argument("--device", action="append",
                    choices=["U280", "U50"],
                    help="device(s) to cycle through (repeatable; "
                         "default both)")
    pr.add_argument("--intensity", default="moderate",
                    choices=["light", "moderate", "heavy"],
                    help="fault-envelope preset per cell")
    pr.add_argument("--buffer-vertices", type=int, default=256,
                    help="destination vertices per Gather PE")
    pr.add_argument("--pipelines", type=int, default=4)
    pr.add_argument("--iterations", type=int, default=30,
                    help="per-cell iteration cap")
    pr.add_argument("--bundle-dir", default=None,
                    help="directory for repro bundles of failing cells")
    pr.add_argument("--report-json", default=None,
                    help="write the full campaign report as JSON")
    pr.add_argument("--no-shrink", action="store_true",
                    help="bundle failures without delta-debugging them")
    pr.add_argument("--max-probes", type=int, default=48,
                    help="probe budget per shrink (default 48)")
    _add_perf_arguments(pr)

    pp = chaos_sub.add_parser(
        "replay", help="re-execute a repro bundle and verify its digest"
    )
    pp.add_argument("bundle", help="path to a .repro.json bundle")

    pp = chaos_sub.add_parser(
        "report", help="summarise a campaign report JSON"
    )
    pp.add_argument("report", help="path written by chaos run --report-json")

    pk = chaos_sub.add_parser(
        "kill-restart",
        help="hard-kill a journaled fleet soak mid-run, recover from "
             "the journal, assert lossless exactly-once recovery",
    )
    pk.add_argument("--num-jobs", type=int, default=16,
                    help="jobs in the soak stream (default 16)")
    pk.add_argument("--fleet-seed", type=int, default=0,
                    help="soak seed (also seeds the crash points)")
    pk.add_argument("--replica", action="append", metavar="DEVICE",
                    help="device of one pool member (repeatable; "
                         "default U280 U50)")
    pk.add_argument("--intensity", default="moderate",
                    choices=["light", "moderate", "heavy"])
    pk.add_argument("--kills", type=int, default=0,
                    help="seeded random replica kills during the soak")
    pk.add_argument("--crashes", type=int, default=2,
                    help="hard kills of the runtime process (default 2)")
    pk.add_argument("--corrupt", action="append",
                    metavar="KIND[:RECORD][@TARGET]",
                    help="storage fault applied after the matching crash "
                         "(repeatable; kinds torn-write / partial-fsync "
                         "/ bit-flip, target journal or store)")
    pk.add_argument("--iterations", type=int, default=30)
    pk.add_argument("--buffer-vertices", type=int, default=256)
    pk.add_argument("--pipelines", type=int, default=4)
    pk.add_argument("--workdir", default="kill-restart",
                    help="directory for journal, store and quarantine "
                         "(default ./kill-restart)")
    pk.add_argument("--no-fsync", action="store_true",
                    help="skip per-append fsync (faster; determinism "
                         "is unaffected)")
    pk.add_argument("--report-json", default=None,
                    help="write the cell result as JSON")

    pk = chaos_sub.add_parser(
        "serve-kill",
        help="SIGKILL the serving gateway mid-load, resume from the "
             "store+bundle pair, assert lossless digest-equal recovery",
    )
    pk.add_argument("--num-jobs", type=int, default=8,
                    help="jobs in the submitted stream (default 8)")
    pk.add_argument("--fleet-seed", type=int, default=11,
                    help="stream seed (apps/graphs/fault plans)")
    pk.add_argument("--replica", action="append", metavar="DEVICE",
                    help="device of one pool member (repeatable; "
                         "default U280 U50)")
    pk.add_argument("--intensity", default="moderate",
                    choices=["light", "moderate", "heavy"])
    pk.add_argument("--crash-after", type=int, default=3,
                    metavar="RESULTS",
                    help="durable terminal results required before the "
                         "SIGKILL (default 3)")
    pk.add_argument("--corrupt", metavar="KIND[:RECORD][@TARGET]",
                    help="storage fault between death and rebirth: "
                         "kinds torn-write / partial-fsync / bit-flip, "
                         "targets traffic (default) or store-wal")
    pk.add_argument("--iterations", type=int, default=30)
    pk.add_argument("--buffer-vertices", type=int, default=256)
    pk.add_argument("--pipelines", type=int, default=4)
    pk.add_argument("--workdir", default="serve-kill",
                    help="directory for jobs.sqlite and traffic.jsonl "
                         "(on failure they are the evidence)")
    pk.add_argument("--no-fsync", action="store_true",
                    help="skip per-append fsync (faster; determinism "
                         "is unaffected)")
    pk.add_argument("--report-json", default=None,
                    help="write the cell result as JSON")

    p = sub.add_parser(
        "fleet",
        help="serve a seeded job stream over a replica pool under faults",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    pf = fleet_sub.add_parser(
        "run", help="generate and serve a seeded fleet soak"
    )
    pf.add_argument("--num-jobs", type=int, default=30,
                    help="number of jobs in the stream (default 30)")
    pf.add_argument("--fleet-seed", type=int, default=0,
                    help="soak seed: determines the whole job stream")
    # Deliberately no `choices`: unknown devices flow through
    # init_accelerator, which lists the valid names in its error.
    pf.add_argument("--replica", action="append", metavar="DEVICE",
                    help="device of one pool member (repeatable; "
                         "default U280 U280 U50)")
    pf.add_argument("--intensity", default="moderate",
                    choices=["light", "moderate", "heavy"],
                    help="fault-envelope preset per faulty job")
    pf.add_argument("--kill", action="append", metavar="INDEX@SECONDS",
                    help="kill replica INDEX at a virtual time "
                         "(repeatable, e.g. --kill 1@0.002)")
    pf.add_argument("--kills", type=int, default=0,
                    help="seeded random replica kills (when no --kill)")
    pf.add_argument("--iterations", type=int, default=30,
                    help="per-job iteration cap (must cover convergence; "
                         "the oracles expect converged answers)")
    pf.add_argument("--buffer-vertices", type=int, default=256)
    pf.add_argument("--pipelines", type=int, default=4)
    pf.add_argument("--max-queue-depth", type=int, default=64,
                    help="admission queue bound (deeper backlog is shed)")
    pf.add_argument("--rate-limit", type=float, default=None,
                    help="token-bucket admission rate (jobs per virtual "
                         "second; default unlimited)")
    pf.add_argument("--max-attempts", type=int, default=3,
                    help="dispatches per job before failover exhausts")
    pf.add_argument("--no-hedge", action="store_true",
                    help="disable hedged execution of deadline jobs")
    pf.add_argument("--report-json", default=None,
                    help="write the full fleet report as JSON")
    pf.add_argument("--journal", default=None, metavar="PATH",
                    help="write-ahead journal: every transition is "
                         "durable before it takes effect "
                         "(docs/DURABILITY.md)")
    pf.add_argument("--store", default=None, metavar="PATH",
                    help="durable result store (exactly-once terminal "
                         "results; needs --journal)")
    pf.add_argument("--crash-after", type=int, default=None,
                    metavar="EVENTS",
                    help="chaos: hard-kill the runtime after N loop "
                         "events (exit 3; recover with fleet resume)")
    pf.add_argument("--no-fsync", action="store_true",
                    help="skip per-append fsync on journal/store "
                         "(faster; crash guarantee weakened)")
    pf.add_argument("--autoscale", action="store_true",
                    help="attach the warm-start autoscaler: spawn/retire "
                         "replicas off admission telemetry "
                         "(docs/FLEET.md)")
    pf.add_argument("--autoscale-min", type=int, default=1,
                    metavar="N", help="replica floor (default 1)")
    pf.add_argument("--autoscale-max", type=int, default=8,
                    metavar="N", help="replica ceiling (default 8)")
    pf.add_argument("--autoscale-cooldown", type=float, default=0.5,
                    metavar="SECONDS",
                    help="virtual seconds between scaling actions "
                         "(default 0.5)")
    _add_perf_arguments(pf)

    pf = fleet_sub.add_parser(
        "resume",
        help="recover a hard-killed soak from its journal and finish it",
    )
    pf.add_argument("journal", help="path given to fleet run --journal")
    pf.add_argument("--store", default=None, metavar="PATH",
                    help="result store of the killed run (restores "
                         "exactly-once semantics across the crash)")
    pf.add_argument("--quarantine-dir", default=None, metavar="DIR",
                    help="where corrupt journal records are quarantined "
                         "(default: alongside the journal, skipped when "
                         "clean)")
    pf.add_argument("--no-fsync", action="store_true",
                    help="skip per-append fsync while resuming")
    pf.add_argument("--report-json", default=None,
                    help="write the recovered fleet report as JSON")

    pf = fleet_sub.add_parser(
        "status", help="replica and admission state from a report JSON"
    )
    pf.add_argument("report", help="path written by fleet run --report-json")

    pf = fleet_sub.add_parser(
        "report", help="summarise a fleet report JSON"
    )
    pf.add_argument("report", help="path written by fleet run --report-json")

    p = sub.add_parser(
        "serve",
        help="wall-clock HTTP gateway over the fleet kernel: tenants, "
             "quotas, durable store, graceful drain (docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8373,
                   help="listen port (0 picks a free one; the bound "
                        "port is printed)")
    p.add_argument("--replica", action="append", metavar="DEVICE",
                   help="device of one pool member (repeatable; "
                        "default U280 U50)")
    p.add_argument("--buffer-vertices", type=int, default=256)
    p.add_argument("--pipelines", type=int, default=4)
    p.add_argument("--tenant", action="append",
                   metavar="NAME:KEY[:RATE[:BURST]]",
                   help="tenant + API key, optional per-tenant admission "
                        "rate in jobs/s (repeatable; default "
                        "demo:demo-key, unmetered)")
    p.add_argument("--rate-limit", type=float, default=None,
                   help="gateway-wide admission rate (jobs per wall "
                        "second; default unlimited)")
    p.add_argument("--max-pending", type=int, default=256,
                   help="jobs allowed to wait across all tenants")
    p.add_argument("--drain-budget", type=float, default=30.0,
                   metavar="SECONDS",
                   help="graceful-drain budget; past it the gateway "
                        "exits with the resumable code 3")
    p.add_argument("--store", default=None, metavar="PATH",
                   help="durable SQLite job/result store: acknowledged "
                        "jobs survive kill -9 (needed by --resume)")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="record accepted traffic into a "
                        "regraph-traffic/v1 bundle (docs/SERVING.md)")
    p.add_argument("--resume", action="store_true",
                   help="before serving, replay the store (merged with "
                        "the --record bundle) through a fresh kernel "
                        "session — recovers a killed gateway")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip fsync on store/bundle appends (faster; "
                        "crash guarantee weakened)")

    p = sub.add_parser(
        "traffic",
        help="record / replay / inspect regraph-traffic/v1 bundles",
    )
    traffic_sub = p.add_subparsers(dest="traffic_command", required=True)

    pt = traffic_sub.add_parser(
        "record",
        help="serve a seeded job stream through a recording gateway",
    )
    pt.add_argument("bundle", help="bundle path to write (must not exist)")
    pt.add_argument("--num-jobs", type=int, default=8)
    pt.add_argument("--fleet-seed", type=int, default=0,
                    help="stream seed: determines every job exactly")
    pt.add_argument("--replica", action="append", metavar="DEVICE",
                    help="device of one pool member (repeatable; "
                         "default U280 U50)")
    pt.add_argument("--intensity", default="moderate",
                    choices=["light", "moderate", "heavy"])
    pt.add_argument("--iterations", type=int, default=30)
    pt.add_argument("--buffer-vertices", type=int, default=256)
    pt.add_argument("--pipelines", type=int, default=4)
    pt.add_argument("--no-fsync", action="store_true")

    pt = traffic_sub.add_parser(
        "replay",
        help="re-serve a bundle through a fresh virtual-clock session "
             "and verify the recorded report digest bit-for-bit",
    )
    pt.add_argument("bundle", help="path written by serve --record or "
                                   "traffic record")

    pt = traffic_sub.add_parser(
        "show", help="summarise a bundle without executing anything"
    )
    pt.add_argument("bundle")
    return parser


_COMMANDS = {
    "datasets": cmd_datasets,
    "preprocess": cmd_preprocess,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "codegen": cmd_codegen,
    "shuhai": cmd_shuhai,
    "selfcheck": cmd_selfcheck,
    "faultsim": cmd_faultsim,
    "check": cmd_check,
    "chaos": cmd_chaos,
    "fleet": cmd_fleet,
    "serve": cmd_serve,
    "traffic": cmd_traffic,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The exit-code contract is uniform (:data:`EXIT_CODE_EPILOG`,
    docs/TESTING.md): 0 success, 1 oracle/check failure, 2 user or
    fault error (one-line message on stderr, never a traceback),
    3 interrupted-or-killed but resumable.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RunInterrupted as exc:
        # Graceful SIGINT/SIGTERM: durable state is already flushed
        # (fsync-per-append WAL), so the run is resumable — exit 3,
        # the documented killed-but-resumable code, never a traceback.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 3
    except (ReproError, OSError, KeyError, ValueError) as exc:
        # str(KeyError) wraps the message in quotes; unwrap it.
        detail = (
            str(exc.args[0])
            if isinstance(exc, KeyError) and exc.args
            else str(exc)
        ) or exc.__class__.__name__
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
