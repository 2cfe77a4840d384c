"""Perf-regression bench for the execution acceleration layer.

Unlike the figure benches (pytest-benchmark), this is a standalone
script: CI runs it twice — once serial, once with ``--jobs 4`` against
the serial run as ``--baseline`` — and fails the build when any
digest drifts from the baseline's or the speedup on the one bench
that fans out over workers (the chaos campaign) falls below
``--min-speedup``.

Timings are medians over ``--reps`` repetitions and are additionally
reported *normalized* by a small numpy calibration loop, so numbers
from different machines land on a comparable scale.  Digests cover the
full serialized outcome of each bench, which is how "parallel execution
preserves bit-identical reports" is enforced rather than assumed.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py \
        --jobs 1 --out BENCH_perf_serial.json
    PYTHONPATH=src python benchmarks/bench_perf_regression.py \
        --jobs 4 --baseline BENCH_perf_serial.json \
        --min-speedup 1.5 --out BENCH_perf.json
"""

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

BENCH_SCHEMA = "regraph-bench-perf/v1"
COMPILED_SCHEMA = "regraph-bench-compiled/v1"

#: Channel variants for the compiled cache-miss bench: each is a set of
#: field overrides applied to the default HbmTimingParams — the sweep
#: shape (same plan, fresh channel binding per point) whose cost the
#: compiled core exists to collapse.
COMPILED_CHANNEL_VARIANTS = (
    {},
    {"min_latency": 24.0},
    {"max_latency": 80.0},
    {"latency_per_stride_byte": 0.02},
    {"max_outstanding": 8},
    {"max_outstanding": 48},
    {"burst_blocks_per_cycle": 0.5},
    {"min_latency": 12.0, "burst_blocks_per_cycle": 1.5},
)

@contextlib.contextmanager
def _interpreted_oracle():
    """Every simulator pass takes the interpreted per-task walks inside
    the block (the class-patching of ``tests/helpers.py``'s
    ``interpreted_oracle``)."""
    from unittest import mock

    from repro.core.system import SystemSimulator

    with contextlib.ExitStack() as stack:
        for name, oracle in (
            ("_compiled_timing", SystemSimulator._compute_timing),
            ("_faulted_timing", SystemSimulator._compute_timing),
            ("functional_iteration", SystemSimulator._interpreted_functional),
        ):
            stack.enter_context(mock.patch.object(SystemSimulator, name, oracle))
        yield


#: ``(label, context)`` of production and the interpreted reference
#: oracle, whose passes all take the per-task walks.
SIMULATOR_PATHS = (
    ("compiled", contextlib.nullcontext),
    ("interpreted", _interpreted_oracle),
)


#: Benches whose work actually fans out over workers: only these take
#: ``--jobs`` and are held to the ``--min-speedup`` gate.  The others
#: run serially and are compared to the baseline by digest only —
#: ``pipeline_execute`` measures the vectorized kernels, and the model
#: sweep and fleet soak lost their worker pools because both measured
#: slower than their serial loops (docs/PERFORMANCE.md).
PARALLEL_BENCHES = ("chaos_campaign",)


def _digest(obj) -> str:
    """sha256 over a canonical JSON rendering of a bench outcome."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _calibration_seconds() -> float:
    """A fixed numpy workload; timings are divided by this to normalize
    across machines (same trick as pytest-benchmark's calibration)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    start = time.perf_counter()
    for _ in range(20):
        a = np.tanh(a @ a.T / 256.0)
    return time.perf_counter() - start


def bench_pipeline_execute():
    """PageRank on HD through the full simulator."""
    from repro.apps.pagerank import PageRank
    from repro.core.framework import ReGraph
    from repro.faults.resilience import ResilientExecutor
    from repro.graph.datasets import load_dataset

    graph = load_dataset("HD", scale=0.05, seed=1)
    framework = ReGraph("U280")
    pre = framework.preprocess(graph)
    executor = ResilientExecutor(pre, framework.platform, framework.channel)
    run = executor.run(PageRank(pre.graph), max_iterations=5)
    return {
        "iterations": run.iterations,
        "total_cycles": run.total_cycles,
        "props": hashlib.sha256(run.props.tobytes()).hexdigest(),
    }


def bench_chaos_campaign(workers):
    from repro.chaos import CampaignConfig, run_campaign

    config = CampaignConfig(seed=17, cells=8, max_iterations=20)
    report = run_campaign(config, shrink_failures=False, workers=workers)
    return report.to_dict()


def bench_model_sweep():
    from repro.arch.config import PipelineConfig
    from repro.graph.datasets import load_dataset
    from repro.model.sweep import sensitivity_report

    graph = load_dataset("HD", scale=0.05, seed=1)
    report = sensitivity_report(
        graph, PipelineConfig(gather_buffer_vertices=1024)
    )
    return {
        name: [
            (p.value, p.makespan_cycles, p.num_partitions, p.combo_label)
            for p in points
        ]
        for name, points in report.items()
    }


def bench_fleet_soak():
    from repro.chaos.fleet_soak import FleetSoakConfig, run_fleet_soak

    config = FleetSoakConfig(seed=23, jobs=10, random_kills=1)
    result = run_fleet_soak(config)
    # The digest covers the FleetReport only, not the perf stats
    # beside it.
    return {"digest": result.report.digest(),
            "completed": result.report.completed}


BENCHES = {
    "pipeline_execute": bench_pipeline_execute,
    "chaos_campaign": bench_chaos_campaign,
    "model_sweep": bench_model_sweep,
    "fleet_soak": bench_fleet_soak,
}


def run_benches(workers, reps):
    results = {}
    for name, fn in BENCHES.items():
        times = []
        digest = None
        for _ in range(reps):
            start = time.perf_counter()
            outcome = fn(workers) if name in PARALLEL_BENCHES else fn()
            times.append(time.perf_counter() - start)
            rep_digest = _digest(outcome)
            if digest is None:
                digest = rep_digest
            elif digest != rep_digest:
                print(f"FAIL: {name} is not deterministic across reps "
                      f"({digest[:12]} vs {rep_digest[:12]})")
                sys.exit(1)
        results[name] = {
            "median_seconds": statistics.median(times),
            "reps": reps,
            "digest": digest,
        }
        print(f"  {name:>18}: {results[name]['median_seconds']:.3f} s "
              f"median, digest {digest[:12]}")
    return results


def run_compiled_bench(reps, min_speedup):
    """Cache-miss bench for the compiled simulation core.

    Times a channel-parameter sweep (one cold timing pass per variant)
    through the interpreted walk vs the compiled batched evaluator, on
    the same scheduling plan; asserts the busy sums are bit-identical
    at every point, and gates the median speedup when asked.  Also
    records per-app MTEPS under each path — the end-to-end numbers the
    figures quote — whose equality is enforced digest-style too.

    Returns ``(report, failed)``.
    """
    import dataclasses
    import statistics as stats

    from repro.compiled import CompiledEngine, compile_plan
    from repro.core.framework import ReGraph
    from repro.core.system import SystemSimulator
    from repro.faults.resilience import ResilientExecutor
    from repro.graph.generators import rmat_graph
    from repro.hbm.channel import HbmChannelModel, HbmTimingParams

    graph = rmat_graph(12, 16, seed=3)
    framework = ReGraph("U280")
    pre = framework.preprocess(graph)
    variants = [
        dataclasses.replace(HbmTimingParams(), **overrides)
        for overrides in COMPILED_CHANNEL_VARIANTS
    ]

    # Sweep bench: timing passes only; every variant is a fresh
    # evaluation on both paths (new simulators, a new engine per rep).
    interp_times, compiled_times = [], []
    interp_sums = compiled_sums = None
    compile_seconds = None
    for _ in range(reps):
        start = time.perf_counter()
        sums = []
        for params in variants:
            sim = SystemSimulator(
                pre.plan, framework.platform, HbmChannelModel(params)
            )
            report = sim._compute_timing(graph.num_vertices)
            sums.append((report.little_cycles, report.big_cycles))
        interp_times.append(time.perf_counter() - start)
        interp_sums = sums

        start = time.perf_counter()
        cplan = compile_plan(pre.plan)  # cold structure every rep
        compile_seconds = time.perf_counter() - start
        engine = CompiledEngine(cplan)
        start = time.perf_counter()
        sums = []
        for params in variants:
            little, big = engine.busy_cycles(HbmChannelModel(params))
            sums.append((little, big))
        compiled_times.append(time.perf_counter() - start)
        compiled_sums = sums

    failed = False
    if interp_sums != compiled_sums:
        print("FAIL: compiled busy sums differ from interpreted sums")
        failed = True
    interp_median = stats.median(interp_times)
    compiled_median = stats.median(compiled_times)
    speedup = interp_median / max(compiled_median, 1e-9)
    print(f"  compiled sweep: interpreted {interp_median * 1e3:.1f} ms, "
          f"compiled {compiled_median * 1e3:.1f} ms "
          f"(+{(compile_seconds or 0) * 1e3:.1f} ms compile) -> "
          f"{speedup:.1f}x over {len(variants)} channel variants")
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: compiled cache-miss speedup {speedup:.2f}x < "
              f"required {min_speedup}x")
        failed = True

    # Per-app MTEPS under both paths (small graph, full runs).
    apps_report = {}
    app_graph = rmat_graph(10, 8, seed=5)
    for app in ("pagerank", "bfs", "closeness", "sssp", "wcc"):
        per_path = {}
        for key, path in SIMULATOR_PATHS:
            fw = ReGraph("U280")
            start = time.perf_counter()
            pre, app_instance = _app_case(fw, app, app_graph)
            with path():
                run = ResilientExecutor(pre, fw.platform, fw.channel).run(
                    app_instance, max_iterations=8
                )
            seconds = time.perf_counter() - start
            per_path[key] = {
                "mteps": run.mteps,
                "total_cycles": run.total_cycles,
                "wall_seconds": seconds,
            }
        if (per_path["compiled"]["total_cycles"]
                != per_path["interpreted"]["total_cycles"]):
            print(f"FAIL: {app} total_cycles differ between paths")
            failed = True
        apps_report[app] = per_path
        print(f"  {app:>18}: {per_path['compiled']['mteps']:.0f} MTEPS "
              f"(both paths, cycles identical)")

    return {
        "schema": COMPILED_SCHEMA,
        "graph": {"kind": "rmat", "scale": 12, "edge_factor": 16, "seed": 3},
        "variants": len(variants),
        "reps": reps,
        "interpreted_median_seconds": interp_median,
        "compiled_median_seconds": compiled_median,
        "compile_seconds": compile_seconds,
        "speedup": speedup,
        "sums_identical": interp_sums == compiled_sums,
        "apps": apps_report,
    }, failed


def run_functional_bench(reps, min_speedup):
    """Cache-miss convergence bench for the compiled functional pass.

    Per app: one preprocessed plan, then full convergence runs (timing
    + functional, each on a fresh simulator) through the interpreted
    per-task walk vs the compiled batched engine.  Preprocessing is
    excluded — it is identical on both paths and would mask the
    functional-pass ratio.  Bit-identity of cycles
    and final properties is asserted at every point; the median overall
    speedup is gated when asked (skipped on single-CPU machines, the
    same leniency the parallel gate applies).

    Returns ``(report_section, failed)``.
    """
    import statistics as stats

    from repro.apps.bfs import BreadthFirstSearch
    from repro.apps.closeness import ClosenessCentrality
    from repro.apps.pagerank import PageRank
    from repro.apps.sssp import SingleSourceShortestPaths
    from repro.apps.wcc import WeaklyConnectedComponents, symmetrized
    from repro.check.runner import with_random_weights
    from repro.compiled import functional_engine
    from repro.core.framework import ReGraph
    from repro.faults.resilience import ResilientExecutor
    from repro.graph.generators import rmat_graph

    graph = rmat_graph(12, 16, seed=3)
    framework = ReGraph("U280")
    pre = framework.preprocess(graph)
    weighted_pre = framework.preprocess(with_random_weights(graph, seed=5))
    sym_pre = framework.preprocess(symmetrized(graph))
    root = pre.to_internal_vertex(0)

    cases = {
        "pagerank": (pre, lambda: PageRank(pre.graph)),
        "bfs": (pre, lambda: BreadthFirstSearch(pre.graph, root=root)),
        "closeness": (
            pre, lambda: ClosenessCentrality(pre.graph, root=root)
        ),
        "sssp": (
            weighted_pre,
            lambda: SingleSourceShortestPaths(
                weighted_pre.graph,
                root=weighted_pre.to_internal_vertex(0),
            ),
        ),
        "wcc": (sym_pre, lambda: WeaklyConnectedComponents(sym_pre.graph)),
    }

    # Charge structure lowering separately, once (it is reused across
    # every iteration, app and rep sharing the graph).
    for case_pre in {id(p): p for p, _ in cases.values()}.values():
        case_pre.plan.graph.__dict__.pop("_functional_engine", None)
    start = time.perf_counter()
    for case_pre in {id(p): p for p, _ in cases.values()}.values():
        functional_engine(case_pre.plan)
    lower_seconds = time.perf_counter() - start

    failed = False
    apps_report = {}
    speedups = []
    for app, (case_pre, make_app) in cases.items():
        times = {"compiled": [], "interpreted": []}
        outcomes = {}
        for _ in range(reps):
            for key, path in SIMULATOR_PATHS:
                executor = ResilientExecutor(
                    case_pre, framework.platform, framework.channel
                )
                start = time.perf_counter()
                with path():
                    run = executor.run(make_app(), max_iterations=30)
                times[key].append(time.perf_counter() - start)
                outcome = {
                    "iterations": run.iterations,
                    "total_cycles": run.total_cycles,
                    "props": hashlib.sha256(run.props.tobytes()).hexdigest(),
                }
                if key in outcomes and outcomes[key] != outcome:
                    print(f"FAIL: {app} {key} run not deterministic")
                    failed = True
                outcomes[key] = outcome
        if outcomes["compiled"] != outcomes["interpreted"]:
            print(f"FAIL: {app} compiled functional outcome differs from "
                  f"interpreted (bit-identity broken)")
            failed = True
        interp = stats.median(times["interpreted"])
        compiled_median = stats.median(times["compiled"])
        speedup = interp / max(compiled_median, 1e-9)
        speedups.append(speedup)
        apps_report[app] = {
            "interpreted_median_seconds": interp,
            "compiled_median_seconds": compiled_median,
            "speedup": speedup,
            "iterations": outcomes["compiled"]["iterations"],
            "outcome_identical": (
                outcomes["compiled"] == outcomes["interpreted"]
            ),
        }
        print(f"  {app:>18}: interpreted {interp * 1e3:.1f} ms, "
              f"compiled {compiled_median * 1e3:.1f} ms -> "
              f"{speedup:.1f}x functional convergence")

    median_speedup = stats.median(speedups)
    print(f"  functional pass: {median_speedup:.1f}x median speedup "
          f"(+{lower_seconds * 1e3:.1f} ms one-time lowering)")
    if min_speedup is not None:
        if (os.cpu_count() or 1) < 2:
            print(f"  (skipping {min_speedup}x functional gate: "
                  f"single-CPU machine)")
        elif median_speedup < min_speedup:
            print(f"FAIL: functional-pass speedup {median_speedup:.2f}x < "
                  f"required {min_speedup}x")
            failed = True

    return {
        "graph": {"kind": "rmat", "scale": 12, "edge_factor": 16, "seed": 3},
        "reps": reps,
        "lower_seconds": lower_seconds,
        "median_speedup": median_speedup,
        "apps": apps_report,
    }, failed


def run_oracles_bench(reps):
    """Median wall time and output digest of each reference oracle.

    These are the judges every served, chaos and fleet job pays for
    (``repro.check.oracles.judge``), timed on the functional block's
    graph: WCC on its symmetrised edge set, SSSP on its weighted copy.
    A digest that changes between reps fails the bench.

    Returns ``(report_section, failed)``.
    """
    from repro.apps.reference import (
        bfs_reference,
        pagerank_reference,
        sssp_reference,
        wcc_reference,
    )
    from repro.apps.wcc import symmetrized
    from repro.check.runner import with_random_weights
    from repro.graph.generators import rmat_graph

    graph = rmat_graph(12, 16, seed=3)
    weighted = with_random_weights(graph, seed=5)
    sym = symmetrized(graph)
    cases = {
        "wcc": lambda: wcc_reference(sym),
        "bfs": lambda: bfs_reference(graph, 0),
        "sssp": lambda: sssp_reference(weighted, 0),
        "pagerank": lambda: pagerank_reference(graph),
    }
    failed = False
    apps_report = {}
    for name, oracle in cases.items():
        times, digests = [], []
        for _ in range(reps):
            start = time.perf_counter()
            out = oracle()
            times.append(time.perf_counter() - start)
            digests.append(hashlib.sha256(out.tobytes()).hexdigest())
        if len(set(digests)) != 1:
            print(f"FAIL: {name} reference not deterministic across reps")
            failed = True
        apps_report[name] = {
            "median_seconds": statistics.median(times),
            "digest": digests[0],
        }
        print(f"  {name + ' reference':>18}: "
              f"{apps_report[name]['median_seconds'] * 1e3:.2f} ms median, "
              f"digest {apps_report[name]['digest'][:12]}")
    return {
        "graph": {"kind": "rmat", "scale": 12, "edge_factor": 16, "seed": 3},
        "reps": reps,
        "apps": apps_report,
    }, failed


def _app_case(framework, app, graph):
    """``(preprocessed graph, app)`` of one name-dispatched app run (the
    chaos campaign's mapping)."""
    from repro.apps.bfs import BreadthFirstSearch
    from repro.apps.closeness import ClosenessCentrality
    from repro.apps.pagerank import PageRank
    from repro.apps.sssp import SingleSourceShortestPaths
    from repro.apps.wcc import WeaklyConnectedComponents, symmetrized
    from repro.check.runner import with_random_weights

    if app == "sssp":
        graph = with_random_weights(graph, seed=5)
    elif app == "wcc":
        graph = symmetrized(graph)
    pre = framework.preprocess(graph)
    root = pre.to_internal_vertex(0)
    builders = {
        "pagerank": lambda g: PageRank(g),
        "bfs": lambda g: BreadthFirstSearch(g, root=root),
        "closeness": lambda g: ClosenessCentrality(g, root=root),
        "sssp": lambda g: SingleSourceShortestPaths(g, root=root),
        "wcc": WeaklyConnectedComponents,
    }
    return pre, builders[app](pre.graph)


def compare_to_baseline(report, baseline_path, min_speedup):
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failed = False
    for name, bench in report["benches"].items():
        base = baseline["benches"].get(name)
        if base is None:
            continue
        if bench["digest"] != base["digest"]:
            print(f"FAIL: {name} digest differs from baseline "
                  f"({bench['digest'][:12]} vs {base['digest'][:12]}) — "
                  f"the simulated outcome changed")
            failed = True
            continue
        speedup = base["median_seconds"] / max(bench["median_seconds"], 1e-9)
        bench["speedup_vs_baseline"] = speedup
        print(f"  {name:>18}: {speedup:.2f}x vs baseline")
        if name not in PARALLEL_BENCHES or min_speedup is None:
            continue
        if (os.cpu_count() or 1) < 2:
            print(f"  (skipping {min_speedup}x gate on {name}: "
                  f"single-CPU machine cannot parallelize)")
        elif speedup < min_speedup:
            print(f"FAIL: {name} speedup {speedup:.2f}x < "
                  f"required {min_speedup}x")
            failed = True
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the chaos campaign "
                             "bench (default 1 = serial)")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per bench; the median is kept")
    parser.add_argument("--seed", type=int, default=1,
                        help="recorded in the report for provenance")
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "results", "BENCH_perf.json",
        ),
        help="report path (default benchmarks/results/BENCH_perf.json)",
    )
    parser.add_argument("--baseline", default=None,
                        help="earlier BENCH_perf.json to diff against")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if a parallel-friendly bench beats the "
                             "baseline by less than this factor")
    parser.add_argument("--compiled-out", default=None,
                        help="also run the compiled-core cache-miss bench "
                             "and write its report to this path")
    parser.add_argument("--min-compiled-speedup", type=float, default=None,
                        help="fail if the compiled sweep beats the "
                             "interpreted sweep by less than this factor "
                             "(implies the compiled bench)")
    parser.add_argument("--min-functional-speedup", type=float, default=None,
                        help="fail if the compiled functional pass beats "
                             "the interpreted walk on the convergence "
                             "sweep by less than this factor")
    args = parser.parse_args(argv)

    calibration = _calibration_seconds()
    print(f"perf regression bench: jobs={args.jobs} reps={args.reps} "
          f"(calibration {calibration * 1e3:.1f} ms)")
    benches = run_benches(args.jobs, args.reps)
    for bench in benches.values():
        bench["normalized"] = bench["median_seconds"] / calibration

    functional, functional_failed = run_functional_bench(
        args.reps, args.min_functional_speedup
    )

    oracles, oracles_failed = run_oracles_bench(args.reps)

    report = {
        "schema": BENCH_SCHEMA,
        "jobs": args.jobs,
        "seed": args.seed,
        "calibration_seconds": calibration,
        "benches": benches,
        "functional": functional,
        "oracles": oracles,
    }
    failed = functional_failed or oracles_failed
    if args.baseline:
        failed = compare_to_baseline(
            report, args.baseline, args.min_speedup
        ) or failed
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"report written to {args.out}")

    if args.compiled_out or args.min_compiled_speedup is not None:
        compiled_report, compiled_failed = run_compiled_bench(
            args.reps, args.min_compiled_speedup
        )
        failed = failed or compiled_failed
        compiled_out = args.compiled_out or "BENCH_compiled.json"
        with open(compiled_out, "w") as fh:
            json.dump(compiled_report, fh, indent=2)
        print(f"compiled report written to {compiled_out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
