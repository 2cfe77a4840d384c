"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli_run,analytics,serve_http} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics (setup_s, latency p50 and
tail, throughput, peak RSS) with no tracing.  ``--trace 1`` runs the
same ops under the span recorder and reports the per-layer metrics
instead.  Every op's output is checked; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is 0 only when every check passed.  ``perfbench/design.json``
records why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Single-threaded numeric libraries for this process and its children;
# must be set before numpy is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples):
    """(percentile, value): the highest whole percentile with at least
    ten samples above it, by nearest rank."""
    n = len(samples)
    if n < 20:
        raise ValueError(f"need >= 20 samples for a tail, got {n}")
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def end_to_end(m):
    pct, tail = tail_percentile(m.latencies)
    values = {
        "setup_s": statistics.median(m.setup_seconds),
        "latency_p50_ms": statistics.median(m.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "throughput_per_s": m.attempted / m.phase_seconds,
        "peak_rss_mb": m.peak_rss_mb,
    }
    return values, pct


def measure(workload: str, seed: int, seconds: int, trace: bool,
            tiny: bool = False) -> dict:
    """Run a workload; return the result object (printing as it goes)."""
    import workloads

    m = workloads.WORKLOADS[workload](seed, seconds, trace, tiny=tiny)
    for note in m.notes:
        print(note)
    for problem in m.problems:
        print(f"MISMATCH {problem}")
    attempted = max(m.attempted, 1)
    print(f"error_rate: {m.failed / attempted:.6f} "
          f"({m.failed} failed / {attempted} attempted)")
    if trace:
        import layers

        units = layers.metric_units()
        values = m.layers
        spans = sorted(
            (k for k in values if k.endswith(".share")),
            key=lambda k: -values[k],
        )
        for key in spans[:5]:
            print(f"top span {key[:-len('.share')]}: "
                  f"{values[key]:.1%} of op wall")
    else:
        units = END_TO_END_UNITS
        values, pct = end_to_end(m)
        for name, unit in units.items():
            suffix = (
                f"  (p{pct} of {m.attempted} ops)"
                if name == "latency_tail_ms" else ""
            )
            print(f"{name}: {values[name]:.6g} {unit}{suffix}")
    return {
        "correct": m.failed == 0,
        "attempted": attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_run", "analytics", "serve_http"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
