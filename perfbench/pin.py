"""Regenerate ``perfbench/pins.json``, the pinned simulated outputs.

    python3 perfbench/pin.py

For every input slot (``--seed`` mod 16) and for the warm-up inputs it
records each op's props digest, exact total cycles and iteration count.
The simulated results are meant to stay bit-identical across changes,
so rerun this only when a change is *supposed* to move them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as w  # noqa: E402


def main() -> int:
    pins = {"cli_run": {}, "analytics": {}}
    pins["cli_run"]["warmup"] = w.cli_pins(
        w.WARMUP_GRAPH_SEED, w.CLI_WARMUP_SHRINK
    )
    pins["analytics"]["warmup"] = w.analytics_pins(
        w.ANALYTICS_WARMUP_GRAPHS, w.WARMUP_GRAPH_SEED
    )
    for slot in range(w.PIN_SLOTS):
        pins["cli_run"][str(slot)] = w.cli_pins(slot + 1)
        pins["analytics"][str(slot)] = w.analytics_pins(
            w.ANALYTICS_GRAPHS, slot + 1
        )
        print(f"slot {slot} pinned", flush=True)
    w.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
