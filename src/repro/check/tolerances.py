"""Declared tolerance bands of the conformance subsystem.

Every cross-check in :mod:`repro.check` compares two *independent*
descriptions of the same machine — cycle-level simulators, the Eq. 1-4
analytic model, NumPy reference algorithms — and independence only
buys confidence if the allowed disagreement is declared up front rather
than tuned after the fact.  This module is that declaration: one frozen
dataclass, used by the oracles, the invariant checker and the ``repro
check`` CLI alike, so a drifting model or simulator fails loudly instead
of silently widening an inline constant.

Band provenance:

* **Model vs simulator** — Fig. 9 reports the analytic model within
  ~10% of hardware on average with larger per-partition excursions; the
  per-task band is looser than the makespan band because single tasks
  are dominated by the measured constants while makespans average them
  out.
* **Algorithm results** — BFS levels, SSSP distances and WCC labels are
  integer-exact by construction; PageRank agrees up to Q1.30
  fixed-point resolution accumulated over the run (the same bound the
  functional equivalence tests use).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceBands:
    """Allowed disagreement between the three machine descriptions."""

    #: Relative cycle error allowed per task: |sim - est| / sim.
    model_task_rel: float = 0.45
    #: Relative error allowed on the whole-iteration makespan.
    model_makespan_rel: float = 0.25
    #: Relative bandwidth overshoot tolerated before a task is declared
    #: faster than its HBM channel (numerical slack only).
    bandwidth_rel: float = 1e-9
    #: Absolute slack (cycles) when comparing event boundaries.
    cycle_eps: float = 1e-6
    #: Extra absolute tolerance on PageRank ranks beyond the accumulated
    #: fixed-point resolution bound.
    pagerank_extra_atol: float = 1e-6
    #: Practical LUT ceiling (Table I footnote: < 80% places/routes).
    max_lut_util: float = 0.8

    def pagerank_atol(self, max_out_degree: float, iterations: int) -> float:
        """Accumulated Q1.30 fixed-point error bound for a PageRank run.

        Each iteration's divide-by-degree and gather chain loses at most
        one resolution step per contributing edge of the heaviest vertex.
        """
        return (
            max(float(max_out_degree), 1.0) / 2**30 * (iterations + 1)
            + self.pagerank_extra_atol
        )


#: The bands every built-in check uses unless a caller overrides them.
DEFAULT_BANDS = ToleranceBands()
