"""Frozen copy of the former fault-free run loop.

``SystemSimulator.run`` used to iterate every fault-free run (``repro
run``, ``check``, ``sweep``) beside the resilient executor's loop.  Its
body is kept here verbatim as the reference the one loop
(:meth:`repro.faults.resilience.ResilientExecutor.run`) is checked
against; the two passes it called are bound to their current names.
It is test-only and must not change.
"""

from __future__ import annotations

from typing import Optional

from repro.core.system import RunReport, SystemSimulator


class FrozenPlainLoop(SystemSimulator):
    """A simulator with the former plain loop as its ``run``."""

    _timing_pass = SystemSimulator.iteration_timing
    _compiled_functional = SystemSimulator.functional_iteration

    def run(
        self,
        app,
        max_iterations: Optional[int] = None,
        functional: bool = True,
    ) -> RunReport:
        """Execute the app until convergence or the iteration cap.

        With ``functional=False`` only timing is simulated (properties are
        not evolved) and exactly ``max_iterations`` iterations are
        charged — the mode used by pure-throughput sweeps.
        """
        limit = max_iterations if max_iterations is not None else app.max_iterations
        graph = app.graph
        run = RunReport(
            app_name=app.name,
            graph_name=graph.name,
            accel_label=self.plan.accelerator.label,
            frequency_mhz=self.frequency_mhz,
            edges_per_iteration=self.plan.total_edges(),
            final_plan=self.plan,
        )
        props = app.init_props() if functional else None
        for _ in range(limit):
            iteration = self._timing_pass(graph.num_vertices)
            run.iteration_reports.append(iteration)
            run.total_cycles += iteration.total_cycles
            run.iterations += 1
            if functional:
                new_props = self._compiled_functional(app, props)
                if app.has_converged(props, new_props, run.iterations):
                    props = new_props
                    run.converged = True
                    break
                props = new_props
        if functional:
            run.props = props
            run.result = app.finalize(props)
        return run


def frozen_run(pre, framework, app, **kwargs) -> RunReport:
    """The former plain path of ``ReGraph.run`` on a preprocessed graph,
    props left in the relabelled vertex order."""
    sim = FrozenPlainLoop(pre.plan, framework.platform, framework.channel)
    return sim.run(app, **kwargs)
