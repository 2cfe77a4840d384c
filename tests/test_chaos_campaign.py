"""Chaos campaign engine: specs, generation, cell execution, soak."""

import numpy as np
import pytest

from repro.chaos import (
    CAMPAIGN_APPS,
    CampaignConfig,
    CampaignReport,
    CellResult,
    CellSpec,
    GraphSpec,
    generate_cells,
    run_campaign,
    run_cell,
)
from repro.errors import UserInputError
from repro.faults.plan import DeadChannelFault, FaultPlan, LatencySpikeFault

from tests.helpers import interpreted_oracle


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestGraphSpec:
    def test_build_is_deterministic(self):
        spec = GraphSpec(kind="powerlaw", vertices=500, edges=4000, seed=9)
        a, b = spec.build(), spec.build()
        assert a.num_vertices == b.num_vertices == 500
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_weighted_spec_builds_weights(self):
        spec = GraphSpec(
            kind="uniform", vertices=300, edges=2000, seed=2, weighted=True
        )
        graph = spec.build()
        assert graph.weights is not None
        assert graph.weights.size == graph.num_edges

    def test_rmat_spec_builds(self):
        graph = GraphSpec(
            kind="rmat", vertices=512, edges=4096, seed=4
        ).build()
        assert graph.num_vertices == 512
        assert graph.num_edges > 0

    def test_dict_round_trip(self):
        spec = GraphSpec(
            kind="rmat", vertices=512, edges=4096, seed=4,
            exponent=1.7, weighted=True,
        )
        assert GraphSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(UserInputError, match="kind"):
            GraphSpec(kind="torus", vertices=100, edges=200, seed=1)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(UserInputError, match="degenerate"):
            GraphSpec(kind="rmat", vertices=1, edges=10, seed=1)


class TestCellSpec:
    def test_dict_round_trip(self):
        cell = CellSpec(
            cell_id="x-1", device="U50", app="sssp",
            graph=GraphSpec(
                kind="powerlaw", vertices=400, edges=3000, seed=3,
                weighted=True,
            ),
            fault_plan=FaultPlan(
                seed=8, dead_channels=(DeadChannelFault(channel=1),)
            ),
            max_iterations=25,
        )
        assert CellSpec.from_dict(cell.to_dict()) == cell

    def test_with_plan_replaces_only_the_plan(self):
        cell = CellSpec(
            cell_id="x-2", device="U280", app="bfs",
            graph=GraphSpec(kind="uniform", vertices=300, edges=2000, seed=1),
            fault_plan=FaultPlan(
                seed=8, dead_channels=(DeadChannelFault(channel=1),)
            ),
        )
        swapped = cell.with_plan(FaultPlan(seed=8))
        assert swapped.fault_plan.is_empty
        assert swapped.cell_id == cell.cell_id
        assert swapped.graph == cell.graph


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
class TestGeneration:
    def test_same_config_same_cells(self):
        config = CampaignConfig(seed=5, cells=12)
        assert generate_cells(config) == generate_cells(config)

    def test_different_seed_different_cells(self):
        a = generate_cells(CampaignConfig(seed=5, cells=12))
        b = generate_cells(CampaignConfig(seed=6, cells=12))
        assert a != b

    def test_devices_round_robin(self):
        cells = generate_cells(CampaignConfig(seed=1, cells=8))
        assert [c.device for c in cells] == ["U280", "U50"] * 4

    def test_apps_within_oracle_set(self):
        cells = generate_cells(CampaignConfig(seed=2, cells=20))
        assert all(c.app in CAMPAIGN_APPS for c in cells)
        # SSSP cells must carry weighted graph specs.
        for cell in cells:
            assert cell.graph.weighted == (cell.app == "sssp")

    def test_config_validation(self):
        with pytest.raises(UserInputError, match="cell"):
            CampaignConfig(cells=0)
        with pytest.raises(UserInputError, match="intensity"):
            CampaignConfig(intensity="apocalyptic")
        with pytest.raises(UserInputError, match="device"):
            CampaignConfig(devices=())
        with pytest.raises(UserInputError, match="oracle"):
            CampaignConfig(apps=("pagerank", "radii"))


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
class TestRunCell:
    def _cell(self, app="pagerank", plan=None, weighted=False):
        return CellSpec(
            cell_id="t-0", device="U280", app=app,
            graph=GraphSpec(
                kind="powerlaw", vertices=400, edges=3200, seed=7,
                weighted=weighted,
            ),
            fault_plan=plan if plan is not None else FaultPlan(),
        )

    def test_clean_cell_survives_with_breaker_state(self):
        result = run_cell(self._cell())
        assert result.survived
        assert result.violations == []
        assert result.digest
        # 4 pipelines -> 8 channels, every one reported.
        assert len(result.health["channel_breakers"]) == 8

    @pytest.mark.parametrize("app", CAMPAIGN_APPS)
    def test_every_oracle_app_executes(self, app):
        result = run_cell(self._cell(app=app, weighted=(app == "sssp")))
        assert result.survived, (app, result.detail)

    def test_identical_cell_identical_digest(self):
        plan = FaultPlan(
            seed=4, dead_channels=(DeadChannelFault(channel=0),)
        )
        a = run_cell(self._cell(plan=plan))
        b = run_cell(self._cell(plan=plan))
        assert a.digest == b.digest
        assert a.status == b.status == "ok"
        assert a.health["replans"] == b.health["replans"] >= 1

    def test_digest_identical_without_compiled_core(self):
        # A fault-heavy cell exercises the compiled engine on clean and
        # faulted iterations alike; the interpreted oracle must not
        # move a single bit of the digest.
        plan = FaultPlan(
            seed=9,
            dead_channels=(DeadChannelFault(channel=2, onset_cycle=0.0),),
            latency_spikes=(
                LatencySpikeFault(
                    channel=1,
                    onset_cycle=0.0,
                    duration_cycles=1e4,
                    multiplier=5.0,
                ),
            ),
        )
        cell = self._cell(plan=plan)
        production = run_cell(cell)
        with interpreted_oracle():
            oracle = run_cell(cell)
        assert production.digest == oracle.digest
        assert production.health == oracle.health
        assert production.total_cycles == oracle.total_cycles

    def test_result_dict_round_trip(self):
        result = run_cell(self._cell())
        copy = CellResult.from_dict(result.to_dict())
        assert copy.digest == result.digest
        assert copy.status == result.status
        assert copy.health == result.health


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
class TestCampaign:
    def test_bounded_campaign_survives(self):
        config = CampaignConfig(seed=21, cells=10)
        seen = []
        report = run_campaign(
            config, progress=lambda i, n, r: seen.append((i, n))
        )
        assert report.passed
        assert report.survived == 10 and report.failed == 0
        assert seen == [(i, 10) for i in range(10)]
        for result in report.results:
            assert result.health.get("channel_breakers"), result.cell_id

    def test_report_round_trip(self):
        report = run_campaign(CampaignConfig(seed=22, cells=4))
        copy = CampaignReport.from_dict(report.to_dict())
        assert copy.survived == report.survived
        assert [r.digest for r in copy.results] == [
            r.digest for r in report.results
        ]

    @pytest.mark.slow
    def test_acceptance_campaign_both_devices(self):
        """ISSUE acceptance: >= 50 seeded cells across U280/U50, zero
        conformance violations, breaker state in every health report."""
        config = CampaignConfig(seed=0, cells=50)
        report = run_campaign(config)
        assert {c["device"] for c in report.cells} == {"U280", "U50"}
        assert report.passed, [
            (r.cell_id, r.detail) for r in report.results if not r.survived
        ]
        for result in report.results:
            assert result.health["channel_breakers"]
        # The campaign actually soaked: faults were absorbed somewhere.
        assert sum(report.fault_counts().values()) > 0


#: ``(cell_id, status, digest prefix)`` of the fault-heavy campaign
#: below, pinned from the implementation whose faulted timing passes
#: still walked the interpreted pipelines: the compiled fault path must
#: not move a single digest.
HEAVY_CAMPAIGN_PINS = [
    ("c0031-0000", "ok", "b3461ea1767d9cd0"),
    ("c0031-0001", "ok", "fee1dc713d8cb018"),
    ("c0031-0002", "ok", "ee37175f6f0ca8b1"),
    ("c0031-0003", "ok", "2b6116beebe4c07b"),
    ("c0031-0004", "ok", "cd37d67ee2710256"),
    ("c0031-0005", "ok", "09dbd64573c88e3b"),
]


@pytest.mark.slow
def test_heavy_campaign_digests_match_the_oracle_and_the_pins(tmp_path):
    """Digest gate: the same fault-heavy ``repro chaos run`` through
    production and under the interpreted oracle."""
    import json

    from repro.cli import main

    def triples(oracle: bool):
        path = tmp_path / f"campaign-{oracle}.json"
        argv = [
            "chaos", "run", "--cells", "6", "--chaos-seed", "31",
            "--intensity", "heavy", "--iterations", "20", "--no-shrink",
            "--report-json", str(path),
        ]
        if oracle:
            with interpreted_oracle():
                assert main(argv) == 0
        else:
            assert main(argv) == 0
        report = json.loads(path.read_text())
        return [
            (r["cell_id"], r["status"], r["digest"])
            for r in report["results"]
        ]

    production = triples(False)
    assert production == triples(True)
    assert [
        (cell, status, digest[:16]) for cell, status, digest in production
    ] == HEAVY_CAMPAIGN_PINS
