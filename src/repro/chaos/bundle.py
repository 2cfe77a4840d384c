"""Replayable repro bundles: a failure as a single JSON file.

A bundle carries everything needed to re-execute a failing cell with no
access to the campaign that found it: the cell spec (device, app, graph
*recipe*, original fault plan), the resilience policy, the shrunk
minimal plan, and the failure digest the replay must reproduce.  Replay
goes through the same :func:`repro.chaos.campaign.run_cell` primitive
the campaign used, so a digest match means the failure — not merely *a*
failure — was reproduced bit-for-bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, TypedDict, Union

from repro.errors import UserInputError
from repro.faults.plan import FaultPlan
from repro.faults.resilience import ResiliencePolicy
from repro.check.tolerances import DEFAULT_BANDS, ToleranceBands
from repro.chaos.campaign import CellResult, run_cell
from repro.chaos.shrink import ShrinkResult
from repro.chaos.spec import CellSpec
from repro.utils.wire import decode

#: Bundle schema identifier; bump on incompatible layout changes.
BUNDLE_SCHEMA = "regraph-chaos-repro/v1"


class FailureRecord(TypedDict):
    """One outcome a bundle records (:func:`_failure_dict`)."""

    status: str
    category: str
    detail: str
    digest: str


class ShrinkStats(TypedDict):
    """:meth:`~repro.chaos.shrink.ShrinkResult.stats` of a bundle."""

    probes: int
    original_events: int
    shrunk_events: int
    exhausted: bool


class ReproBundle(TypedDict):
    """A bundle file, decoded (:func:`make_bundle` writes it)."""

    schema: str
    cell: CellSpec
    policy: ResiliencePolicy
    shrunk_plan: Optional[FaultPlan]
    failure: FailureRecord
    original_failure: FailureRecord
    shrink: Optional[ShrinkStats]


def _failure_dict(result: CellResult) -> FailureRecord:
    return {
        "status": result.status,
        "category": result.category,
        "detail": result.detail,
        "digest": result.digest,
    }


def make_bundle(
    cell: CellSpec,
    result: CellResult,
    policy: ResiliencePolicy,
    shrunk: Optional[ShrinkResult] = None,
) -> dict:
    """The bundle dict for one failing cell.

    ``failure`` is the outcome the replay must reproduce: the shrunk
    plan's outcome when shrinking ran, the original otherwise.
    """
    replay_failure = shrunk.result if shrunk is not None else result
    return {
        "schema": BUNDLE_SCHEMA,
        "cell": cell.to_dict(),
        "policy": policy.to_dict(),
        "shrunk_plan": (
            shrunk.plan.to_dict() if shrunk is not None else None
        ),
        "failure": _failure_dict(replay_failure),
        "original_failure": _failure_dict(result),
        "shrink": shrunk.stats() if shrunk is not None else None,
    }


def write_bundle(
    bundle_dir: str,
    cell: CellSpec,
    result: CellResult,
    policy: ResiliencePolicy,
    shrunk: Optional[ShrinkResult] = None,
) -> str:
    """Write the bundle to ``bundle_dir/<cell_id>.repro.json``."""
    os.makedirs(bundle_dir, exist_ok=True)
    path = os.path.join(bundle_dir, f"{cell.cell_id}.repro.json")
    with open(path, "w") as fh:
        json.dump(make_bundle(cell, result, policy, shrunk), fh, indent=2)
        fh.write("\n")
    return path


def load_bundle(path: str) -> ReproBundle:
    """Read, schema-check and decode a bundle file."""
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != BUNDLE_SCHEMA:
        raise UserInputError(
            f"{path}: unsupported bundle schema {schema!r} "
            f"(expected {BUNDLE_SCHEMA})"
        )
    return decode(ReproBundle, data, path)


@dataclass
class ReplayResult:
    """Outcome of replaying one bundle."""

    reproduced: bool
    expected_digest: str
    actual_digest: str
    result: CellResult


def replay_bundle(
    bundle: Union[str, ReproBundle], bands: ToleranceBands = DEFAULT_BANDS
) -> ReplayResult:
    """Re-execute a bundle (decoded, or its path) and compare failure
    digests."""
    if isinstance(bundle, str):
        bundle = load_bundle(bundle)
    cell = bundle["cell"]
    if bundle["shrunk_plan"] is not None:
        cell = cell.with_plan(bundle["shrunk_plan"])
    result = run_cell(cell, policy=bundle["policy"], bands=bands)
    expected = bundle["failure"]["digest"]
    return ReplayResult(
        reproduced=(result.digest == expected),
        expected_digest=expected,
        actual_digest=result.digest,
        result=result,
    )
