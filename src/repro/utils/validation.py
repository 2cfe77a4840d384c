"""Small argument-validation helpers used across the library.

Raising early with a precise message keeps the simulator code paths free of
defensive clutter while still failing loudly on misuse.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import UserInputError


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


def check_array_1d(name: str, arr) -> np.ndarray:
    """Coerce to a 1-D ndarray, raising ``ValueError`` on higher rank."""
    out = np.asarray(arr)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_max_iterations(max_iterations: Optional[int]) -> None:
    """Reject an iteration cap below one (``None`` = run to
    convergence): a zero or negative cap would "complete" a run that
    never iterated."""
    if max_iterations is not None and max_iterations < 1:
        raise UserInputError(
            f"max_iterations must be None or >= 1, got {max_iterations}"
        )
