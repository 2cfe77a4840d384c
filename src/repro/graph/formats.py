"""Binary graph persistence (NumPy ``.npz``).

Text edge lists (``repro.graph.io``) are interoperable but slow for
multi-million-edge graphs; the ``.npz`` container stores the COO arrays
directly and loads an order of magnitude faster — the format the
examples and benchmarks use to cache generated stand-ins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.graph.coo import Graph

#: Format marker stored in every file for forward compatibility.
FORMAT_VERSION = 1


def save_npz(graph: Graph, path: Union[str, Path]) -> Path:
    """Write a graph to a compressed ``.npz`` container."""
    path = Path(path)
    arrays = {
        "version": np.array([FORMAT_VERSION]),
        "num_vertices": np.array([graph.num_vertices]),
        "src": graph.src,
        "dst": graph.dst,
        "name": np.array([graph.name]),
    }
    if graph.weights is not None:
        arrays["weights"] = np.asarray(graph.weights)
    np.savez_compressed(path, **arrays)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz"
    )


def load_npz(path: Union[str, Path]) -> Graph:
    """Load a graph written by :func:`save_npz`.

    The file holds the edges in sorted COO order, which the graph's sort
    on first read keeps.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["version"][0])
        if version > FORMAT_VERSION:
            raise ValueError(
                f"graph file version {version} is newer than supported "
                f"({FORMAT_VERSION})"
            )
        weights = data["weights"] if "weights" in data.files else None
        return Graph(
            int(data["num_vertices"][0]),
            data["src"],
            data["dst"],
            weights=weights,
            name=str(data["name"][0]),
        )
