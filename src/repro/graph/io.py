"""Edge-list I/O.

ReGraph consumes plain whitespace-separated edge lists (the format SNAP and
network-repository publish).  These helpers read/write that format so the
examples can persist generated graphs and users can bring their own data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import UserInputError
from repro.graph.coo import Graph


def write_edge_list(graph: Graph, path: Union[str, Path]) -> None:
    """Write ``src dst [weight]`` lines; a ``#`` header records V."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(f"# vertices: {graph.num_vertices}\n")
        if graph.weights is None:
            np.savetxt(
                handle,
                np.column_stack((graph.src, graph.dst)),
                fmt="%d",
            )
        else:
            np.savetxt(
                handle,
                np.column_stack((graph.src, graph.dst, graph.weights)),
                fmt="%d",
            )


def read_edge_list(
    path: Union[str, Path],
    num_vertices: int = 0,
    name: str = "",
) -> Graph:
    """Read an edge list written by :func:`write_edge_list` or SNAP-style.

    If ``num_vertices`` is 0 it is recovered from the ``# vertices:`` header
    when present, otherwise inferred as ``max ID + 1``.
    """
    path = Path(path)
    header_vertices = 0
    with path.open() as handle:
        first = handle.readline()
        if first.startswith("#") and "vertices:" in first:
            count = first.split("vertices:")[1].strip()
            if not count.isdigit():
                raise UserInputError(
                    f"{path}: '# vertices:' needs a non-negative integer, "
                    f"got {count!r}"
                )
            header_vertices = int(count)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if data.size == 0:
        raise UserInputError(f"{path} contains no edges")
    if data.shape[1] < 2:
        raise UserInputError(
            f"{path}: an edge needs a src and a dst column, got "
            f"{data.shape[1]} column(s)"
        )
    src, dst = data[:, 0], data[:, 1]
    weights = data[:, 2] if data.shape[1] > 2 else None
    if num_vertices == 0:
        num_vertices = header_vertices or int(max(src.max(), dst.max()) + 1)
    return Graph(
        num_vertices,
        src,
        dst,
        weights=weights,
        name=name or path.stem,
    )
