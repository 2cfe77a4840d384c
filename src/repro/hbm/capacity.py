"""HBM capacity: the one rule for "does this graph fit?".

"As one HBM channel only provides 256 MB capacity, when the number of HBM
channels is small, some graphs are out of memory" (Sec. VI-E).  Each
channel holds its share of the edge lists plus the source and destination
property arrays (the Fig. 4 layout), so a graph fits when one channel's
layout does.  Fleet placement, serving admission, the host runtime's
``load_graph``, the tiering decision and the Fig. 12 OoM points all ask
this one function, from counts alone: nothing has to be built.
"""

from __future__ import annotations

from repro.hbm.layout import build_channel_layout

#: Capacity of one HBM pseudo-channel on U280/U50.
CHANNEL_CAPACITY_BYTES = 256 * 1024 * 1024


def fits_hbm(
    num_vertices: int, num_edges: int, edge_bytes: int, num_channels: int
) -> bool:
    """Whether a graph of these counts fits ``num_channels`` channels.

    The edges stripe evenly over the channels and every channel holds
    both full property arrays (Fig. 4).  Pipeline ``g`` owns channels
    ``2g`` and ``2g + 1``, so an accelerator of ``P`` pipelines passes
    ``2 * P``; the whole device passes its channel count.
    """
    if num_channels < 1:
        raise ValueError(f"num_channels must be >= 1, got {num_channels}")
    edges_per_channel = -(-num_edges // num_channels)
    layout = build_channel_layout(edges_per_channel, num_vertices, edge_bytes)
    return layout.fits(CHANNEL_CAPACITY_BYTES)
