"""Fusion of blocks decoded side by side in one decoder state.

Each block decodes inside a shared state (UfState.add_block), suspending its
clusters on the open faces it shares with blocks not fused yet.  Fusing a
face (fuse, defined in uf) makes it interior: the clusters are unioned
across the touched face edges that are now fully grown, the clusters
suspended on the face wake, and the state grows to quiescence again.  Work
is proportional to the activity near the face, not to block or face size.

A FusionPlan is a schedule of the window pipeline: one unit holds every
block with every face open, its windows are the blocks in carve order, all
in one slot, and the last window fuses every face after its block is
added.  It runs on the pipeline's set-up, tables and slot loop, and
commits and sends nothing.
"""

from __future__ import annotations

from . import uf
from .graph import DecodingGraph, carve_blocks
from .windows import Pipeline

fuse = uf.fuse


class FusionPlan(Pipeline):
    """Precomputed block structure for repeated fused decodes of one graph.

    Fixes the fusion order: seam faces epoch by epoch, then temporal faces.
    """

    def __init__(self, graph: DecodingGraph):
        blocks = carve_blocks(graph)
        # every face starts open: all of them are fused, none committed
        self.fuse_order = sorted({f for blk in blocks for f in blk.faces},
                                 key=lambda f: (f[0], f[2], f[1]))
        parts = {blk.block_id: (blk, (), (), ()) for blk in blocks}
        parts[blocks[-1].block_id] = (blocks[-1], tuple(self.fuse_order), (), ())
        self._set_up(graph, parts, [[(0, bid, None) for bid in parts]])

    def decode(self, defects) -> set:
        """Decode every block in one state, then fuse every face; returns
        the correction."""
        return self.run(defects).correction
