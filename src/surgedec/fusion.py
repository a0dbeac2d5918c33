"""Fusion of blocks decoded side by side in one decoder state.

Each block decodes inside a shared state (UfState.add_block), suspending its
clusters on the open faces it shares with blocks not fused yet.  Fusing a
face makes it interior: the clusters are unioned across the touched face
edges that are now fully grown, the clusters suspended on the face wake,
and the state grows to quiescence again.  Work is proportional to the
activity near the face, not to block or face size.
"""

from __future__ import annotations

from .graph import DecodingGraph, carve_blocks
from .uf import UfState, defects_by_block


def fuse(state: UfState, face):
    """Join an open face whose two sides both decoded in state.

    The face leaves the status map.  The edges on its touch list that
    reached a full edge are unioned in edge id order (on a face, sorted key
    order), the clusters suspended on the face wake, and the state settles
    and peels if anything was unioned or woke.  A face the state never grew
    onto costs only its status.
    """
    fs = state.face_status
    if fs.get(face) != 'open':
        raise ValueError(f"face {face} is not open")
    del fs[face]
    keys = state.touched.pop(face, None)
    grown = ()
    if keys:
        growth = state.growth
        grown = sorted({k for k in keys if growth[k] >= 2})
        adj = state.grown_adj
        ends = state.graph.edge_ends
        for eid in grown:
            u, w = ends(eid)
            state._adopt(u)
            state._adopt(w)
            adj.setdefault(u, []).append((w, eid))
            adj.setdefault(w, []).append((u, eid))
            state._union(u, w)
        for root in state._drop_face(face):
            if state._alive(root):
                state.live.add(root)
    if grown or state.live:
        state.settle()
        state.peel_resolved()


class FusionPlan:
    """Precomputed block structure for repeated fused decodes of one graph.

    Fixes the fusion order: seam faces epoch by epoch, then temporal faces.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.blocks = {blk.block_id: blk for blk in carve_blocks(graph)}
        incident = {}
        for blk in self.blocks.values():
            for f in blk.faces:
                incident[f] = incident.get(f, 0) + 1
        for f, n in incident.items():
            if n != 2:
                raise ValueError(f"face {f} is not shared by exactly two blocks")
        # every face starts open: all of them are fused, none committed
        self._open = dict.fromkeys(incident, 'open')
        seams = [f for f in incident if f[0] == 's']
        times = [f for f in incident if f[0] == 't']
        seams.sort(key=lambda f: (f[2], f[1]))
        times.sort(key=lambda f: (f[2], f[1]))
        self.fuse_order = seams + times

    def decode(self, defects) -> set:
        """Decode every block in one state, then fuse every face; returns
        the correction."""
        by_block = defects_by_block(self.graph, self.blocks, defects)
        state = UfState(self.graph, (), self._open)
        for bid in self.blocks:
            block_defects = by_block.get(bid)
            if block_defects:
                state.add_block(block_defects)
        for face in self.fuse_order:
            fuse(state, face)
        return state.correction
