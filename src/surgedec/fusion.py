"""Fusion of independently decoded blocks.

Two decoder states that share an open face are merged by concatenating
their bookkeeping and their touch lists, summing the per-side growth of
the edges they grew (capped at a full edge), and joining the face: the
clusters are unioned across the touched face edges that are now fully
grown, the clusters suspended on the face wake, and the state grows to
quiescence again.  Work is proportional to the activity near the face, not
to block or face size.
"""

from __future__ import annotations

from .graph import DecodingGraph, carve_blocks
from .uf import UfState, decode_block, defects_by_block, face_statuses


def fuse(a: UfState, b: UfState, face) -> UfState:
    """Fuse the open face between states a and b; returns the merged state.

    a is mutated and returned; b must be discarded afterwards.  a and b may
    be the same state when both sides of the face were already merged
    through another path, or when b's block was added to a in place
    (UfState.add_block); then only the face is joined.
    """
    if a.graph is not b.graph:
        raise ValueError("states decode different graphs")
    if a.face_status.get(face) != 'open' or b.face_status.get(face) != 'open':
        raise ValueError(f"face {face} is not open on both sides")
    if a is not b:
        a.parent.update(b.parent)
        a.size.update(b.size)
        a.parity.update(b.parity)
        a.bnd.update(b.bnd)
        a.contacts.update(b.contacts)
        a.frontier.update(b.frontier)
        a.grown_adj.update(b.grown_adj)
        a.defects |= b.defects
        a.correction ^= b.correction
        a.live |= b.live
        # grow_iterations stays a's own count; b ran in parallel elsewhere
        # only edges on shared faces were grown from both sides; walking
        # b's growth keeps the cost off the size of a rolling state
        growth, bg = a.growth, b.growth
        both = [(ekey, growth[ekey]) for ekey in bg if ekey in growth]
        growth.update(bg)
        for ekey, cur in both:
            growth[ekey] = min(2, cur + bg[ekey])
        for f, keys in b.touched.items():
            a.touched.setdefault(f, []).extend(keys)
    a.join_face(face, b.face_status)
    return a


class FusionPlan:
    """Precomputed block structure for repeated fused decodes of one graph.

    Fixes the fusion order: seam faces epoch by epoch, then temporal faces.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.blocks = {blk.block_id: blk for blk in carve_blocks(graph)}
        # every face starts open: all of them are fused, none committed
        self._open = {bid: face_statuses(blk, ()) for bid, blk in self.blocks.items()}
        incident = {}
        for bid, blk in self.blocks.items():
            for f in blk.faces:
                incident.setdefault(f, []).append(bid)
        for f, bids in incident.items():
            if len(bids) != 2:
                raise ValueError(f"face {f} is not shared by exactly two blocks")
        seams = [f for f in incident if f[0] == 's']
        times = [f for f in incident if f[0] == 't']
        seams.sort(key=lambda f: (f[2], f[1]))
        times.sort(key=lambda f: (f[2], f[1]))
        self.fuse_order = [(f, tuple(sorted(incident[f]))) for f in seams + times]

    def decode(self, defects) -> set:
        """Per-block decode, then fuse everything; returns the correction."""
        graph = self.graph
        by_block = defects_by_block(graph, self.blocks, defects)
        states = {bid: decode_block(graph, blk, by_block.get(bid, ()), self._open[bid])
                  for bid, blk in self.blocks.items()}
        rep = {bid: bid for bid in self.blocks}

        def find(x):
            while rep[x] != x:
                rep[x] = x = rep[rep[x]]
            return x

        for face, (ba, bb) in self.fuse_order:
            ra, rb = find(ba), find(bb)
            merged = fuse(states[ra], states[rb], face)
            if ra != rb:
                rep[rb] = ra
                states[ra] = merged
                del states[rb]
        correction = set()
        for bid, st in states.items():
            if find(bid) == bid:
                correction ^= st.correction
        return correction
