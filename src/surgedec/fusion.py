"""Fusion of independently decoded blocks.

Two decoder states that share an open face are merged by concatenating
their bookkeeping, summing the per-side growth of the face edges (capped
at a full edge), unioning clusters across the fully grown ones, waking the
clusters that were suspended on the face, and growing to quiescence again.
Work is proportional to the activity near the face, not to block size.
"""

from __future__ import annotations

from .graph import DecodingGraph, carve_blocks, face_edges
from .uf import UfState, decode_block


def fuse(a: UfState, b: UfState, face) -> UfState:
    """Fuse the open face between states a and b; returns the merged state.

    a is mutated and returned; b must be discarded afterwards.  a and b may
    be the same state when both sides of the face were already merged
    through another path.
    """
    if a.graph is not b.graph:
        raise ValueError("states decode different graphs")
    if a.face_status.get(face) != 'open' or b.face_status.get(face) != 'open':
        raise ValueError(f"face {face} is not open on both sides")
    if a is not b:
        for f, st in b.face_status.items():
            if a.face_status.setdefault(f, st) != st:
                raise ValueError(f"face {f} has conflicting statuses")
        a.parent.update(b.parent)
        a.size.update(b.size)
        a.parity.update(b.parity)
        a.bnd.update(b.bnd)
        a.real.update(b.real)
        a.art.update(b.art)
        a.contacts.update(b.contacts)
        a.frontier.update(b.frontier)
        a.grown_adj.update(b.grown_adj)
        a.defects |= b.defects
        a.correction ^= b.correction
        a.live |= b.live
        # grow_iterations stays a's own count; b ran in parallel elsewhere
        growth = a.growth
        for ekey, g in b.growth.items():
            cur = growth.get(ekey)
            growth[ekey] = g if cur is None else min(2, cur + g)
    del a.face_status[face]
    adj = a.grown_adj
    for ekey in face_edges(a.graph, face):
        if a.growth.get(ekey, 0) >= 2:
            u, w = ekey
            a._adopt(u)
            a._adopt(w)
            adj.setdefault(u, []).append((w, ekey))
            adj.setdefault(w, []).append((u, ekey))
            a._union(u, w)
    a.release_face(face, absorb=False)
    a.settle()
    a.peel_resolved()
    return a


class FusionPlan:
    """Precomputed block structure for repeated fused decodes of one graph.

    Fixes the fusion order: seam faces epoch by epoch, then temporal faces.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        self.blocks = {blk.block_id: blk for blk in carve_blocks(graph)}
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
        by_block = {}
        for v in defects:
            by_block.setdefault(graph.block_of(v), []).append(v)
        states = {bid: decode_block(graph, blk, by_block.get(bid, ()))
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
