"""Three-group parallel window pipeline.

Patches are mapped onto leaves (decoder resources) and leaves are colored
with three groups so no two adjacent leaves share a group.  At cascade k,
group g decodes its blocks of epoch k-(g-1) and commits epoch k-g; within a
cascade the groups act in order 1, 2, 3.  Temporal interfaces between a
leaf's consecutive epochs are fused in place; spatial interfaces between
leaves are resolved once, by the upstream (lower-group) side committing its
crossing edges, which the downstream side absorbs as flipped defects before
decoding.  The dataflow is deterministic and independent of wall-clock
timing, so the network simulator can replay a run's dependency log under
any latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DecodingGraph, carve_blocks
from .fusion import fuse
from .uf import decode_block, region_vids


class PipelineStallError(RuntimeError):
    """A window had to decode before its upstream boundary info arrived."""


@dataclass(frozen=True)
class BoundaryInfo:
    """Committed crossing edges of one shared face."""
    face: tuple
    committed_crossings: frozenset


@dataclass
class PipelineResult:
    correction: set
    commits: dict          # (leaf, epoch) -> cascade index
    iters: dict            # (leaf, epoch) -> growth rounds spent decoding
    sends: list            # (cascade, src leaf, dst leaf, BoundaryInfo)
    groups: dict           # leaf -> group
    epochs: int


def assign_groups(layout, mapping=None) -> dict:
    """Three-color the leaves so grid-adjacent leaves never share a group.

    mapping sends each patch to a leaf id; by default every patch gets its
    own leaf.  The diagonal stripe (2*row + col) mod 3 satisfies the
    adjacency constraint on any grid and gives [1, 2, 3] on a 1x3 row.
    """
    if mapping is None:
        mapping = {p: p for p in layout.positions}
    leaf_pos = {}
    for p, (r, c) in sorted(layout.positions.items()):
        leaf_pos.setdefault(mapping[p], (r, c))
    groups = {leaf: (2 * r + c) % 3 + 1 for leaf, (r, c) in leaf_pos.items()}
    for s in layout.seams:
        la, lb = mapping[s.patch_a], mapping[s.patch_b]
        if la != lb and groups[la] == groups[lb]:
            raise ValueError(f"adjacent leaves {la}, {lb} share group {groups[la]}")
    return groups


class Pipeline:
    """Drives a carved decoding graph through the cascade schedule.

    One patch per leaf; a leaf's window at epoch e is its patch's block.
    """

    def __init__(self, graph: DecodingGraph, mapping=None):
        self.graph = graph
        layout = graph.layout
        if mapping is None:
            mapping = {p: p for p in layout.positions}
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("each leaf hosts exactly one patch")
        self.mapping = dict(mapping)
        self.groups = assign_groups(layout, self.mapping)
        self.epochs = graph.rounds // graph.d
        self.blocks = {b.block_id: b for b in carve_blocks(graph)}
        self.regions = region_vids(graph)
        self.leaf_patch = {leaf: p for p, leaf in self.mapping.items()}
        # seam faces of each block by role: walls are inbound faces, sealed
        # by the upstream (lower-group) leaf's commit; sends pair each
        # outbound face with the downstream leaf its commit goes to
        self.walls = {}
        self.sends = {}
        for bid, blk in self.blocks.items():
            leaf = self.mapping[bid[0]]
            walls, sends = [], []
            for lab in blk.faces.values():
                if lab == 'real' or lab[1][0] != 's':
                    continue
                face = lab[1]
                seam = layout.seams[face[1]]
                la, lb = self.mapping[seam.patch_a], self.mapping[seam.patch_b]
                down = lb if self.groups[la] < self.groups[lb] else la
                if down == leaf:
                    walls.append(face)
                else:
                    sends.append((face, down))
            self.walls[bid] = tuple(sorted(walls))
            self.sends[bid] = tuple(sorted(sends))
        self._reset([])

    def _reset(self, defects):
        by_block = {}
        for v in defects:
            by_block.setdefault(self.graph.block_of(v), set()).add(v)
        self._block_defects = by_block
        self._states = {}      # leaf -> rolling UfState
        self._inbox = {}       # face -> BoundaryInfo not yet consumed
        self._result = PipelineResult(set(), {}, {}, [], dict(self.groups),
                                      self.epochs)

    def _decode_window(self, leaf: int, epoch: int):
        p = self.leaf_patch[leaf]
        bid = (p, epoch)
        reg = self.regions[bid]
        walls = self.walls[bid]
        # upstream commits toggle the defects their crossings end on here
        flips = set()
        for face in walls:
            info = self._inbox.pop(face, None)
            if info is None:
                raise PipelineStallError(
                    f"window ({leaf}, {epoch}) lacks boundary info for {face}")
            for u, w in info.committed_crossings:
                flips.symmetric_difference_update((u if u in reg else w,))
        defects = self._block_defects.get(bid, set()) ^ flips
        st = decode_block(self.graph, self.blocks[bid], sorted(defects), walls, reg)
        iters = st.grow_iterations
        rolling = self._states.get(leaf)
        if rolling is None:
            self._states[leaf] = st
        else:
            pre = rolling.grow_iterations
            rolling = fuse(rolling, st, ('t', p, epoch))
            iters += rolling.grow_iterations - pre
            self._states[leaf] = rolling
        self._result.iters[(leaf, epoch)] = iters

    def _commit_window(self, leaf: int, epoch: int, cascade: int):
        st = self._states.get(leaf)
        if st is None:
            raise PipelineStallError(
                f"window ({leaf}, {epoch}) committed before it decoded")
        out = []
        for face, dst in self.sends[(self.leaf_patch[leaf], epoch)]:
            crossings = st.absorb_face(face)
            out.append((cascade, leaf, dst, BoundaryInfo(face, frozenset(crossings))))
        self._result.commits[(leaf, epoch)] = cascade
        return out

    def run_epoch(self, cascade: int, boundary_in=()) -> list:
        """One cascade step; returns the BoundaryInfo records sent."""
        for bi in boundary_in:
            self._inbox[bi.face] = bi
        sent = []
        for g in (1, 2, 3):
            for leaf in sorted(self.leaf_patch):
                if self.groups[leaf] != g:
                    continue
                e_dec = cascade - (g - 1)
                if 0 <= e_dec < self.epochs:
                    self._decode_window(leaf, e_dec)
                e_com = cascade - g
                if 0 <= e_com < self.epochs:
                    for rec in self._commit_window(leaf, e_com, cascade):
                        sent.append(rec)
                        self._inbox[rec[3].face] = rec[3]
        self._result.sends.extend(sent)
        return sent

    def run(self, defects) -> PipelineResult:
        """Full run over all cascades; returns corrections and the log."""
        self._reset(defects)
        for k in range(self.epochs + 3):
            self.run_epoch(k)
        correction = set()
        for leaf in sorted(self._states):
            st = self._states[leaf]
            if st.defects:
                raise AssertionError(f"leaf {leaf} left defects unresolved")
            correction ^= st.correction
        self._result.correction = correction
        return self._result
