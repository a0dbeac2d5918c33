"""Three-group parallel window pipeline.

Every patch is decoded by its own unit, named by the patch id, and units
are colored with three groups so no two adjacent units share a group.  At
cascade slot k, group g decodes its block of epoch k-(g-1) and commits
epoch k-g; within a slot the groups act in order 1, 2, 3.  Temporal
interfaces between a unit's consecutive epochs are fused in place; spatial
interfaces between units are resolved once, by the upstream (lower-group)
side committing its crossing edges, which the downstream side absorbs as
flipped defects before decoding.  The dataflow is deterministic and
independent of wall-clock timing, so the network simulator walks the same
cascade to replay a run under any latency model.
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
    commits: dict          # (unit, epoch) -> cascade slot
    iters: dict            # (unit, epoch) -> growth rounds spent decoding
    sends: list            # (slot, src unit, dst unit, BoundaryInfo)


def assign_groups(layout) -> dict:
    """Three-color the patches so grid-adjacent patches never share a group.

    The diagonal stripe (2*row + col) mod 3 differs by 1 or 2 between grid
    neighbours, so it satisfies the adjacency constraint on any grid, and
    gives [1, 2, 3] on a 1x3 row.
    """
    return {p: (2 * r + c) % 3 + 1 for p, (r, c) in sorted(layout.positions.items())}


class Pipeline:
    """Drives a carved decoding graph through the cascade schedule.

    One unit per patch; a unit's window at epoch e is its patch's block.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        layout = graph.layout
        self.groups = assign_groups(layout)
        self.epochs = graph.rounds // graph.d
        # three extra slots drain the cascade: group 3 commits the last
        # epoch at slot epochs + 2
        self.slots = self.epochs + 3
        self._by_group = {g: sorted(u for u, gu in self.groups.items() if gu == g)
                          for g in (1, 2, 3)}
        self.blocks = {b.block_id: b for b in carve_blocks(graph)}
        # vertex sets only orient the crossings an inbound commit flips
        self.regions = region_vids(graph)
        # seam faces of each block by role: walls are inbound faces, sealed
        # by the upstream (lower-group) unit's commit; sends pair each
        # outbound face with the downstream unit its commit goes to
        self.walls = {}
        self.sends = {}
        for bid, blk in self.blocks.items():
            walls, sends = [], []
            for face in blk.faces:
                if face[0] != 's':
                    continue
                seam = layout.seams[face[1]]
                a, b = seam.patch_a, seam.patch_b
                down = b if self.groups[a] < self.groups[b] else a
                if down == bid[0]:
                    walls.append(face)
                else:
                    sends.append((face, down))
            self.walls[bid] = tuple(sorted(walls))
            self.sends[bid] = tuple(sorted(sends))
        self._reset([])

    def cascade(self, k: int):
        """Units active in slot k, in cascade order.

        Yields (unit, e_dec, e_com): the epoch the unit decodes and the
        epoch it commits in this slot, each None when out of range.  Group g
        decodes epoch k-(g-1) and commits epoch k-g, groups in order 1, 2, 3.
        """
        for g in (1, 2, 3):
            e_dec, e_com = (e if 0 <= e < self.epochs else None
                            for e in (k - (g - 1), k - g))
            if e_dec is not None or e_com is not None:
                for unit in self._by_group[g]:
                    yield unit, e_dec, e_com

    def _reset(self, defects):
        by_block = {}
        for v in defects:
            by_block.setdefault(self.graph.block_of(v), set()).add(v)
        self._block_defects = by_block
        self._states = {}      # unit -> rolling UfState
        self._inbox = {}       # face -> BoundaryInfo not yet consumed
        self._result = PipelineResult(set(), {}, {}, [])

    def _decode_window(self, unit: int, epoch: int):
        bid = (unit, epoch)
        reg = self.regions[bid]
        walls = self.walls[bid]
        # upstream commits toggle the defects their crossings end on here
        flips = set()
        for face in walls:
            info = self._inbox.pop(face, None)
            if info is None:
                raise PipelineStallError(
                    f"window ({unit}, {epoch}) lacks boundary info for {face}")
            for u, w in info.committed_crossings:
                flips.symmetric_difference_update((u if u in reg else w,))
        defects = self._block_defects.get(bid, set()) ^ flips
        st = decode_block(self.graph, self.blocks[bid], sorted(defects), walls)
        iters = st.grow_iterations
        rolling = self._states.get(unit)
        if rolling is None:
            self._states[unit] = st
        else:
            pre = rolling.grow_iterations
            rolling = fuse(rolling, st, ('t', unit, epoch))
            iters += rolling.grow_iterations - pre
            self._states[unit] = rolling
        self._result.iters[bid] = iters

    def _commit_window(self, unit: int, epoch: int, cascade: int):
        st = self._states.get(unit)
        if st is None:
            raise PipelineStallError(
                f"window ({unit}, {epoch}) committed before it decoded")
        out = []
        for face, dst in self.sends[(unit, epoch)]:
            crossings = st.absorb_face(face)
            out.append((cascade, unit, dst, BoundaryInfo(face, frozenset(crossings))))
        self._result.commits[(unit, epoch)] = cascade
        return out

    def run_epoch(self, cascade: int) -> list:
        """One cascade slot; returns the BoundaryInfo records sent."""
        sent = []
        for unit, e_dec, e_com in self.cascade(cascade):
            if e_dec is not None:
                self._decode_window(unit, e_dec)
            if e_com is not None:
                for rec in self._commit_window(unit, e_com, cascade):
                    sent.append(rec)
                    self._inbox[rec[3].face] = rec[3]
        self._result.sends.extend(sent)
        return sent

    def run(self, defects) -> PipelineResult:
        """Full run over all cascade slots; returns corrections and the log."""
        self._reset(defects)
        for k in range(self.slots):
            self.run_epoch(k)
        correction = set()
        for unit in sorted(self._states):
            st = self._states[unit]
            if st.defects:
                raise AssertionError(f"unit {unit} left defects unresolved")
            correction ^= st.correction
        self._result.correction = correction
        return self._result
