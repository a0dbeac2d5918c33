"""Three-group parallel window pipeline.

Every patch is decoded by its own unit, named by the patch id, and units
are colored with three groups so no two adjacent units share a group.  At
cascade slot k, group g decodes its block of epoch k-(g-1) and commits
epoch k-g; within a slot the groups act in order 1, 2, 3.  Temporal
interfaces between a unit's consecutive epochs are fused in place; spatial
interfaces between units are resolved once, by the upstream (lower-group)
side committing its crossing edges, which the downstream side absorbs as
flipped defects before decoding; the endpoint that flips is the one whose
block_of is the receiving window, so the pipeline keeps no vertex sets.

The cascade depends on the layout and the merge schedule, never on the
syndrome, so set-up computes it once: one Window per block (the faces it
fuses, here its temporal face to the epoch before, its inbound walls and
its outbound sends) and, per slot, a schedule of (unit, decoded window,
committed window) records.  Set-up also builds per unit the face-status
map its decoder state starts from (every face of its windows, inbound
walls sealed and the rest open), and what the schedule alone fixes of a
result: every commit's slot and zero growth rounds for every window.  A
run copies those and walks the schedule in one loop (run_epoch).  A unit
builds one decoder state, at its first window, and every window decodes
inside it: the window's defects after its inbound flips, if any, are
added to the state as a block (UfState.add_block), each face it fuses is
joined (uf.fuse), which wakes, grows and peels only the clusters
suspended on that face, and its commit absorbs its outbound faces
(UfState.absorb_face) and appends one send record per face.  Work follows
the syndrome: joining or absorbing a face the state never grew onto only
changes its status, and a send with no crossings carries the face's one
empty record, built at set-up.  A run writes growth rounds only for the
windows that grew.  A run groups the defects by block, as ranks, in one
numpy pass (graph.ranks_by_block); only inbound crossings call block_of.
The dataflow is deterministic and independent of wall-clock timing, so
the network simulator replays the same schedule under any latency model.
The fusion plan (fusion.FusionPlan) is the same set-up and loop on
another schedule.

Every unit's state shares the pipeline's one set of decoder tables
(uf.UfTables: each vertex's parent and each edge's growth), built with the
first state.  The units partition the graph: an inbound seam face is
walled on the downstream unit and open only on the upstream one, which
grows its edges and absorbs it; a temporal face joins two windows of the
same unit; so no vertex is held, and no edge grown, by two unit states of
one run.  A run clears the tables before it starts, growth with one zero
fill and parent over the vertices the last run's states took, so a run
that raised leaves nothing behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import uf
from .graph import DecodingBlock, DecodingGraph, carve_blocks
from .uf import UfState, UfTables, face_statuses, fuse, merge_statuses

# the per-block vertex sets, which no decode reads; bench/test_bench.py
# checks that its tracer patches and restores the name here too
region_vids = uf.region_vids


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


class Window(NamedTuple):
    """One block's part in a schedule, fixed at set-up.

    fuses are the faces joined, in order, after the block is added: a
    pipeline window's temporal face to its previous epoch (none at epoch
    0), and every face for a fusion plan's last window.  walls are its
    inbound seam faces, sealed by the upstream (lower-group) unit's commit.
    sends pair each outbound seam face with the downstream unit its commit
    goes to.
    """
    block: DecodingBlock
    fuses: tuple
    walls: tuple
    sends: tuple


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
    schedule[k] holds slot k's (unit, decoded window, committed window)
    records in cascade order, each window None when its epoch is out of
    range; windows maps each block id to its Window, and statuses each
    unit to the face-status map its rolling state starts from: every face
    of its windows, inbound walls sealed and the rest open.  No run
    mutates these maps (a state copies its map).
    """

    def __init__(self, graph: DecodingGraph):
        layout = graph.layout
        self.groups = assign_groups(layout)
        self.epochs = graph.rounds // graph.d
        parts = {}
        for blk in carve_blocks(graph):
            walls, sends = [], []
            for face in blk.faces:
                if face[0] != 's':
                    continue
                seam = layout.seams[face[1]]
                a, b = seam.patch_a, seam.patch_b
                down = b if self.groups[a] < self.groups[b] else a
                if down == blk.patch:
                    walls.append(face)
                else:
                    sends.append((face, down))
            parts[blk.block_id] = (blk, (('t', blk.patch, blk.epoch),) if blk.epoch else (),
                                   tuple(sorted(walls)), tuple(sorted(sends)))
        # slot k: group g decodes epoch k-(g-1) and commits epoch k-g, groups
        # in order 1, 2, 3; a group with neither epoch in range sits out.
        # Three extra slots drain the cascade: group 3 commits the last
        # epoch at slot epochs + 2
        by_group = [sorted(u for u, gu in self.groups.items() if gu == g) for g in (1, 2, 3)]
        self._set_up(graph, parts, [[(u, (u, k - g + 1), (u, k - g))
                                     for g, units in enumerate(by_group, 1)
                                     if -1 <= k - g < self.epochs
                                     for u in units]
                                    for k in range(self.epochs + 3)])

    def _set_up(self, graph, parts, cascade):
        """The set-up a pipeline and a fusion plan share.  parts maps each
        block id, in carve order, to its window's (block, fuses, walls,
        sends); cascade[k] lists slot k's (unit, decoded id, committed id)
        records, an id that parts lacks standing for no window."""
        self.graph = graph
        self.slots = len(cascade)
        maps = {}
        self._commits, self._iters = {}, {}
        for k, records in enumerate(cascade):
            for u, dec, com in records:
                if dec in parts:
                    blk, _, walls, _ = parts[dec]
                    maps.setdefault(u, []).append(face_statuses(blk, walls))
                    self._iters[dec] = 0
                if com in parts:
                    self._commits[com] = k
        # the record a send with no crossings carries, one per outbound face
        self._empty = {f: BoundaryInfo(f, frozenset())
                       for part in parts.values() for f, _ in part[3]}
        self.statuses = {u: merge_statuses(m) for u, m in maps.items()}
        self.windows = {bid: Window(*part) for bid, part in parts.items()}
        win = self.windows.get
        self.schedule = tuple(tuple((u, win(dec), win(com)) for u, dec, com in records)
                              for records in cascade)
        self._states = {}
        self._reset([])

    @cached_property
    def _tables(self) -> UfTables:
        """The decoder's tables, which every unit's rolling state shares;
        built when the first state is, so set-up holds nothing per vertex."""
        return UfTables(self.graph)

    def _reset(self, defects):
        # the last run's states name every vertex it took, whether or not
        # the run finished
        if self._states:
            self._tables.clear(self._states.values())
        self._states = {}      # unit -> rolling UfState
        self._block_defects = self.graph.ranks_by_block(defects)
        self._inbox = {}       # face -> BoundaryInfo not yet consumed
        self._result = PipelineResult(set(), dict(self._commits), dict(self._iters), [])

    def run_epoch(self, cascade: int) -> list:
        """One cascade slot; returns the (slot, src unit, dst unit,
        BoundaryInfo) records sent.

        Each record decodes, then commits.  A window adds its defects after
        its inbound flips as a block, then joins each face it fuses (fuse).
        A commit absorbs each outbound face (absorb_face) and appends its
        send record to the run's log: a fresh BoundaryInfo for a face with
        crossings, the face's empty record otherwise.  A window is named by
        its block id, whatever its unit holds.
        """
        graph = self.graph
        states = self._states
        by_block = self._block_defects
        inbox = self._inbox
        empty = self._empty
        result = self._result
        log = result.sends
        start = len(log)
        for unit, dec, com in self.schedule[cascade]:
            st = states.get(unit)
            if dec is not None:
                blk, fuses, walls, _ = dec
                bid = blk.block_id
                if st is None:
                    st = states[unit] = UfState(graph, (), self.statuses[unit], self._tables)
                defects = by_block.get(bid, ())
                if walls:
                    # upstream commits toggle the defects their crossings end
                    # on here; a seam vertex goes with patch_a in both
                    # block_of and carving
                    flips = set()
                    for wall in walls:
                        info = inbox.pop(wall, None)
                        if info is None:
                            raise PipelineStallError(
                                f"window {bid} lacks boundary info for {wall}")
                        for u, w in info.committed_crossings:
                            flips.symmetric_difference_update(
                                (u if graph.block_of(u) == bid else w,))
                    if flips:
                        defects = set(graph.ranks(flips)).symmetric_difference(defects)
                pre = st.grow_iterations
                if defects:
                    st.add_block(sorted(defects))
                for face in fuses:
                    fuse(st, face)
                if st.grow_iterations != pre:
                    result.iters[bid] = st.grow_iterations - pre
            if com is not None:
                if st is None:
                    raise PipelineStallError(
                        f"window {com.block.block_id} committed before it decoded")
                for face, dst in com.sends:
                    crossings = st.absorb_face(face)
                    info = BoundaryInfo(face, frozenset(crossings)) if crossings else empty[face]
                    log.append((cascade, unit, dst, info))
                    inbox[face] = info
        return log[start:]

    def run(self, defects) -> PipelineResult:
        """Full run over all cascade slots; returns corrections and the log.

        The result is the run's own: its commits and iters start as copies
        of what set-up built, the run writes only the windows that grew,
        and its send log starts empty and gets every commit's records."""
        self._reset(defects)
        for k in range(self.slots):
            self.run_epoch(k)
        ids = set()
        for unit in sorted(self._states):
            st = self._states[unit]
            if st.defect_ranks:
                raise AssertionError(f"unit {unit} left defects unresolved")
            ids ^= st.correction_ids
        self._result.correction = set(self.graph.edge_keys(ids))
        return self._result
