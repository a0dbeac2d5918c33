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
syndrome, so set-up computes it once: one Window per block (its temporal
face, inbound walls and outbound sends), per unit the face-status map its
decoder state starts from (every face of its windows, inbound walls sealed
and the rest open), and, per slot, a schedule of (unit, decoded window,
committed window) records.  It also builds what the schedule alone fixes
of a result: every commit's slot, zero growth rounds for every window, and
one send record per outbound face with no crossings.  A run copies those
and walks the schedule in one loop (run_epoch).  A unit builds one decoder
state, at its first window, and every window decodes inside it: the
window's defects after its inbound flips, if any, are added to the state
as a block (UfState.add_block), its temporal face is fused (fusion.fuse),
which wakes, grows and peels only the clusters suspended on that face,
and its commit absorbs its outbound faces (UfState.absorb_face).  Work
follows the syndrome: an idle window, with no defects and a temporal face
its state never grew onto, only drops that face's status, and a commit
only walls an outbound face its state never grew onto; that is all fuse
and absorb_face would do there, so the loop does it without calling them.
The run writes into its result only the windows that grew and the commits
that carried crossings.  A run groups the defects by block, as ranks, in
one numpy pass (defects_by_block); only inbound crossings call block_of.
The dataflow is deterministic and independent of wall-clock timing, so
the network simulator replays the same schedule under any latency model.

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

from .graph import DecodingBlock, DecodingGraph, carve_blocks
from .fusion import fuse
from .uf import (UfState, UfTables, defects_by_block, face_statuses,
                 merge_statuses, region_vids)


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
    """One block's part in the cascade, fixed at set-up.

    face is the temporal face to the block's previous epoch (None at epoch
    0).  walls are its inbound seam faces, sealed by the upstream
    (lower-group) unit's commit.  sends pair each outbound seam face with
    the downstream unit its commit goes to; their records sit in a run's
    send log from send_index on.
    """
    block: DecodingBlock
    face: tuple | None
    walls: tuple
    sends: tuple
    send_index: int


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
        self.graph = graph
        layout = graph.layout
        self.groups = assign_groups(layout)
        self.epochs = graph.rounds // graph.d
        # three extra slots drain the cascade: group 3 commits the last
        # epoch at slot epochs + 2
        self.slots = self.epochs + 3
        parts = {}
        maps = {}
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
            walls = tuple(sorted(walls))
            parts[blk.block_id] = (blk, ('t', blk.patch, blk.epoch) if blk.epoch else None,
                                   walls, tuple(sorted(sends)))
            maps.setdefault(blk.patch, []).append(face_statuses(blk, walls))
        self.statuses = {u: merge_statuses(m) for u, m in maps.items()}
        # slot k: group g decodes epoch k-(g-1) and commits epoch k-g, groups
        # in order 1, 2, 3; a group with neither epoch in range sits out
        by_group = [sorted(u for u, gu in self.groups.items() if gu == g) for g in (1, 2, 3)]
        cascade = [[(u, (u, k - g + 1), (u, k - g))
                    for g, units in enumerate(by_group, 1) if -1 <= k - g < self.epochs
                    for u in units]
                   for k in range(self.slots)]
        # what the schedule alone fixes of a run's result: every commit's
        # slot, zero rounds for every window, and the send log, one record
        # per outbound face in commit order with no crossings; slot k sends
        # the log's records from _bounds[k] to _bounds[k + 1]
        self.windows = dict.fromkeys(parts)
        self._commits, self._iters, self._sends, self._bounds = {}, {}, [], [0]
        for k, records in enumerate(cascade):
            for u, dec, com in records:
                if dec in parts:
                    self._iters[dec] = 0
                if com in parts:
                    blk, face, walls, sends = parts[com]
                    self.windows[com] = Window(blk, face, walls, sends, len(self._sends))
                    self._commits[com] = k
                    self._sends += ((k, u, dst, BoundaryInfo(f, frozenset()))
                                    for f, dst in sends)
            self._bounds.append(len(self._sends))
        win = self.windows.get
        self.schedule = tuple(tuple((u, win(dec), win(com)) for u, dec, com in records)
                              for records in cascade)
        self._states = {}
        self._reset([])

    @cached_property
    def regions(self) -> dict:
        """(patch, epoch) -> frozenset of the block's vertex ids, built on
        first read.  Set-up and run never read it: they orient crossings
        by graph.block_of, which tests check against these sets."""
        return region_vids(self.graph)

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
        self._block_defects = defects_by_block(self.graph, self.windows, defects)
        self._inbox = {}       # face -> BoundaryInfo not yet consumed
        self._result = PipelineResult(set(), dict(self._commits), dict(self._iters),
                                      list(self._sends))

    def run_epoch(self, cascade: int) -> list:
        """One cascade slot; returns the (slot, src unit, dst unit,
        BoundaryInfo) records sent.

        Each record decodes, then commits.  A window adds its defects after
        its inbound flips as a block and fuses its temporal face; an idle
        window, with no defects and a face its state never grew onto, only
        drops the face's status, as fuse would.  A commit absorbs each
        outbound face its state grew onto, and one with crossings replaces
        its record in the send log; a face never grown onto is only walled,
        as absorb_face would, and keeps its empty record.  Both shortcuts
        raise where fuse and absorb_face would: on a face that is not
        open, and for the commit, on a state with live clusters.
        """
        graph = self.graph
        states = self._states
        by_block = self._block_defects
        inbox = self._inbox
        result = self._result
        log = result.sends
        for unit, dec, com in self.schedule[cascade]:
            st = states.get(unit)
            if dec is not None:
                blk, face, walls, _, _ = dec
                bid = (unit, blk.epoch)
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
                if defects or face in st.touched:
                    pre = st.grow_iterations
                    if defects:
                        st.add_block(sorted(defects))
                    if face is not None:
                        fuse(st, face)
                    if st.grow_iterations != pre:
                        result.iters[bid] = st.grow_iterations - pre
                elif face is not None:
                    fs = st.face_status
                    if fs.get(face) != 'open':
                        raise ValueError(f"face {face} is not open")
                    del fs[face]
            if com is not None:
                if st is None:
                    raise PipelineStallError(
                        f"window ({unit}, {com.block.epoch}) committed before it decoded")
                i = com.send_index
                for face, dst in com.sends:
                    if face in st.touched:
                        crossings = st.absorb_face(face)
                        if crossings:
                            log[i] = (cascade, unit, dst,
                                      BoundaryInfo(face, frozenset(crossings)))
                    else:
                        fs = st.face_status
                        if fs.get(face) != 'open':
                            raise ValueError(f"face {face} is not open")
                        if st.live:
                            raise ValueError("absorb_face needs a settled state")
                        fs[face] = 'wall'
                    inbox[face] = log[i][3]
                    i += 1
        return log[self._bounds[cascade]:self._bounds[cascade + 1]]

    def run(self, defects) -> PipelineResult:
        """Full run over all cascade slots; returns corrections and the log.

        The result is the run's own: its commits, iters and sends start as
        copies of what set-up built, and the run writes only the windows
        that grew and the commits that carried crossings."""
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
