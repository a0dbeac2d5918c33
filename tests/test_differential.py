"""Differential tests: the window pipeline against a full-scan reference.

The reference below is the window path without touch lists: every window
runs a full block decode (grow, settle, peel) even when it has no defects,
fuse scans every edge of the fused face for fully grown ones and always
settles and peels, and a commit filters its crossings through the face's
edge table.  It reads no touch list, so the pipeline and the fusion plan
must reproduce it exactly, edge for edge and round for round, down to the
cluster roots and the order of each vertex's grown edges, on random
layouts, merge schedules and noise draws.  Its states are RefUfState, whose
parent, size, parity and growth are dicts, so every comparison also checks
the flat tables against the dict maps they replaced.
"""

import contextlib
import copy
import hashlib
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surgedec import windows
from surgedec.fusion import FusionPlan
from surgedec.graph import DecodingGraph, Layout, face_edges, pack_vid
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import UfState, face_statuses
from surgedec.windows import BoundaryInfo, Pipeline, PipelineResult, PipelineStallError

from .helpers import (RefUfState, map_view, one_state_plan, ref_edge_id, ref_region_vids,
                      ref_tables, toggled_defects)

RATES = (0.0, 0.001, 0.05, 0.08)


def ref_decode_block(graph, block, defects, walls=()):
    fs = {f: "wall" if f in walls else "open" for f in block.faces}
    state = RefUfState(graph, defects, face_status=fs)
    state.settle()
    state.peel_resolved()
    return state


def ref_merge(a, b):
    """Merge state b, decoded apart from a, into a: its maps, its face
    statuses and its growth, an edge grown from both sides summed up to a
    full edge.  Touch lists are not merged."""
    for f, status in b.face_status.items():
        assert a.face_status.setdefault(f, status) == status
    a.parent.update(b.parent)
    a.size.update(b.size)
    a.parity.update(b.parity)
    a.bnd.update(b.bnd)
    a.contacts.update(b.contacts)
    a.frontier.update(b.frontier)
    a.grown_adj.update(b.grown_adj)
    a.defect_ranks |= b.defect_ranks
    a.correction_ids ^= b.correction_ids
    a.live |= b.live
    a.grow_iterations += b.grow_iterations
    for eid, g in b.growth.items():
        cur = a.growth.get(eid)
        a.growth[eid] = g if cur is None else min(2, cur + g)


def ref_fuse(a, b, face):
    if a is not b:
        ref_merge(a, b)
    del a.face_status[face]
    adj = a.grown_adj
    ranks = ref_tables(a.graph).ranks
    for ekey in face_edges(a.graph, face):
        eid = ref_edge_id(a.graph, ekey, ranks)
        if a.growth.get(eid, 0) >= 2:
            u, w = ranks[ekey[0]], ranks[ekey[1]]
            a._adopt(u)
            a._adopt(w)
            adj.setdefault(u, []).append((w, eid))
            adj.setdefault(w, []).append((u, eid))
            a._union(u, w)
    for root in a._drop_face(face):
        if a._alive(root):
            a.live.add(root)
    a.settle()
    a.peel_resolved()
    return a


def ref_absorb_face(state, face):
    assert state.face_status[face] == "open" and not state.live
    state.face_status[face] = "wall"
    held = state._drop_face(face)
    emitted = set()
    if held:
        for root, defs in state._defects_by_root().items():
            if root in held:
                emitted |= state._peel(root, defs, held[root])
    on_face = set(face_edges(state.graph, face))
    return {k for k in state.graph.edge_keys(emitted) if k in on_face}


class ReferencePipeline(Pipeline):
    """Pipeline whose windows always decode and fuse by full face scan.

    It builds its whole result as the run goes, none of it from what
    set-up prebuilt: every window writes its growth rounds, every commit
    its slot and a fresh record per send, and run_epoch collects the
    records each commit returns.  Each window's state is built with that
    window's statuses alone, and merges the next window's in as it fuses.
    decoded and committed count the windows its hooks handled, so a test
    can tell that run_epoch called them for every window.  joined counts
    the temporal faces a run must fuse: those grown onto, by the unit's
    state before the window or by the window's own decode, read from the
    growth of the face's edges.  A window whose face was never grown onto
    joins nothing.  Inbound crossings are oriented by the blocks' vertex
    sets, built one vertex at a time (ref_region_vids).
    """

    def __init__(self, graph):
        self.regions = ref_region_vids(graph)
        super().__init__(graph)

    def _reset(self, defects):
        super()._reset(defects)
        self._result = PipelineResult(set(), {}, {}, [])
        self.decoded = self.committed = self.joined = 0

    def run_epoch(self, cascade):
        sent = []
        for unit, dec, com in self.schedule[cascade]:
            if dec is not None:
                self._decode_window(unit, dec.block.epoch)
            if com is not None:
                for rec in self._commit_window(unit, com.block.epoch, cascade):
                    sent.append(rec)
                    self._inbox[rec[3].face] = rec[3]
        self._result.sends.extend(sent)
        return sent

    def _decode_window(self, unit, epoch):
        bid = (unit, epoch)
        reg = self.regions[bid]
        win = self.windows[bid]
        flips = set()
        for face in win.walls:
            info = self._inbox.pop(face, None)
            if info is None:
                raise PipelineStallError(f"window {bid} lacks {face}")
            for u, w in info.committed_crossings:
                flips.symmetric_difference_update((u if u in reg else w,))
        vids = ref_tables(self.graph).vids
        defects = flips.symmetric_difference(
            vids[r] for r in self._block_defects.get(bid, ()))
        state = ref_decode_block(self.graph, win.block, sorted(defects), win.walls)
        rolling = self._states.setdefault(unit, state)
        if rolling is state:
            self._result.iters[bid] = state.grow_iterations
        else:
            face = ("t", unit, epoch)
            ranks = ref_tables(self.graph).ranks
            eids = [ref_edge_id(self.graph, k, ranks) for k in face_edges(self.graph, face)]
            if any(rolling.growth.get(e) or state.growth.get(e) for e in eids):
                self.joined += 1
            pre = rolling.grow_iterations
            ref_fuse(rolling, state, face)
            self._result.iters[bid] = rolling.grow_iterations - pre
        self.decoded += 1

    def _commit_window(self, unit, epoch, cascade):
        state = self._states[unit]
        out = []
        for face, dst in self.windows[(unit, epoch)].sends:
            crossings = ref_absorb_face(state, face)
            out.append((cascade, unit, dst, BoundaryInfo(face, frozenset(crossings))))
        self._result.commits[(unit, epoch)] = cascade
        self.committed += 1
        return out


def ref_plan_decode(plan, defects):
    graph = plan.graph
    blocks = {bid: win.block for bid, win in plan.windows.items()}
    by_block = {}
    for v in defects:
        by_block.setdefault(graph.block_of(v), []).append(v)
    states = {bid: ref_decode_block(graph, blk, by_block.get(bid, ()))
              for bid, blk in blocks.items()}
    sides = {}
    for bid, blk in blocks.items():
        for f in blk.faces:
            sides.setdefault(f, []).append(bid)
    rep = {bid: bid for bid in blocks}
    for face in plan.fuse_order:
        ba, bb = sorted(sides[face])
        ra, rb = rep[ba], rep[bb]
        ref_fuse(states[ra], states[rb], face)
        if ra != rb:
            rep = {k: ra if r == rb else r for k, r in rep.items()}
            del states[rb]
    correction = set()
    for state in states.values():
        correction ^= state.correction
    return correction


def check_touch_lists(state):
    """Each open face's touch list names exactly its edges with growth."""
    open_faces = {f for f, status in state.face_status.items() if status == "open"}
    assert set(state.touched) <= open_faces
    ranks = ref_tables(state.graph).ranks
    growth = map_view(state)[3]
    for f in open_faces:
        grown = {k for k in face_edges(state.graph, f)
                 if growth.get(ref_edge_id(state.graph, k, ranks), 0)}
        assert set(state.graph.edge_keys(state.touched.get(f, ()))) == grown, f


@contextlib.contextmanager
def touch_lists_checked():
    """Check every state's touch lists after each face it fuses; yields the
    faces that had a touch list when they were fused, in order."""
    fuse = windows.fuse
    calls = []

    def checked(state, face):
        grown_onto = face in state.touched
        fuse(state, face)
        check_touch_lists(state)
        if grown_onto:
            calls.append(face)

    with mock.patch.object(windows, "fuse", checked):
        yield calls


def state_view(state):
    """Everything a decoder state holds but its touch lists, its parent,
    size, parity and growth as map_view gives them; lists in grown_adj
    compare in order, so a different union order shows."""
    return (*map_view(state), state.bnd, state.contacts, state.frontier,
            state.grown_adj, state.live, state.defect_ranks, state.correction_ids,
            state.face_status, state.grow_iterations)


def held_view(state):
    """state_view without the growth, which a Pipeline's unit states share
    in one table (map_view)."""
    view = state_view(state)
    return view[:3] + view[4:]


def check_partition(pipe, ref):
    """No vertex or edge belongs to two unit states of one run.

    The reference's dict-backed states grew pairwise disjoint edge sets,
    whose union is every nonzero entry of the growth table the pipeline's
    unit states share; the unit states took pairwise disjoint vertex sets,
    whose union is every vertex the shared parent table holds."""
    states = list(pipe._states.values())
    assert len({id(st.growth) for st in states}) == len({id(st.parent) for st in states}) == 1
    grown = {}
    for state in ref._states.values():
        mine = map_view(state)[3]
        assert not grown.keys() & mine.keys()
        grown.update(mine)
    assert grown == map_view(states[0])[3]
    taken = set()
    for state in states:
        assert len(set(state.taken)) == len(state.taken)
        assert not taken & set(state.taken)
        taken.update(state.taken)
    assert taken == {v for v, up in enumerate(states[0].parent) if up >= 0}


def assert_plan_matches_its_old_loop(plan, defects, fused, plan_joins):
    """The plan's correction fused and its one state equal what the
    one-state loop it replaced leaves (one_state_plan), and the faces it
    had a touch list when the plan fused them (plan_joins) are exactly
    those that loop found touched, in fuse_order."""
    want, touched = one_state_plan(plan, defects)
    assert fused == want.correction
    (state,) = plan._states.values()
    assert state_view(state) == state_view(want)
    assert plan_joins == touched


def assert_same_decodes(g, samples):
    """Decode each defect set of samples with a Pipeline, the reference
    and a FusionPlan of g, and check that they agree; returns the
    pipeline's result and the faces it fused, per sample."""
    pipe, ref = Pipeline(g), ReferencePipeline(g)
    plan = FusionPlan(g)
    # the prebuilt face-status maps every run shares, as they were built
    statuses = {unit: dict(fs) for unit, fs in pipe.statuses.items()}
    plan_statuses = {unit: dict(fs) for unit, fs in plan.statuses.items()}
    out = []
    for defects in samples:
        with touch_lists_checked() as joins:
            got = pipe.run(sorted(defects))
        with touch_lists_checked() as plan_joins:
            fused = plan.decode(sorted(defects))
        want = ref.run(sorted(defects))
        # the reference's hooks handled every window and every commit
        assert ref.decoded == len(pipe.windows) == len(got.iters)
        assert ref.committed == len(got.commits) == len(pipe.windows)
        assert got.correction == want.correction
        assert got.iters == want.iters
        assert got.commits == want.commits
        assert got.sends == want.sends
        for unit, state in pipe._states.items():
            assert held_view(state) == held_view(ref._states[unit])
        check_partition(pipe, ref)
        assert toggled_defects(got.correction) == set(defects)
        assert fused == ref_plan_decode(plan, sorted(defects))
        assert len(joins) == ref.joined
        assert_plan_matches_its_old_loop(plan, sorted(defects), fused, plan_joins)
        # no run leaves its mark on a map the next run starts from
        assert pipe.statuses == statuses
        assert plan.statuses == plan_statuses
        out.append((got, joins))
    return out


def assert_same_runs(g, p, seed, trials=2):
    table = EdgeTable(g)
    assert_same_decodes(g, [table.sample(p, derived_rng(seed, trial)).defects
                            for trial in range(trials)])


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.sampled_from((2, 3)), d=st.sampled_from((3, 5)), epochs=st.integers(2, 4),
       merge_prob=st.sampled_from((0.3, 0.6, 1.0)), every_seam=st.booleans(),
       p=st.sampled_from(RATES), seed=st.integers(0, 2**16))
def test_pipeline_matches_full_scan_reference_on_grids(n, d, epochs, merge_prob,
                                                       every_seam, p, seed):
    lay = Layout(d, {i: (i // n, i % n) for i in range(n * n)})
    # a random schedule joins a patch to at most one seam per epoch; with
    # every seam merged, a temporal face holds the time edges of two seams.
    # On a 3x3 grid that walls a patch in, which the pipeline rejects
    # (tests/test_windows.py pins the error).
    assume(not (every_seam and n == 3))
    schedule = ([frozenset(lay.seams)] * epochs if every_seam
                else random_merge_schedule(lay, epochs, merge_prob, seed))
    g = apply_merge_schedule(DecodingGraph(lay, epochs * d), schedule)
    assert_same_runs(g, p, seed)


def test_pipeline_matches_full_scan_reference_on_a_column_major_grid():
    # patch 0's south neighbour has a lower id than its east one, and every
    # seam stays merged, so each of its temporal faces holds the time edges
    # of two seams and the face walk meets the higher-keyed east seam's
    # first.  Trial 7 of seed 467 is a sample whose decoder state depends on
    # that union order, so fuse must union in face_edges order.
    lay = Layout(3, {i: (i % 2, i // 2) for i in range(4)})
    g = apply_merge_schedule(DecodingGraph(lay, 9), [frozenset(lay.seams)] * 3)
    assert_same_runs(g, 0.15, 467, trials=8)


@pytest.mark.parametrize("seed", (2, 12))
def test_pipeline_matches_full_scan_reference_where_most_windows_are_idle(seed):
    # a 4x4 grid of d=3 patches over 6 epochs at p=0.002: most windows
    # hold no defect after their inbound flips, so their temporal faces are
    # joined untouched, and most commits carry no crossing, yet each seed
    # has a commit that does.  The reference builds every iters entry,
    # commit slot and send record from scratch
    lay = Layout(3, {i: (i // 4, i % 4) for i in range(16)})
    g = apply_merge_schedule(DecodingGraph(lay, 6 * 3),
                             random_merge_schedule(lay, 6, 0.5, seed))
    res = Pipeline(g).run(sorted(EdgeTable(g).sample(0.002, derived_rng(seed, 0)).defects))
    idle = sum(n == 0 for n in res.iters.values())
    carried = sum(bool(info.committed_crossings) for *_, info in res.sends)
    assert idle > 3 * len(res.iters) // 4 and 0 < carried < len(res.sends) // 4
    assert_same_runs(g, 0.002, seed, trials=3)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(p=st.sampled_from(RATES), seed=st.integers(0, 2**16))
def test_pipeline_matches_full_scan_reference_on_a_stream(p, seed):
    assert_same_runs(DecodingGraph(Layout(3, {0: (0, 0)}), 40 * 3), p, seed, trials=1)


def test_plan_matches_the_two_state_plan_where_a_far_side_touch_diverged():
    # one state holds both sides of every face until the plan fuses it.
    # Here a cluster grows onto a face edge whose far endpoint a cluster of
    # the other block already holds; if that touch suspended the far
    # cluster too, the one-state plan would give 263 edges, not 279
    lay = Layout(5, {0: (0, 0), 1: (1, 0)})
    g = apply_merge_schedule(DecodingGraph(lay, 20),
                             random_merge_schedule(lay, 4, 1.0, seed=236))
    defects = sorted(EdgeTable(g).sample(0.15, derived_rng(236, 6)).defects)
    plan = FusionPlan(g)
    c = plan.decode(defects)
    assert c == ref_plan_decode(plan, defects)
    assert len(c) == 279
    assert hashlib.sha256(repr(sorted(c)).encode()).hexdigest()[:16] == "fd50ef95f4611e01"


@settings(max_examples=25, derandomize=True, deadline=None)
@given(d=st.sampled_from((3, 5)), epochs=st.integers(2, 4),
       p=st.sampled_from((0.1, 0.12, 0.15)), seed=st.integers(0, 2**16))
def test_plan_matches_the_two_state_plan_on_ns_merged_pairs(d, epochs, p, seed):
    # the pinned sample above, generalised to two patches merged north to
    # south in every epoch, at rates where clusters of both blocks grow onto
    # the same face edges before the plan fuses them.  Those touches rarely
    # change a correction, so the one state is also checked after its last
    # block is added, just before its last window fuses the faces: it must
    # hold what the blocks decoded apart hold, merged, which fails whenever
    # a touch from the far side suspends a cluster
    lay = Layout(d, {0: (0, 0), 1: (1, 0)})
    g = apply_merge_schedule(DecodingGraph(lay, epochs * d),
                             random_merge_schedule(lay, epochs, 1.0, seed))
    table, plan = EdgeTable(g), FusionPlan(g)
    real_add = UfState.add_block
    for trial in range(4):
        defects = sorted(table.sample(p, derived_rng(seed, trial)).defects)
        first = []

        def viewed(state, ranks):
            real_add(state, ranks)
            first[:] = [copy.deepcopy((state_view(state), state.touched))]

        with mock.patch.object(UfState, "add_block", viewed), \
                touch_lists_checked() as plan_joins:
            c = plan.decode(defects)
        assert c == ref_plan_decode(plan, defects)
        assert toggled_defects(c) == set(defects)
        assert_plan_matches_its_old_loop(plan, defects, c, plan_joins)
        by_block = {}
        for v in defects:
            by_block.setdefault(g.block_of(v), []).append(v)
        merged = RefUfState(g, ())
        touched = {}
        for bid, win in plan.windows.items():
            if bid in by_block:
                alone = ref_decode_block(g, win.block, by_block[bid])
                ref_merge(merged, alone)
                for f, eids in alone.touched.items():
                    touched.setdefault(f, []).extend(eids)
            else:
                merged.face_status.update(face_statuses(win.block, ()))
        assert first == [(state_view(merged), touched)]


def test_an_idle_window_fuses_a_face_grown_onto_from_below():
    # one defect in the last round of epoch 0 of a d=3 stream: its first
    # round touches the open temporal face to epoch 1 and suspends it.
    # Epoch 1 holds no defect, but its face was grown onto, so its window
    # fuses the face, which wakes the cluster and grows it to the boundary
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 3 * 3)
    v = pack_vid(0, 2, 1, 0)
    [(got, joins)] = assert_same_decodes(g, [{v}])
    assert joins == [("t", 0, 1)]
    assert got.iters[(0, 1)] > 0 and got.iters[(0, 2)] == 0


def test_a_face_grown_onto_commits_no_crossing_beside_an_untouched_face():
    # every seam of a 2x2 grid merged for one epoch: unit 0 commits its
    # east and its south seam face.  One error on the edge from the east
    # seam's row-0 vertex, which unit 0 holds, into the patch: its two
    # defects touch the east face and pair up in the same round, so the
    # east face is absorbed with no crossing, and the south face, never
    # grown onto, is only walled
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = apply_merge_schedule(DecodingGraph(lay, 3), [frozenset(lay.seams)])
    east, south = (face for face, _ in Pipeline(g).windows[(0, 0)].sends)
    s = face_edges(g, east)[0][1]
    it = iter(g.neighbors(s))
    x = next(o for _, o, f in zip(it, it, it) if f is None and o >= 0 and o >> 40 == 0)
    # the faces absorbed with a touch list
    absorbed = []
    real = UfState.absorb_face

    def recorded(state, face):
        if face in state.touched:
            absorbed.append(face)
        return real(state, face)

    with mock.patch.object(UfState, "absorb_face", recorded):
        [(got, _)] = assert_same_decodes(g, [{s, x}])
    assert absorbed == [east]
    assert [info for _, src, _, info in got.sends if src == 0] == [
        BoundaryInfo(east, frozenset()), BoundaryInfo(south, frozenset())]
    assert got.correction == {tuple(sorted((s, x)))}


@pytest.mark.parametrize("face", [("t", 0, 1), ("s", 0, 0)])
def test_a_corrupt_status_map_raises_from_fuse_and_absorb_face(face):
    # the slot loop joins every face through fuse and commits every face
    # through absorb_face, grown onto or not, so their checks are the only
    # ones: unit 0 fuses its temporal face to epoch 1 and commits its seam
    # faces, and one that is not open raises from the call that meets it
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = apply_merge_schedule(DecodingGraph(lay, 6), [frozenset(lay.seams)] * 2)
    pipe = Pipeline(g)
    assert pipe.statuses[0][face] == "open"
    pipe.statuses[0][face] = "wall"
    with pytest.raises(ValueError, match=re.escape(f"face {face} is not open")) as err:
        pipe.run([])
    assert err.traceback[-1].name == ("fuse" if face[0] == "t" else "absorb_face")
    # and a commit from a state with a live cluster raises from absorb_face:
    # in slot 2 unit 0 decodes nothing, since its patch has two epochs, and
    # commits epoch 1 first of all the slot's records
    pipe = Pipeline(g)
    pipe._reset([])
    pipe.run_epoch(0)
    pipe.run_epoch(1)
    assert pipe.schedule[2][0] == (0, None, pipe.windows[(0, 1)])
    pipe._states[0].live.add(0)
    with pytest.raises(ValueError, match="settled") as err:
        pipe.run_epoch(2)
    assert err.traceback[-1].name == "absorb_face"
