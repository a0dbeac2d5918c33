"""Parallel window pipeline tests.

The cascade schedule, group coloring, and boundary-info protocol are pinned
on small hand-traced graphs; validity on larger graphs is checked against
recounted defect sets, mirroring the fusion tests.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgedec.fusion import FusionPlan
from surgedec.graph import DecodingGraph, Layout, face_edges, merge_patches, pack_vid
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import cut_parities, decode_region, face_statuses
from surgedec import uf, windows
from surgedec.windows import (BoundaryInfo, Pipeline, PipelineStallError,
                              assign_groups)

from .helpers import (RefUfState, decode_block, fuse_states, grown_union, rank_of,
                      toggled_defects)
from .test_uf import kernel_view


def row_layout(n, d=3):
    return Layout(d, {p: (0, p) for p in range(n)})


def grid_layout(d=3):
    return Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})


def merged_graph(lay, rounds):
    g = DecodingGraph(lay, rounds)
    for s in lay.seams:
        merge_patches(g, s, (0, rounds))
    return g


def test_assign_groups_row_and_grid():
    assert assign_groups(row_layout(3)) == {0: 1, 1: 2, 2: 3}
    groups = assign_groups(grid_layout())
    assert groups == {0: 1, 1: 2, 2: 3, 3: 1}
    for s in grid_layout().seams:
        assert groups[s.patch_a] != groups[s.patch_b]
    # a 4x4 grid, every seam present: the stripe alone keeps neighbours apart
    lay = Layout(3, {4 * r + c: (r, c) for r in range(4) for c in range(4)})
    assert len(lay.seams) == 24
    groups = assign_groups(lay)
    assert set(groups.values()) == {1, 2, 3}
    for s in lay.seams:
        assert groups[s.patch_a] != groups[s.patch_b]


def test_single_patch_pipeline_matches_fusion_plan():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 9)
    plan = FusionPlan(g)
    pipe = Pipeline(g)
    ekeys = list(g.edges())
    rng = random.Random(417)
    for _ in range(20):
        flipped = {k for k in ekeys if rng.random() < 0.04}
        defects = toggled_defects(flipped)
        res = pipe.run(sorted(defects))
        assert res.correction == plan.decode(sorted(defects))


def test_straddling_pair_commit_trace():
    # two EW-merged d=5 patches, one epoch; groups are (1, 2)
    lay = row_layout(2, d=5)
    g = merged_graph(lay, 5)
    u = pack_vid(0, 2, 2, 3)
    w = pack_vid(1, 2, 2, 0)
    s = pack_vid(g.seam_pid(lay.seams[0]), 2, 2, 0xFF)
    pipe = Pipeline(g)
    assert pipe.groups == {0: 1, 1: 2}
    res = pipe.run([u, w])
    # upstream matched u through the seam and dumped the parity on w;
    # downstream saw its defect cancelled and decoded nothing
    assert res.correction == {(u, s), (w, s)}
    assert res.commits == {(0, 0): 1, (1, 0): 2}
    # two rounds reach the seam vertex, the third touches its face and suspends
    assert res.iters[(0, 0)] == 3
    assert res.iters[(1, 0)] == 0
    assert res.sends == [
        (1, 0, 1, BoundaryInfo(("s", 0, 0), frozenset({(w, s)})))]


def test_empty_run_still_sends_boundary_info():
    lay = row_layout(3)
    g = merged_graph(lay, 9)
    pipe = Pipeline(g)
    res = pipe.run([])
    assert res.correction == set()
    # one info per inter-leaf face per epoch, all empty
    assert len(res.sends) == 2 * 3
    assert all(info.committed_crossings == frozenset() for *_, info in res.sends)
    for (leaf, epoch), cascade in res.commits.items():
        assert cascade == epoch + pipe.groups[leaf]
    assert all(n == 0 for n in res.iters.values())


def test_each_run_owns_its_result():
    # a run's commits, iters and sends start as copies of what set-up
    # built and the run writes into its copies only, so mutating one
    # run's result, or the records run_epoch returned, changes no later run
    lay = row_layout(2, d=5)
    g = merged_graph(lay, 10)
    u, w = pack_vid(0, 2, 2, 3), pack_vid(1, 2, 2, 0)
    for defects in ([], [u, w]):
        fresh = Pipeline(g).run(defects)
        want = (dict(fresh.commits), dict(fresh.iters), list(fresh.sends))
        pipe = Pipeline(g)
        first = pipe.run(defects)
        assert (first.commits, first.iters, first.sends) == want
        first.commits.clear()
        first.iters[(0, 0)] = 99
        first.sends[0] = None
        first.sends.append(None)
        pipe._reset(defects)
        for k in range(pipe.slots):
            pipe.run_epoch(k).clear()
        second = pipe.run(defects)
        assert (second.commits, second.iters, second.sends) == want
        assert second.commits is not first.commits
        assert second.iters is not first.iters
        assert second.sends is not first.sends
    # the second sample's commit carried its crossing, the first's did not
    assert want[2] == [(1, 0, 1, BoundaryInfo(("s", 0, 0), frozenset({
        (w, pack_vid(g.seam_pid(lay.seams[0]), 2, 2, 0xFF))}))),
        (2, 0, 1, BoundaryInfo(("s", 0, 1), frozenset()))]


def test_a_run_builds_one_state_per_unit(monkeypatch):
    g = merged_graph(grid_layout(d=5), 15)
    pipe = Pipeline(g)
    built, added, fused = [], [], []

    class Recorded(uf.UfState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def add_block(self, defects):
            added.append((self, list(defects)))
            return super().add_block(defects)

    real_fuse = windows.fuse
    monkeypatch.setattr(windows, "UfState", Recorded)

    def recorded_fuse(st, face):
        # only a face the state grew onto counts as fused here
        if face in st.touched:
            fused.append((st, face))
        real_fuse(st, face)

    monkeypatch.setattr(windows, "fuse", recorded_fuse)

    def by_unit():
        """The units of the built states, the (unit, face) of each fuse
        and the (unit, defects) of each block added with defects."""
        unit_of = {id(st): u for u, st in pipe._states.items()}
        return (sorted(unit_of[id(st)] for st in built),
                sorted((unit_of[id(st)], face) for st, face in fused),
                [(unit_of[id(st)], defects) for st, defects in added if defects])

    # each unit's first window builds its rolling state, with the face
    # statuses of all the unit's windows; nothing else builds one.  Only a
    # window with defects is added to its unit's state, and only a window
    # whose temporal face its state grew onto, from either side, fuses that
    # face there.  Every other window's fuse only drops its face's status
    # and a commit walls the outbound faces, so every unit ends with its
    # seam faces walled and no temporal face left
    assert pipe.run([]).correction == set()
    assert added == []
    assert by_unit() == ([0, 1, 2, 3], [], [])
    assert all(len(pipe.statuses[u]) == len({f for e in range(3)
                                              for f in pipe.windows[(u, e)].block.faces})
               for u in range(4))
    walled = {u: {f: "wall" for f in pipe.statuses[u] if f[0] == "s"} for u in range(4)}
    assert {u: st.face_status for u, st in pipe._states.items()} == walled
    # one defect in round 2 of the middle epoch decodes inside unit 2's
    # rolling state; its cluster drains to the real boundary two edges away
    # before it reaches either temporal face, so no window fuses anything.
    # One in round 0 of that epoch touches the face to the epoch before at
    # once, so that window fuses it
    for rnd, joined in ((7, []), (5, [(2, ("t", 2, 1))])):
        for log in (built, added, fused):
            log.clear()
        v = pack_vid(2, rnd, 2, 1)
        res = pipe.run([v])
        assert toggled_defects(res.correction) == {v}
        assert len(added) == 1
        # the block's defects arrive as ranks
        assert by_unit() == ([0, 1, 2, 3], joined, [(2, [rank_of(g, v)])])
        assert {u: st.face_status for u, st in pipe._states.items()} == walled


def test_a_run_finds_each_defects_block_once(monkeypatch):
    # a 10x10 field of d=5 patches over 6 epochs: the run groups every
    # defect by block in one numpy pass (graph.ranks_by_block), so block_of
    # runs only once per inbound crossing, to orient it
    lay = Layout(5, {i: (i // 10, i % 10) for i in range(100)})
    g = apply_merge_schedule(DecodingGraph(lay, 6 * 5),
                             random_merge_schedule(lay, 6, 0.5, 1))
    defects = EdgeTable(g).sample(0.001, derived_rng(1, 0)).defects
    pipe = Pipeline(g)
    calls = []
    real = g.block_of
    monkeypatch.setattr(g, "block_of", lambda v: calls.append(v) or real(v))
    res = pipe.run(sorted(defects))
    assert toggled_defects(res.correction) == defects
    crossings = sum(len(info.committed_crossings) for *_, info in res.sends)
    assert crossings
    assert len(calls) == crossings


def test_commit_cascade_schedule_on_grid():
    g = merged_graph(grid_layout(), 9)
    pipe = Pipeline(g)
    res = pipe.run([])
    assert set(res.commits) == {(leaf, e) for leaf in range(4) for e in range(3)}
    for (leaf, epoch), cascade in res.commits.items():
        assert cascade == epoch + pipe.groups[leaf]
    # every seam face crossed by exactly one send, upstream to downstream
    sent_faces = [info.face for *_, info in res.sends]
    assert len(sent_faces) == len(set(sent_faces)) == 4 * 3
    for cascade, src, dst, info in res.sends:
        assert pipe.groups[src] < pipe.groups[dst]
        assert res.commits[(src, info.face[2])] == cascade


def test_pipeline_valid_on_random_grid_instances():
    g = merged_graph(grid_layout(), 6)
    pipe = Pipeline(g)
    plan = FusionPlan(g)
    ekeys = list(g.edges())
    rng = random.Random(92)
    for _ in range(25):
        flipped = {k for k in ekeys if rng.random() < 0.03}
        defects = toggled_defects(flipped)
        res = pipe.run(sorted(defects))
        assert toggled_defects(res.correction) == defects
        # same decoder family; corrections agree in weight most of the time
        assert toggled_defects(plan.decode(sorted(defects))) == defects


def test_pipeline_valid_with_partial_merges():
    lay = row_layout(2)
    g = DecodingGraph(lay, 12)
    merge_patches(g, lay.seams[0], (3, 9))
    pipe = Pipeline(g)
    ekeys = list(g.edges())
    rng = random.Random(133)
    for _ in range(25):
        flipped = {k for k in ekeys if rng.random() < 0.04}
        defects = toggled_defects(flipped)
        res = pipe.run(sorted(defects))
        assert toggled_defects(res.correction) == defects


def test_stall_surfaces_as_error():
    lay = row_layout(2)
    g = merged_graph(lay, 3)
    pipe = Pipeline(g)
    # a schedule that drops leaf 0's commit: downstream leaf 1 decodes in
    # slot 1 without the boundary info that commit would have sent
    pipe.schedule = tuple(tuple((u, dec, None if u == 0 else com) for u, dec, com in records)
                          for records in pipe.schedule)
    with pytest.raises(PipelineStallError, match="lacks boundary info"):
        pipe.run([])
    pipe = Pipeline(g)
    # commit scheduled before its own decode ever ran
    with pytest.raises(PipelineStallError, match="committed before it decoded"):
        pipe.run_epoch(1)


def test_defects_outside_the_carved_blocks_are_rejected():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 6)
    inside = pack_vid(0, 2, 0, 0)
    for bad in (pack_vid(0, 9, 0, 0), pack_vid(7, 0, 0, 0)):
        for decode in (Pipeline(g).run, FusionPlan(g).decode,
                       lambda ds: decode_region(g, ds)):
            with pytest.raises(ValueError, match=f"{bad:#x}"):
                decode([inside, bad])


def test_pipeline_plan_and_global_valid_under_random_schedules():
    cases = []
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    for seed in (1, 2, 3, 4):
        g = apply_merge_schedule(DecodingGraph(lay, 9),
                                 random_merge_schedule(lay, 3, 0.5, seed))
        ekeys = list(g.edges())
        rng = random.Random(seed)
        cases.append((g, [toggled_defects({k for k in ekeys if rng.random() < 0.03})
                          for _ in range(5)]))
    # a cluster that merges into one already peeled through an absorbed
    # seam face must not sink through that face once it is a wall
    pair = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = apply_merge_schedule(DecodingGraph(pair, 15),
                             random_merge_schedule(pair, 3, 1.0, 4))
    cases.append((g, [EdgeTable(g).sample(0.05, derived_rng(4, 0)).defects]))
    for g, samples in cases:
        pipe = Pipeline(g)
        plan = FusionPlan(g)
        for defects in samples:
            assert toggled_defects(pipe.run(sorted(defects)).correction) == defects
            assert toggled_defects(plan.decode(sorted(defects))) == defects
            assert toggled_defects(decode_region(g, sorted(defects)).correction) == defects


# the errors whose logical outcome the pipeline gets wrong, by (d, epochs,
# weight).  A commit peels through its seam contact as if the seam were a
# free boundary (ROADMAP item 1); the fix for that lowers this count and
# must record the new value here
PIPELINE_WRONG = {(3, 2, 2): 54}


@pytest.mark.parametrize("d, epochs, weight, errors", [
    (3, 2, 1, 231),
    (3, 2, 2, 26565),
    (5, 2, 1, 1225),
    pytest.param(5, 1, 2, 173755, marks=pytest.mark.slow),
])
def test_pipeline_plan_and_global_keep_the_code_distance(d, epochs, weight, errors):
    # two EW-merged patches, merged in every epoch: each error of weight at
    # most (d-1)/2 must come back as a valid correction, and with the true
    # logical outcome from the plan and the global decode.  The pipeline's
    # wrong outcomes are counted against PIPELINE_WRONG
    lay = row_layout(2, d)
    g = merged_graph(lay, epochs * d)
    table = EdgeTable(g)
    pipe, plan = Pipeline(g), FusionPlan(g)
    decoders = (lambda ds: pipe.run(ds).correction, plan.decode,
                lambda ds: decode_region(g, ds).correction)
    seen = wrong = 0
    for flips in itertools.combinations(range(table.n_edges), weight):
        flips = np.array(flips)
        defects = table.defects_of(flips)
        truth = table.logical_of(flips)
        for i, decode in enumerate(decoders):
            corr = decode(defects)
            assert toggled_defects(corr) == set(defects), flips
            cp = cut_parities(g, corr)
            right = all(cp.get(p, 0) == truth.get(p, 0) for p in lay.positions)
            if i == 0:
                wrong += not right
            else:
                assert right, flips
        seen += 1
    assert seen == errors
    assert wrong == PIPELINE_WRONG.get((d, epochs, weight), 0)


def test_a_unit_walled_in_without_a_boundary_fails_loudly():
    # every seam of a 3x3 grid merged: patch 7 (south middle, group 3) has
    # no real boundary, and all three of its seam faces are inbound walls.
    # One error on its east seam leaves patch 8's defect suspended on two
    # faces; it drains north into unit 5, so unit 7 keeps an odd defect
    # with nowhere to go.  The global and fused decodes correct it.
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    g = apply_merge_schedule(DecodingGraph(lay, 3), [frozenset(lay.seams)])
    seam = lay.side_seam(7, "e")
    defects = set(face_edges(g, ("s", lay.seam_index(seam), 0))[0])
    assert toggled_defects(FusionPlan(g).decode(sorted(defects))) == defects
    assert toggled_defects(decode_region(g, sorted(defects)).correction) == defects
    with pytest.raises(ValueError, match="walled in"):
        Pipeline(g).run(sorted(defects))


def run_views(pipe, defects):
    """A run's result fields, the kernel_view of each unit's state and
    every edge the units grew (grown_union)."""
    res = pipe.run(defects)
    return ((res.correction, res.iters, res.commits, res.sends),
            {u: kernel_view(st) for u, st in pipe._states.items()},
            grown_union(pipe._states.values()))


def test_a_run_after_a_failed_run_starts_clean():
    # the walled-in layout above: a run that raises mid-cascade leaves its
    # units' states half grown in the pipeline's shared tables, and the
    # next run must clear them without that run having finished
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    g = apply_merge_schedule(DecodingGraph(lay, 3), [frozenset(lay.seams)])
    table = EdgeTable(g)
    bad = sorted(table.sample(0.1, derived_rng(1)).defects)
    good = sorted(table.sample(0.1, derived_rng(0)).defects)
    want = run_views(Pipeline(g), good)
    assert any(info.committed_crossings for *_, info in want[0][3])
    pipe = Pipeline(g)
    with pytest.raises(ValueError, match="walled in"):
        pipe.run(bad)
    assert any(pipe._tables.growth) and max(pipe._tables.parent) >= 0
    assert run_views(pipe, good) == want
    held = {v for st in pipe._states.values() for v in st.taken}
    assert held == {v for v, up in enumerate(pipe._tables.parent) if up >= 0}


def test_decoders_of_one_graph_never_share_tables():
    # two pipelines and a fusion plan of one graph, their decodes
    # interleaved, give what each gives when it decodes alone
    lay = grid_layout()
    g = apply_merge_schedule(DecodingGraph(lay, 9), random_merge_schedule(lay, 3, 0.6, 4))
    table = EdgeTable(g)
    samples = [sorted(table.sample(0.05, derived_rng(4, t)).defects) for t in range(9)]

    def outcome(decoder, defects):
        if isinstance(decoder, FusionPlan):
            return decoder.decode(defects)
        res = decoder.run(defects)
        return res.correction, res.iters, res.commits, res.sends

    kinds = (Pipeline, Pipeline, FusionPlan)
    decoders = [kind(g) for kind in kinds]
    together = [outcome(decoders[t % 3], s) for t, s in enumerate(samples)]
    for i, kind in enumerate(kinds):
        alone = kind(g)
        assert together[i::3] == [outcome(alone, s) for s in samples[i::3]]


def test_crossings_are_oriented_without_vertex_sets(monkeypatch):
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    g = apply_merge_schedule(DecodingGraph(lay, 9),
                             random_merge_schedule(lay, 3, 0.5, 5))
    table = EdgeTable(g)
    samples = [table.sample(0.03, derived_rng(5, t)).defects for t in range(6)]
    want = [Pipeline(g).run(sorted(defects)) for defects in samples]

    def no_vertex_sets(graph):
        raise AssertionError("region_vids called")

    monkeypatch.setattr(uf, "region_vids", no_vertex_sets)
    monkeypatch.setattr(windows, "region_vids", no_vertex_sets)
    pipe = Pipeline(g)
    crossed = 0
    for defects, ref in zip(samples, want):
        res = pipe.run(sorted(defects))
        assert toggled_defects(res.correction) == defects
        assert res.correction == ref.correction and res.sends == ref.sends
        crossed += sum(len(info.committed_crossings) for *_, info in res.sends)
    # some inbound commit flipped a defect, so orientation was exercised
    assert crossed


def test_pipeline_set_up_holds_no_per_vertex_state():
    # one d=5 patch over 200 epochs (20,000 vertices): what Pipeline keeps
    # grows with its blocks, not its vertices.  A frozenset of every
    # block's vertices held about 120 B per vertex; blocks, walls and
    # sends alone hold under 5.  The adjacency cache, which set-up reads
    # to fill, is the graph's: it is filled before tracing, and set-up
    # keeps it as it is.
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5 * 200)
    cache = g._cache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipe = Pipeline(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pipe.epochs == 200 and g._adj is cache
    assert held / len(g.vertex_array()) < 20


class TwoStatePipeline(Pipeline):
    """The window path that in-place blocks replaced: a unit's first window
    adds its defects to the unit's rolling state, and each later window
    decodes in a state of its own (decode_block), which fuse_states merges
    into the rolling state before it joins the temporal face.  Every
    commit absorbs each outbound face.  It walks the schedule one record
    at a time with no shortcut for idle windows or untouched faces, and
    every state is a RefUfState, with dict maps."""

    def run_epoch(self, cascade):
        sent = []
        for unit, dec, com in self.schedule[cascade]:
            if dec is not None:
                self._decode_window(unit, dec.block.epoch)
            if com is not None:
                st = self._states[unit]
                for face, dst in com.sends:
                    info = BoundaryInfo(face, frozenset(st.absorb_face(face)))
                    sent.append((cascade, unit, dst, info))
                    self._inbox[face] = info
        self._result.sends.extend(sent)
        return sent

    def _decode_window(self, unit, epoch):
        bid = (unit, epoch)
        win = self.windows[bid]
        flips = set()
        for face in win.walls:
            for u, w in self._inbox.pop(face).committed_crossings:
                flips.symmetric_difference_update((u if self.graph.block_of(u) == bid else w,))
        item = self.graph.vertex_array().item
        defects = sorted(flips.symmetric_difference(
            item(r) for r in self._block_defects.get(bid, ())))
        rolling = self._states.get(unit)
        if rolling is None:
            rolling = self._states[unit] = RefUfState(self.graph, (), self.statuses[unit])
            if defects:
                rolling.add_block(sorted(self.graph.ranks(defects)))
            self._result.iters[bid] = rolling.grow_iterations
            return
        pre = rolling.grow_iterations
        st = decode_block(self.graph, win.block, defects, face_statuses(win.block, win.walls))
        (face,) = win.fuses
        fuse_states(rolling, st, face)
        self._result.iters[bid] = rolling.grow_iterations - pre


def slot_views(pipe, defects):
    """Run pipe on defects; returns the result and, after each cascade
    slot, the kernel_view of every unit's rolling state and the edges
    every unit grew so far (grown_union).  A unit decodes at most one
    window and commits at most one per slot, so each view follows one
    window of each unit."""
    views = []
    run_epoch = pipe.run_epoch

    def viewed(cascade):
        sent = run_epoch(cascade)
        views.append((cascade, {u: kernel_view(st) for u, st in pipe._states.items()},
                      grown_union(pipe._states.values())))
        return sent

    pipe.run_epoch = viewed
    return pipe.run(defects), views


@settings(max_examples=100, derandomize=True, deadline=None)
@given(d=st.sampled_from((3, 5)), grid=st.booleans(), epochs=st.integers(2, 4),
       every_seam=st.booleans(), p=st.sampled_from((0.01, 0.05, 0.1, 0.15)),
       seed=st.integers(0, 2**16))
def test_in_place_blocks_match_fused_blocks(d, grid, epochs, every_seam, p, seed):
    # slot by slot, a block added in place and joined by fuse leaves each
    # rolling state as the two-state decode_block and fuse_states do,
    # iteration orders included; a stream runs ten times the epochs
    if grid:
        lay = grid_layout(d)
        schedule = ([frozenset(lay.seams)] * epochs if every_seam
                    else random_merge_schedule(lay, epochs, 0.6, seed))
        g = apply_merge_schedule(DecodingGraph(lay, epochs * d), schedule)
    else:
        g = DecodingGraph(Layout(d, {0: (0, 0)}), 10 * epochs * d)
    defects = sorted(EdgeTable(g).sample(p, derived_rng(seed)).defects)
    got, got_views = slot_views(Pipeline(g), defects)
    want, want_views = slot_views(TwoStatePipeline(g), defects)
    assert toggled_defects(got.correction) == set(defects)
    assert (got.correction, got.iters, got.commits, got.sends) == (
        want.correction, want.iters, want.commits, want.sends)
    assert len(got_views) == len(want_views)
    for mine, ref in zip(got_views, want_views):
        assert mine == ref
