"""Parallel window pipeline tests.

The cascade schedule, group coloring, and boundary-info protocol are pinned
on small hand-traced graphs; validity on larger graphs is checked against
recounted defect sets, mirroring the fusion tests.
"""

import random

import pytest

from surgedec.fusion import FusionPlan
from surgedec.graph import (DecodingGraph, Layout, Seam, build_patch_graph,
                            merge_patches, pack_vid)
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import decode_region
from surgedec.windows import (BoundaryInfo, Pipeline, PipelineStallError,
                              assign_groups)


def toggled_defects(edges):
    cnt = {}
    for a, b in edges:
        cnt[a] = cnt.get(a, 0) + 1
        if b >= 0:
            cnt[b] = cnt.get(b, 0) + 1
    return {v for v, c in cnt.items() if c % 2}


def row_layout(n, d=3):
    positions = {p: (0, p) for p in range(n)}
    seams = [Seam(p, p + 1, "ew") for p in range(n - 1)]
    return Layout(d, positions, seams)


def grid_layout(d=3):
    return Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
                  [Seam(0, 1, "ew"), Seam(2, 3, "ew"),
                   Seam(0, 2, "ns"), Seam(1, 3, "ns")])


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
    g = build_patch_graph(3, 9)
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
    pipe._reset([])
    # downstream leaf 1 asked to decode before leaf 0 committed
    with pytest.raises(PipelineStallError):
        pipe._decode_window(1, 0)
    pipe = Pipeline(g)
    # commit scheduled before its own decode ever ran
    with pytest.raises(PipelineStallError):
        pipe.run_epoch(1)


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
