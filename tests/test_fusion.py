"""Fusion tests: merging block decodes must resolve straddling clusters
without disturbing already settled ones."""

import random

import pytest

from surgedec.graph import (DecodingGraph, Layout, Seam, build_patch_graph,
                            carve_blocks, merge_patches, pack_vid)
from surgedec.fusion import FusionPlan, fuse
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import decode_block, decode_region


def toggled_defects(edges):
    cnt = {}
    for a, b in edges:
        cnt[a] = cnt.get(a, 0) + 1
        if b >= 0:
            cnt[b] = cnt.get(b, 0) + 1
    return {v for v, c in cnt.items() if c % 2}


def blocks_by_id(graph):
    return {b.block_id: b for b in carve_blocks(graph)}


def test_temporal_pair_resolved_by_fusion():
    g = build_patch_graph(5, 10)
    blocks = blocks_by_id(g)
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    sa = decode_block(g, blocks[(0, 0)], [v])
    sb = decode_block(g, blocks[(0, 1)], [w])
    st = fuse(sa, sb, ("t", 0, 1))
    assert st.correction == {(v, w)}
    assert st.defects == set()
    assert ("t", 0, 1) not in st.face_status


def test_fusion_leaves_settled_clusters_alone():
    g = build_patch_graph(5, 10)
    blocks = blocks_by_id(g)
    va = pack_vid(0, 0, 2, 0)
    vb = pack_vid(0, 9, 2, 0)
    sa = decode_block(g, blocks[(0, 0)], [va])
    sb = decode_block(g, blocks[(0, 1)], [vb])
    ca, cb = set(sa.correction), set(sb.correction)
    assert len(ca) == 1 and len(cb) == 1
    before = sa.grow_iterations
    st = fuse(sa, sb, ("t", 0, 1))
    assert st.correction == ca | cb
    assert st.grow_iterations == before


def test_spatial_pair_through_seam():
    lay = Layout(5, {0: (0, 0), 1: (0, 1)}, [Seam(0, 1, "ew")])
    g = DecodingGraph(lay, 5)
    merge_patches(g, lay.seams[0], (0, 5))
    blocks = blocks_by_id(g)
    u = pack_vid(0, 2, 2, 3)
    w = pack_vid(1, 2, 2, 0)
    s = pack_vid(g.seam_pid(lay.seams[0]), 2, 2, 0xFF)
    sa = decode_block(g, blocks[(0, 0)], [u])
    sb = decode_block(g, blocks[(1, 0)], [w])
    assert sa.defects == {u} and sb.defects == {w}
    st = fuse(sa, sb, ("s", 0, 0))
    assert st.correction == {(u, s), (w, s)}
    assert st.defects == set()


def test_plan_decode_valid_on_grid():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
                 [Seam(0, 1, "ew"), Seam(2, 3, "ew"),
                  Seam(0, 2, "ns"), Seam(1, 3, "ns")])
    g = DecodingGraph(lay, 6)
    for s in lay.seams:
        merge_patches(g, s, (0, 6))
    plan = FusionPlan(g)
    assert len(plan.blocks) == 8
    ekeys = list(g.edges())
    rng = random.Random(31)
    for _ in range(25):
        flipped = {k for k in ekeys if rng.random() < 0.03}
        defects = toggled_defects(flipped)
        corr = plan.decode(sorted(defects))
        assert toggled_defects(corr) == defects


def test_plan_matches_global_weight_often():
    g = build_patch_graph(3, 6)
    plan = FusionPlan(g)
    ekeys = list(g.edges())
    rng = random.Random(5150)
    same = total = 0
    for _ in range(60):
        flipped = {k for k in ekeys if rng.random() < 0.02}
        defects = toggled_defects(flipped)
        if not defects:
            continue
        corr = plan.decode(sorted(defects))
        glob = decode_region(g, sorted(defects)).correction
        assert toggled_defects(corr) == defects
        total += 1
        same += len(corr) == len(glob)
    assert total > 20
    assert same / total > 0.8


def test_fuse_order_does_not_break_validity():
    g = build_patch_graph(3, 9)
    blocks = blocks_by_id(g)
    ekeys = list(g.edges())
    rng = random.Random(88)
    flipped = {k for k in ekeys if rng.random() < 0.04}
    defects = toggled_defects(flipped)
    by_block = {}
    for v in sorted(defects):
        by_block.setdefault(g.block_of(v), []).append(v)
    for order in [[1, 2], [2, 1]]:
        states = {bid: decode_block(g, blk, by_block.get(bid, ()))
                  for bid, blk in blocks.items()}
        if order == [1, 2]:
            st = fuse(states[(0, 0)], states[(0, 1)], ("t", 0, 1))
            st = fuse(st, states[(0, 2)], ("t", 0, 2))
        else:
            st = fuse(states[(0, 1)], states[(0, 2)], ("t", 0, 2))
            st = fuse(states[(0, 0)], st, ("t", 0, 1))
        assert toggled_defects(st.correction) == defects
        assert st.defects == set()


def test_intra_state_fuse_closes_loop():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
                 [Seam(0, 1, "ew"), Seam(2, 3, "ew"),
                  Seam(0, 2, "ns"), Seam(1, 3, "ns")])
    g = DecodingGraph(lay, 3)
    for s in lay.seams:
        merge_patches(g, s, (0, 3))
    blocks = blocks_by_id(g)
    by = {bid: [] for bid in blocks}
    u = pack_vid(2, 1, 1, 1)
    w = pack_vid(3, 1, 1, 0)
    by[(2, 0)] = [u]
    by[(3, 0)] = [w]
    states = {bid: decode_block(g, blk, by[bid]) for bid, blk in blocks.items()}
    # sorted seam order: (0,1,ew)=0, (0,2,ns)=1, (1,3,ns)=2, (2,3,ew)=3
    st = fuse(states[(0, 0)], states[(1, 0)], ("s", 0, 0))
    st = fuse(st, states[(2, 0)], ("s", 1, 0))
    st = fuse(st, states[(3, 0)], ("s", 2, 0))
    st = fuse(st, st, ("s", 3, 0))
    assert toggled_defects(st.correction) == {u, w}
    assert st.defects == set()


def live_is_exact(st):
    return st.live == {r for r in st.parity if st._alive(r)}


def test_fuse_and_absorb_keep_live_exact():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)},
                 [Seam(0, 1, "ew"), Seam(2, 3, "ew"),
                  Seam(0, 2, "ns"), Seam(1, 3, "ns")])
    g = DecodingGraph(lay, 9)
    for s in lay.seams:
        merge_patches(g, s, (0, 9))
    plan = FusionPlan(g)
    ekeys = list(g.edges())
    rng = random.Random(2718)
    for _ in range(15):
        defects = toggled_defects({k for k in ekeys if rng.random() < 0.04})
        by_block = {}
        for v in sorted(defects):
            by_block.setdefault(g.block_of(v), []).append(v)
        states = {bid: decode_block(g, blk, by_block.get(bid, ()))
                  for bid, blk in plan.blocks.items()}
        # absorb every open face of one block, one at a time
        st = states[(1, 1)]
        for f in plan.blocks[(1, 1)].faces:
            st.absorb_face(f)
            assert live_is_exact(st)
        assert st.defects == set()
        # fuse the rest along the plan's order
        states.pop((1, 1))
        rep = {bid: bid for bid in states}
        for face, (ba, bb) in plan.fuse_order:
            if (1, 1) in (ba, bb):
                continue
            ra, rb = rep[ba], rep[bb]
            merged = fuse(states[ra], states[rb], face)
            assert live_is_exact(merged)
            if ra != rb:
                rep = {k: ra if r == rb else r for k, r in rep.items()}
                states[ra] = merged
                del states[rb]


def grown_edges_outside(graph, st, blocks):
    """Grown edges that leave the given blocks other than over an open face."""
    open_faces = {f for f, status in st.face_status.items() if status == "open"}
    out = []
    for ekey, grown in st.growth.items():
        if not grown:
            continue
        if all(graph.block_of(x) in blocks for x in ekey if x >= 0):
            continue
        if graph.face_of(ekey) not in open_faces:
            out.append(ekey)
    return out


def test_faces_bound_block_growth():
    # a decode holds no vertex set: its faces alone must keep growth inside
    # the block, with or without walls, and inside two blocks after a fuse
    on_faces = 0
    for d, seed in ((3, 1), (3, 2), (5, 3), (5, 4)):
        lay = Layout(d, {i: (i // 2, i % 2) for i in range(4)})
        g = apply_merge_schedule(DecodingGraph(lay, 3 * d),
                                 random_merge_schedule(lay, 3, 0.6, seed))
        plan = FusionPlan(g)
        defects = EdgeTable(g).sample(0.05, derived_rng(seed)).defects
        by_block = {}
        for v in sorted(defects):
            by_block.setdefault(g.block_of(v), []).append(v)
        rng = random.Random(seed)
        for walled in (False, True):
            states = {}
            for bid, blk in plan.blocks.items():
                walls = tuple(f for f in blk.faces if walled and rng.random() < 0.5)
                st = decode_block(g, blk, by_block.get(bid, ()), walls)
                assert grown_edges_outside(g, st, {bid}) == []
                on_faces += sum(1 for k, grown in st.growth.items()
                                if grown and g.face_of(k) is not None)
                states[bid] = st
            face, (ba, bb) = next(
                (f, pair) for f, pair in plan.fuse_order
                if all(states[b].face_status[f] == "open" for b in pair))
            st = fuse(states[ba], states[bb], face)
            assert grown_edges_outside(g, st, {ba, bb}) == []
    assert on_faces > 0


def test_fuse_errors():
    g = build_patch_graph(3, 6)
    blocks = blocks_by_id(g)
    sa = decode_block(g, blocks[(0, 0)], [])
    sb = decode_block(g, blocks[(0, 1)], [])
    with pytest.raises(ValueError):
        fuse(sa, sb, ("t", 0, 9))
    g2 = build_patch_graph(3, 6)
    s2 = decode_block(g2, blocks_by_id(g2)[(0, 1)], [])
    with pytest.raises(ValueError):
        fuse(sa, s2, ("t", 0, 1))
