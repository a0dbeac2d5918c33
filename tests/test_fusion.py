"""Fusion tests: merging block decodes must resolve straddling clusters
without disturbing already settled ones."""

import random

import pytest

from surgedec import uf, windows
from surgedec.graph import (DecodingGraph, Layout, carve_blocks, merge_patches,
                            pack_vid)
from surgedec.fusion import FusionPlan, fuse
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import decode_region, face_statuses

from .helpers import decode_blocks, map_view, toggled_defects


def blocks_by_id(graph):
    return {b.block_id: b for b in carve_blocks(graph)}


def test_temporal_pair_resolved_by_fusion():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    blocks = blocks_by_id(g)
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    st = decode_blocks(g, [(blocks[(0, 0)], [v]), (blocks[(0, 1)], [w])])
    # each side suspended on the shared face, and only fusing resolves them
    assert st.defects == {v, w} and st.correction == set()
    fuse(st, ("t", 0, 1))
    assert st.correction == {(v, w)}
    assert st.defects == set()
    assert ("t", 0, 1) not in st.face_status


def test_fusion_leaves_settled_clusters_alone():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    blocks = blocks_by_id(g)
    va = pack_vid(0, 0, 2, 0)
    vb = pack_vid(0, 9, 2, 0)
    sa = decode_blocks(g, [(blocks[(0, 0)], [va])])
    sb = decode_blocks(g, [(blocks[(0, 1)], [vb])])
    ca, cb = set(sa.correction), set(sb.correction)
    assert len(ca) == 1 and len(cb) == 1
    st = decode_blocks(g, [(blocks[(0, 0)], [va]), (blocks[(0, 1)], [vb])])
    assert st.correction == ca | cb
    before = st.grow_iterations
    fuse(st, ("t", 0, 1))
    assert st.correction == ca | cb
    assert st.grow_iterations == before


def test_spatial_pair_through_seam():
    lay = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = DecodingGraph(lay, 5)
    merge_patches(g, lay.seams[0], (0, 5))
    blocks = blocks_by_id(g)
    u = pack_vid(0, 2, 2, 3)
    w = pack_vid(1, 2, 2, 0)
    s = pack_vid(g.seam_pid(lay.seams[0]), 2, 2, 0xFF)
    st = decode_blocks(g, [(blocks[(0, 0)], [u]), (blocks[(1, 0)], [w])])
    assert st.defects == {u, w}
    fuse(st, ("s", 0, 0))
    assert st.correction == {(u, s), (w, s)}
    assert st.defects == set()


def test_plan_decode_valid_on_grid():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, 6)
    for s in lay.seams:
        merge_patches(g, s, (0, 6))
    plan = FusionPlan(g)
    assert len(plan.windows) == 8
    ekeys = list(g.edges())
    rng = random.Random(31)
    for _ in range(25):
        flipped = {k for k in ekeys if rng.random() < 0.03}
        defects = toggled_defects(flipped)
        corr = plan.decode(sorted(defects))
        assert toggled_defects(corr) == defects


def test_plan_matches_global_weight_often():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 6)
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
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 9)
    blocks = blocks_by_id(g)
    ekeys = list(g.edges())
    rng = random.Random(88)
    flipped = {k for k in ekeys if rng.random() < 0.04}
    defects = toggled_defects(flipped)
    by_block = {}
    for v in sorted(defects):
        by_block.setdefault(g.block_of(v), []).append(v)
    for order in [[1, 2], [2, 1]]:
        st = decode_blocks(g, [(blk, by_block.get(bid, ())) for bid, blk in blocks.items()])
        for e in order:
            fuse(st, ("t", 0, e))
        assert toggled_defects(st.correction) == defects
        assert st.defects == set()


def test_intra_state_fuse_closes_loop():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, 3)
    for s in lay.seams:
        merge_patches(g, s, (0, 3))
    blocks = blocks_by_id(g)
    by = {bid: [] for bid in blocks}
    u = pack_vid(2, 1, 1, 1)
    w = pack_vid(3, 1, 1, 0)
    by[(2, 0)] = [u]
    by[(3, 0)] = [w]
    st = decode_blocks(g, [(blk, by[bid]) for bid, blk in blocks.items()])
    # sorted seam order: (0,1,ew)=0, (0,2,ns)=1, (1,3,ns)=2, (2,3,ew)=3; the
    # last seam closes the loop around the four blocks
    for si in range(4):
        fuse(st, ("s", si, 0))
    assert toggled_defects(st.correction) == {u, w}
    assert st.defects == set()


def check_maps(st):
    """live holds exactly the alive roots, bnd only real-boundary contacts,
    and contacts only non-empty maps of open faces."""
    assert st.live == {r for r in map_view(st)[1] if st._alive(r)}
    assert all(st.graph.edge_ends(eid)[1] < 0 for _, eid in st.bnd.values())
    assert all(cm for cm in st.contacts.values())
    assert all(st.face_status.get(f) == "open" for cm in st.contacts.values() for f in cm)


def test_fuse_and_absorb_keep_live_exact():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, 9)
    for s in lay.seams:
        merge_patches(g, s, (0, 9))
    plan = FusionPlan(g)
    blocks = blocks_by_id(g)
    ekeys = list(g.edges())
    rng = random.Random(2718)
    for _ in range(15):
        defects = toggled_defects({k for k in ekeys if rng.random() < 0.04})
        by_block = {}
        for v in sorted(defects):
            by_block.setdefault(g.block_of(v), []).append(v)
        # absorb every open face of one block decoded alone, one at a time
        lone = blocks[(1, 1)]
        st = decode_blocks(g, [(lone, by_block.get((1, 1), ()))])
        for f in lone.faces:
            st.absorb_face(f)
            check_maps(st)
        assert st.defects == set()
        # decode the rest in one state and fuse them along the plan's order
        st = decode_blocks(g, [(blk, by_block.get(bid, ()))
                               for bid, blk in blocks.items() if bid != (1, 1)])
        check_maps(st)
        for face in plan.fuse_order:
            if face not in lone.faces:
                fuse(st, face)
                check_maps(st)


def grown_edges_outside(graph, st, blocks):
    """Grown edges that leave the given blocks other than over an open face."""
    open_faces = {f for f, status in st.face_status.items() if status == "open"}
    out = []
    for eid, grown in map_view(st)[3].items():
        if not grown:
            continue
        ekey, = graph.edge_keys([eid])
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
            parts = {}
            for bid, blk in blocks_by_id(g).items():
                walls = tuple(f for f in blk.faces if walled and rng.random() < 0.5)
                parts[bid] = (blk, by_block.get(bid, ()), face_statuses(blk, walls))
                st = decode_blocks(g, [parts[bid]])
                assert grown_edges_outside(g, st, {bid}) == []
                on_faces += sum(1 for eid, grown in map_view(st)[3].items()
                                if grown and g.face_of(*g.edge_keys([eid])) is not None)
            sides = {f: [b for b in parts if f in parts[b][0].faces]
                     for f in plan.fuse_order}
            face, (ba, bb) = next((f, pair) for f, pair in sides.items()
                                  if all(parts[b][2][f] == "open" for b in pair))
            st = decode_blocks(g, [parts[ba], parts[bb]])
            fuse(st, face)
            assert grown_edges_outside(g, st, {ba, bb}) == []
    assert on_faces > 0


def test_fuse_errors():
    # only an open face of the state can be fused: not a face it never
    # held, not one already fused, and not a wall
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 9)
    blocks = blocks_by_id(g)
    st = decode_blocks(g, [(blocks[(0, 0)], []), (blocks[(0, 1)], [])])
    with pytest.raises(ValueError, match="not open"):
        fuse(st, ("t", 0, 9))
    fuse(st, ("t", 0, 1))
    with pytest.raises(ValueError, match="not open"):
        fuse(st, ("t", 0, 1))
    walled = decode_blocks(g, [(blocks[(0, 2)], [],
                                face_statuses(blocks[(0, 2)], blocks[(0, 2)].faces))])
    with pytest.raises(ValueError, match="not open"):
        fuse(walled, ("t", 0, 2))


def test_a_plan_allocates_its_tables_once(monkeypatch):
    # a plan builds its decoder tables at its first decode and clears them
    # for every later one, as a pipeline does; a decode that raises (here a
    # defect given twice) leaves the next decode as a fresh plan's
    lay = Layout(3, {0: (0, 0), 1: (0, 1)})
    g = apply_merge_schedule(DecodingGraph(lay, 9), random_merge_schedule(lay, 3, 1.0, 7))
    table = EdgeTable(g)
    samples = [sorted(table.sample(0.05, derived_rng(7, t)).defects) for t in range(3)]
    want = [FusionPlan(g).decode(s) for s in samples]
    built = []
    monkeypatch.setattr(windows, "UfTables",
                        lambda graph: built.append(uf.UfTables(graph)) or built[-1])
    plan = FusionPlan(g)
    assert [plan.decode(s) for s in samples[:2]] == want[:2]
    assert len(built) == 1
    (state,) = plan._states.values()
    assert state.parent is built[0].parent and state.growth is built[0].growth
    with pytest.raises(ValueError, match="given twice"):
        plan.decode(samples[2] + samples[2][:1])
    assert plan.decode(samples[2]) == want[2]
    assert len(built) == 1
    fresh = FusionPlan(g)
    fresh.decode(samples[2])
    assert [map_view(st) for st in plan._states.values()] == \
        [map_view(st) for st in fresh._states.values()]
