"""Union-find decoder tests.

Defect sets are recounted from raw edge sets by an independent helper, and
weights are bounded below by the exact matching oracle.
"""

import random

import pytest

from surgedec.graph import (EAST, WEST, DecodingGraph, Layout, build_patch_graph,
                            carve_blocks, face_edges, merge_patches, pack_vid)
from surgedec.oracle import oracle_mwpm
from surgedec.uf import UfState, cut_parities, decode_block, decode_region


def toggled_defects(edges):
    cnt = {}
    for a, b in edges:
        cnt[a] = cnt.get(a, 0) + 1
        if b >= 0:
            cnt[b] = cnt.get(b, 0) + 1
    return {v for v, c in cnt.items() if c % 2}


def test_adjacent_pair_gives_single_edge():
    g = build_patch_graph(3, 1)
    a = pack_vid(0, 0, 1, 0)
    b = pack_vid(0, 0, 1, 1)
    st = decode_region(g, [a, b])
    assert st.correction == {(a, b)}
    assert st.defects == set()


def test_boundary_defect_gives_boundary_edge():
    g = build_patch_graph(3, 1)
    v = pack_vid(0, 0, 1, 0)
    st = decode_region(g, [v])
    assert st.correction == {(v, WEST)}


def test_time_pair_gives_time_edge():
    g = build_patch_graph(3, 2)
    a = pack_vid(0, 0, 1, 0)
    b = pack_vid(0, 1, 1, 0)
    st = decode_region(g, [a, b])
    assert st.correction == {(a, b)}


def test_isolated_defect_growth_shape():
    g = build_patch_graph(5, 3)
    v = pack_vid(0, 1, 2, 1)
    st = UfState(g, [v])
    st.grow_round()
    assert len(st.growth) == 6
    assert set(st.growth.values()) == {1}
    st.grow_round()
    root = st._find(v)
    assert st.size[root] == 7
    assert sorted(st.growth.values()).count(2) == 6
    assert st.live == {root}


def test_validity_on_random_errors():
    g = build_patch_graph(5, 5)
    ekeys = list(g.edges())
    rng = random.Random(4242)
    for _ in range(40):
        flipped = {k for k in ekeys if rng.random() < 0.04}
        defects = toggled_defects(flipped)
        st = decode_region(g, sorted(defects))
        assert toggled_defects(st.correction) == defects
        assert st.defects == set()
        assert not st.live


def test_weight_never_beats_oracle():
    g = build_patch_graph(3, 3)
    ekeys = list(g.edges())
    rng = random.Random(7)
    done = 0
    while done < 25:
        flipped = {k for k in ekeys if rng.random() < 0.05}
        defects = toggled_defects(flipped)
        if not defects or len(defects) > 8:
            continue
        st = decode_region(g, sorted(defects))
        w_opt, _ = oracle_mwpm(g, defects)
        assert len(st.correction) >= w_opt
        assert toggled_defects(st.correction) == defects
        done += 1


def test_block_decode_suspends_at_future_face():
    g = build_patch_graph(5, 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    st = decode_block(g, blk, [v])
    assert st.defects == {v}
    assert st.correction == set()
    # first touch of the face edge suspends the cluster immediately
    assert st.grow_iterations == 1
    assert st.growth[(v, w)] == 1
    root = st._find(v)
    assert st.art[root] == {("t", 0, 1)}
    assert st.contacts[root][("t", 0, 1)] == (v, (v, w))


def test_absorb_face_drains_suspended_cluster():
    g = build_patch_graph(5, 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    st = decode_block(g, blk, [v])
    crossings = st.absorb_face(("t", 0, 1))
    assert crossings == {(v, w)}
    assert st.correction == {(v, w)}
    assert st.defects == set()
    assert st.face_status[("t", 0, 1)] == "wall"
    with pytest.raises(ValueError):
        st.absorb_face(("t", 0, 1))


def test_wall_face_is_never_grown_or_suspended_on():
    lay = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = merge_patches(DecodingGraph(lay, 10), lay.seams[0], (0, 10))
    blocks = {b.block_id: b for b in carve_blocks(g)}
    cases = [
        # patch 1 next to its west seam face, patch 0 next to its future face
        (blocks[(1, 0)], pack_vid(1, 2, 2, 0), ("s", 0, 0)),
        (blocks[(0, 0)], pack_vid(0, 4, 2, 1), ("t", 0, 1)),
    ]
    for blk, v, wall in cases:
        st = decode_block(g, blk, [v], walls=(wall,))
        assert st.face_status[wall] == "wall"
        assert all(st.face_status[f] == "open" for f in blk.faces if f != wall)
        assert not any(st.growth.get(k, 0) for k in face_edges(g, wall))
        assert all(wall not in faces for faces in st.art.values())
        assert all(wall not in faces for faces in st.contacts.values())
        open_st = decode_block(g, blk, [v])
        assert any(open_st.growth.get(k, 0) for k in face_edges(g, wall))


def test_defect_outside_region_rejected():
    g = build_patch_graph(5, 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    with pytest.raises(ValueError):
        decode_block(g, blk, [pack_vid(0, 7, 0, 0)])


def test_repeat_decode_is_deterministic():
    g = build_patch_graph(5, 5)
    ekeys = list(g.edges())
    rng = random.Random(11)
    flipped = {k for k in ekeys if rng.random() < 0.05}
    defects = sorted(toggled_defects(flipped))
    c1 = decode_region(g, defects).correction
    c2 = decode_region(g, defects).correction
    assert c1 == c2


def test_cut_parities():
    g = build_patch_graph(3, 2)
    v = pack_vid(0, 0, 1, 0)
    u = pack_vid(0, 0, 1, 1)
    t = pack_vid(0, 1, 1, 1)
    assert cut_parities(g, {(v, WEST)}) == {0: 1}
    assert cut_parities(g, {(v, WEST), (u, EAST)}) == {0: 1}
    assert cut_parities(g, {(u, t), (v, u)}) == {}
