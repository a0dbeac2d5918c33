"""Decoding-graph construction, merge/split, and block carving."""

import random

import pytest

from surgedec.graph import (
    EAST,
    WEST,
    DecodingGraph,
    Layout,
    Seam,
    build_patch_graph,
    carve_blocks,
    face_edges,
    merge_patches,
    unpack_vid,
)


def desc(graph, ekey):
    """Edge key -> comparable descriptor of unpacked endpoints."""
    u, v = ekey
    du = unpack_vid(u)
    dv = "W" if v == WEST else "E" if v == EAST else unpack_vid(v)
    return (du, dv)


def ref_single_patch(d, rounds, patch=0):
    """Independent naive enumeration of one patch's edges."""
    edges = set()
    for r in range(rounds):
        for row in range(d):
            for col in range(d - 2):
                edges.add(((patch, r, row, col), (patch, r, row, col + 1)))
            edges.add(((patch, r, row, 0), "W"))
            edges.add(((patch, r, row, d - 2), "E"))
        for row in range(d - 1):
            for col in range(d - 1):
                edges.add(((patch, r, row, col), (patch, r, row + 1, col)))
        if r + 1 < rounds:
            for row in range(d):
                for col in range(d - 1):
                    edges.add(((patch, r, row, col), (patch, r + 1, row, col)))
    return edges


def ref_two_patch_ew_merge(d, rounds, merged, seam_pid):
    """Naive edge set for patches 0,1 side by side, seam active on given rounds."""
    edges = ref_single_patch(d, rounds, 0) | ref_single_patch(d, rounds, 1)
    for r in merged:
        for row in range(d):
            edges.discard(((0, r, row, d - 2), "E"))
            edges.discard(((1, r, row, 0), "W"))
            edges.add(((0, r, row, d - 2), (seam_pid, r, row, 0xFF)))
            edges.add(((1, r, row, 0), (seam_pid, r, row, 0xFF)))
        if r + 1 in merged:
            for row in range(d):
                edges.add(((seam_pid, r, row, 0xFF), (seam_pid, r + 1, row, 0xFF)))
    return edges


def kind_counts(graph, rnd=None):
    counts = {}
    for ekey in graph.edges():
        u, v = ekey
        if rnd is not None:
            ru = unpack_vid(u)[1]
            rv = ru if v < 0 else unpack_vid(v)[1]
            if not (ru == rnd and rv == rnd):
                continue
        k = graph.kind_of(ekey)
        counts[k] = counts.get(k, 0) + 1
    return counts


def test_patch_counts_d5():
    g = build_patch_graph(5, 5)
    assert len(list(g.vertices())) == 100
    assert g.n_vertices() == 100
    for r in range(5):
        c = kind_counts(g, rnd=r)
        assert c["space-h"] == 15
        assert c["boundary"] == 10
        assert c["space-v"] == 16
    assert kind_counts(g).get("time", 0) == 80


def test_patch_counts_d3_single_round():
    g = build_patch_graph(3, 1)
    assert g.n_vertices() == 6
    c = kind_counts(g)
    assert c == {"space-h": 3, "boundary": 6, "space-v": 4}


def test_patch_edges_match_reference():
    g = build_patch_graph(5, 3)
    got = {desc(g, e) for e in g.edges()}
    assert got == ref_single_patch(5, 3)


@pytest.mark.parametrize("d,rounds", [(4, 5), (2, 5), (1, 5), (5, 0), (5, -1)])
def test_graph_param_errors(d, rounds):
    with pytest.raises(ValueError):
        build_patch_graph(d, rounds)


def two_patch_graph(d, rounds):
    lay = Layout(d, {0: (0, 0), 1: (0, 1)})
    return lay, DecodingGraph(lay, rounds)


def test_merge_counts_and_reference():
    lay, g = two_patch_graph(5, 5)
    seam = lay.seams[0]
    before = g.n_vertices()
    merge_patches(g, seam, (0, 5))
    assert g.n_vertices() - before == 25
    c = kind_counts(g)
    assert c["seam-space"] == 50
    assert c["seam-time"] == 20
    assert c["boundary"] == 100 - 50
    got = {desc(g, e) for e in g.edges()}
    assert got == ref_two_patch_ew_merge(5, 5, set(range(5)), g.seam_pid(seam))


def test_merge_empty_range_is_noop():
    lay, g = two_patch_graph(5, 5)
    before = sorted(g.edges())
    merge_patches(g, lay.seams[0], (3, 3))
    assert sorted(g.edges()) == before


def test_merge_errors():
    lay, g = two_patch_graph(5, 10)
    merge_patches(g, lay.seams[0], (0, 5))
    with pytest.raises(ValueError):
        merge_patches(g, lay.seams[0], (4, 6))
    with pytest.raises(ValueError):
        merge_patches(g, lay.seams[0], (5, 11))
    lay2 = Layout(5, {0: (0, 0), 1: (0, 1)}, seams=[])
    g2 = DecodingGraph(lay2, 5)
    with pytest.raises(ValueError):
        g2.merge(Seam(0, 1, "ew"), 0, 5)


def test_nonadjacent_seam_rejected():
    with pytest.raises(ValueError):
        Layout(3, {0: (0, 0), 1: (0, 2)}, seams=[Seam(0, 1, "ew")])
    with pytest.raises(ValueError):
        Layout(3, {0: (0, 0), 1: (0, 1)}, seams=[Seam(0, 0, "ew")])


def test_merge_split_round_trip():
    lay, g = two_patch_graph(5, 15)
    seam = lay.seams[0]
    vs = sorted(g.vertices())
    es = sorted(g.edges())
    merge_patches(g, seam, (5, 10))
    assert sorted(g.edges()) != es
    g.split(seam, 5)
    assert sorted(g.vertices()) == vs
    assert sorted(g.edges()) == es


def test_split_not_merged_error():
    lay, g = two_patch_graph(5, 10)
    with pytest.raises(ValueError):
        g.split(lay.seams[0], 5)


def test_remerge_after_split_counts():
    lay, g = two_patch_graph(5, 15)
    seam = lay.seams[0]
    merge_patches(g, seam, (0, 5))
    g.split(seam, 3)
    merge_patches(g, seam, (10, 15))
    seam_vertices = [v for v in g.vertices() if unpack_vid(v)[0] >= 2]
    assert len(seam_vertices) == (3 + 5) * 5
    # the full enumerators are the round-slice ones over every round
    vs = list(g.vertices())
    es = list(g.edges())
    assert vs == sorted(vs) == list(g.vertices_in_rounds(0, g.rounds))
    assert es == list(g.edges_in_rounds(0, g.rounds))
    assert len(set(es)) == len(es)
    assert set(es) == {k for v in vs for k, _, _ in g.neighbors(v)}


def test_ns_merge_counts():
    lay = Layout(5, {0: (0, 0), 1: (1, 0)})
    g = DecodingGraph(lay, 5)
    seam = lay.seams[0]
    assert seam.orient == "ns"
    merge_patches(g, seam, (0, 5))
    seam_vertices = [v for v in g.vertices() if unpack_vid(v)[0] >= 2]
    assert len(seam_vertices) == 4 * 5
    c = kind_counts(g)
    assert c["seam-space"] == 2 * 4 * 5
    assert c["seam-time"] == 4 * 4
    # NS merges add edges without touching west/east boundary edges
    assert c["boundary"] == 100


def random_layout_and_schedule(rng, d):
    rows, cols = rng.choice([(1, 3), (2, 2), (2, 3)])
    positions = {}
    pid = 0
    for r in range(rows):
        for c in range(cols):
            positions[pid] = (r, c)
            pid += 1
    lay = Layout(d, positions)
    epochs = rng.randrange(1, 4)
    g = DecodingGraph(lay, epochs * d)
    for s in lay.seams:
        for e in range(epochs):
            if rng.random() < 0.4 and not g.is_merged(s, e * d):
                g.merge(s, e * d, (e + 1) * d)
    return lay, g


def test_degree_bound_property():
    rng = random.Random(77)
    for _ in range(10):
        lay, g = random_layout_and_schedule(rng, 3)
        for v in g.vertices():
            nbrs = g.neighbors(v)
            assert len(nbrs) <= 6
            if unpack_vid(v)[0] >= lay.n_patches:
                assert len(nbrs) <= 4
            # edge keys must agree from both endpoints
            for ekey, other, _ in nbrs:
                if other >= 0:
                    assert ekey in [k for k, _, _ in g.neighbors(other)]


def test_deterministic_enumeration():
    rng1, rng2 = random.Random(5), random.Random(5)
    _, g1 = random_layout_and_schedule(rng1, 3)
    _, g2 = random_layout_and_schedule(rng2, 3)
    assert list(g1.vertices()) == list(g2.vertices())
    assert list(g1.edges()) == list(g2.edges())


def test_carve_single_patch_two_epochs():
    g = build_patch_graph(5, 10)
    blocks = carve_blocks(g)
    assert len(blocks) == 2
    b0, b1 = blocks
    assert b0.faces == (("t", 0, 1),)
    assert b1.faces == (("t", 0, 1),)


def test_carve_merge_middle_epoch():
    lay, g = two_patch_graph(5, 15)
    seam = lay.seams[0]
    merge_patches(g, seam, (5, 10))
    blocks = carve_blocks(g)
    assert len(blocks) == 6
    by_id = {b.block_id: b for b in blocks}
    assert by_id[(0, 1)].faces == (("s", 0, 1), ("t", 0, 1), ("t", 0, 2))
    assert by_id[(1, 1)].faces == (("s", 0, 1), ("t", 1, 1), ("t", 1, 2))
    for p in (0, 1):
        assert by_id[(p, 0)].faces == (("t", p, 1),)
        assert by_id[(p, 2)].faces == (("t", p, 2),)


def test_carve_many_patches():
    positions = {i: (i // 10, i % 10) for i in range(100)}
    lay = Layout(3, positions)
    g = DecodingGraph(lay, 3)
    blocks = carve_blocks(g)
    assert len(blocks) == 100
    assert all(b.faces == () for b in blocks)


def test_carve_errors():
    g = build_patch_graph(3, 4)
    with pytest.raises(ValueError):
        carve_blocks(g)
    lay, g2 = two_patch_graph(3, 6)
    g2.merge(lay.seams[0], 1, 4)
    with pytest.raises(ValueError):
        carve_blocks(g2)


def test_block_of_totality():
    lay, g = two_patch_graph(3, 6)
    merge_patches(g, lay.seams[0], (0, 6))
    blocks = {b.block_id for b in carve_blocks(g)}
    for v in g.vertices():
        p, e = g.block_of(v)
        assert (p, e) in blocks
        assert e == unpack_vid(v)[1] // 3


def test_face_edges_consistency():
    lay, g = two_patch_graph(5, 10)
    seam = lay.seams[0]
    merge_patches(g, seam, (0, 10))
    sface = ("s", 0, 0)
    tface = ("t", 0, 1)
    assert len(face_edges(g, sface)) == 25
    # temporal face: patch time edges + continuing seam time edges
    assert len(face_edges(g, tface)) == 20 + 5
    tagged_s = [e for e in g.edges() if g.face_of(e) == sface]
    assert sorted(tagged_s) == sorted(face_edges(g, sface))
    tagged_t = [e for e in g.edges() if g.face_of(e) == tface]
    assert sorted(tagged_t) == sorted(face_edges(g, tface))


def test_cut_patch_membership():
    lay, g = two_patch_graph(5, 5)
    seam = lay.seams[0]
    merge_patches(g, seam, (0, 5))
    cuts = {0: 0, 1: 0, None: 0}
    for e in g.edges():
        cuts[g.cut_patch(e)] += 1
    # patch 0 keeps d west boundary edges per round; patch 1's cut moved to seam
    assert cuts[0] == 25
    assert cuts[1] == 25
    for e in g.edges():
        cp = g.cut_patch(e)
        if cp == 1:
            assert g.kind_of(e) == "seam-space"
        if cp == 0:
            assert g.kind_of(e) == "boundary"
