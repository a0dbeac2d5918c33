"""Decoding-graph construction, merges, and block carving."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgedec.graph import (
    _SEAM_COL,
    EAST,
    WEST,
    DecodingGraph,
    Layout,
    Seam,
    carve_blocks,
    face_edges,
    merge_patches,
    pack_vid,
    unpack_vid,
)
from surgedec.fusion import FusionPlan
from surgedec.noise import EdgeTable, apply_merge_schedule, derived_rng, random_merge_schedule
from surgedec.uf import decode_region, region_vids
from surgedec.windows import Pipeline

from .helpers import (
    ref_adjacency,
    ref_edge_id,
    ref_block_of,
    ref_edges,
    ref_region_vids,
    ref_vertices,
    triples,
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
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
    assert len(g.vertex_array()) == 100
    for r in range(5):
        c = kind_counts(g, rnd=r)
        assert c["space-h"] == 15
        assert c["boundary"] == 10
        assert c["space-v"] == 16
    assert kind_counts(g).get("time", 0) == 80


def test_patch_counts_d3_single_round():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    assert len(g.vertex_array()) == 6
    c = kind_counts(g)
    assert c == {"space-h": 3, "boundary": 6, "space-v": 4}


def test_patch_edges_match_reference():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 3)
    got = {desc(g, e) for e in g.edges()}
    assert got == ref_single_patch(5, 3)


@pytest.mark.parametrize("d,rounds", [(4, 5), (2, 5), (1, 5), (5, 0), (5, -1)])
def test_graph_param_errors(d, rounds):
    with pytest.raises(ValueError):
        DecodingGraph(Layout(d, {0: (0, 0)}), rounds)


def test_sizes_the_vertex_id_cannot_hold_are_rejected():
    # row and col take 8 bits each, col 0xFF marks seam vertices, and the
    # round field takes 24 bits; neither check builds anything
    assert Layout(255, {0: (0, 0)}).d == 255
    for d in (257, 1001):
        with pytest.raises(ValueError, match="at most 255"):
            Layout(d, {0: (0, 0)})
    lay = Layout(3, {0: (0, 0)})
    assert DecodingGraph(lay, 1 << 24).rounds == 1 << 24
    # round 2**24 + 2 would unpack as round 2
    assert unpack_vid(pack_vid(0, (1 << 24) + 2, 0, 0))[1] == 2
    with pytest.raises(ValueError, match=r"2\*\*24"):
        DecodingGraph(lay, (1 << 24) + 3)


def test_negative_grid_positions_are_rejected():
    # placement sizes the grid from the largest row and column, so a
    # negative one would index the far side of the leaf grid
    for pos in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            Layout(3, {0: pos, 1: (0, 1), 2: (1, 0)})


def two_patch_graph(d, rounds):
    lay = Layout(d, {0: (0, 0), 1: (0, 1)})
    return lay, DecodingGraph(lay, rounds)


def test_merge_counts_and_reference():
    lay, g = two_patch_graph(5, 5)
    seam = lay.seams[0]
    before = len(g.vertex_array())
    merge_patches(g, seam, (0, 5))
    assert len(g.vertex_array()) - before == 25
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


def test_merge_and_split_reject_rounds_outside_the_graph():
    lay, g = two_patch_graph(3, 9)
    seam = lay.seams[0]
    g.merge(seam, 3, 6)
    with pytest.raises(ValueError, match=r"\[7, 3\)"):
        g.merge(seam, 7, 3)
    assert g.merge_intervals(seam) == [(3, 6)]
    g.merge(seam, 7, 7)
    assert g.merge_intervals(seam) == [(3, 6)]


def test_merge_errors():
    lay, g = two_patch_graph(5, 10)
    merge_patches(g, lay.seams[0], (0, 5))
    with pytest.raises(ValueError):
        merge_patches(g, lay.seams[0], (4, 6))
    with pytest.raises(ValueError):
        merge_patches(g, lay.seams[0], (5, 11))
    with pytest.raises(ValueError, match="not in layout"):
        g.merge(Seam(0, 1, "ns"), 5, 10)


def test_remerge_after_split_counts():
    lay, g = two_patch_graph(5, 15)
    seam = lay.seams[0]
    merge_patches(g, seam, (0, 3))
    merge_patches(g, seam, (10, 15))
    seam_vertices = [v for v in g.vertex_array().tolist() if unpack_vid(v)[0] >= 2]
    assert len(seam_vertices) == (3 + 5) * 5
    # the full enumerators match the reference
    vs = g.vertex_array().tolist()
    es = list(g.edges())
    assert vs == sorted(vs) == list(ref_vertices(g))
    assert len(set(es)) == len(es)
    assert set(es) == {k for v in vs for k in g.neighbors(v)[0::3]}


def test_ns_merge_counts():
    lay = Layout(5, {0: (0, 0), 1: (1, 0)})
    g = DecodingGraph(lay, 5)
    seam = lay.seams[0]
    assert seam.orient == "ns"
    merge_patches(g, seam, (0, 5))
    seam_vertices = [v for v in g.vertex_array().tolist() if unpack_vid(v)[0] >= 2]
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
        for v in g.vertex_array().tolist():
            nbrs = triples(g.neighbors(v))
            assert len(nbrs) <= 6
            if unpack_vid(v)[0] >= lay.n_patches:
                assert len(nbrs) <= 4
            # edge keys must agree from both endpoints
            for ekey, other, _ in nbrs:
                if other >= 0:
                    assert ekey in g.neighbors(other)[0::3]


def test_deterministic_enumeration():
    rng1, rng2 = random.Random(5), random.Random(5)
    _, g1 = random_layout_and_schedule(rng1, 3)
    _, g2 = random_layout_and_schedule(rng2, 3)
    assert g1.vertex_array().tolist() == g2.vertex_array().tolist()
    assert list(g1.edges()) == list(g2.edges())


def test_carve_single_patch_two_epochs():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
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
    # a block's id is built once and kept
    assert all(b.block_id is b.block_id for b in blocks)
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
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 4)
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
    for v in g.vertex_array().tolist():
        p, e = g.block_of(v)
        assert (p, e) in blocks
        assert e == unpack_vid(v)[1] // 3
        assert (p, e) == ref_block_of(g, v)


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


def all_faces(g):
    """Every seam face and every in-range temporal face id of a graph."""
    epochs = g.rounds // g.d
    seams = [("s", si, e) for si in range(len(g.layout.seams)) for e in range(epochs)]
    times = [("t", p, e) for p in range(g.layout.n_patches) for e in range(1, epochs)]
    return seams + times


def test_face_tables_follow_merge_and_split():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    ew, ns = Seam(0, 1, "ew"), Seam(0, 2, "ns")
    g = DecodingGraph(lay, 12)
    steps = [
        lambda: g.merge(ew, 0, 6),   # ('t', 0, 1) gains seam time edges
        lambda: g.merge(ew, 6, 9),   # coalesces; ('t', 0, 2) gains them too
        lambda: g.merge(ns, 4, 8),   # not epoch aligned: partial seam faces
        lambda: g.merge(ns, 9, 11),  # a second interval after a one-round gap
    ]
    for step in [lambda: None, *steps]:
        # read every face first, so a table left stale by the step shows
        for f in all_faces(g):
            face_edges(g, f)
        step()
        fresh = DecodingGraph(lay, 12)
        for s in lay.seams:
            for a, b in g.merge_intervals(s):
                fresh.merge(s, a, b)
        for f in all_faces(g):
            edges = face_edges(g, f)
            assert edges == face_edges(fresh, f)
            assert type(edges) is tuple and face_edges(g, f) is edges
    # ew merged over rounds 2-3 and 5-6, ns over rounds 5-6 but not 8-9
    assert len(face_edges(g, ("t", 0, 1))) == 6 + 3
    assert len(face_edges(g, ("t", 0, 2))) == 6 + 3 + 2
    assert len(face_edges(g, ("t", 0, 3))) == 6
    # a temporal face outside the graph raises on every call
    for f in [("t", 0, 0), ("t", 0, 4)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                face_edges(g, f)


def test_face_edges_are_sorted_keys():
    # column-major: patch 0's south neighbour has a lower id than its east
    # one, so its ns seam precedes its ew seam in seam (and key) order
    lay = Layout(3, {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)})
    g = DecodingGraph(lay, 9)
    for s in (Seam(0, 2, "ew"), Seam(0, 1, "ns")):
        g.merge(s, 0, 6)
    edges = face_edges(g, ("t", 0, 1))
    assert len(edges) == 6 + 3 + 2
    assert list(edges) == sorted(edges)
    for f in all_faces(g):
        assert list(face_edges(g, f)) == sorted(face_edges(g, f))


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


# --- the slab-filled adjacency cache against the per-vertex reference ---


def test_neighbors_rejects_vertices_outside_the_graph():
    lay, g = two_patch_graph(3, 3)
    merge_patches(g, lay.seams[0], (1, 2))
    spid = g.seam_pid(lay.seams[0])
    bad = [
        pack_vid(0, 3, 0, 0),                 # round at rounds
        pack_vid(0, 7, 0, 0),
        pack_vid(0, 0, 3, 0),                 # row past the lattice
        pack_vid(1, 0, 0, 2),                 # col past the lattice
        pack_vid(0, 0, 0, _SEAM_COL),         # patch vertex on the seam col
        pack_vid(spid + 1, 1, 0, _SEAM_COL),  # patch id past patches + seams
        pack_vid(spid, 1, 3, _SEAM_COL),      # seam row past its length
        pack_vid(spid, 1, 0, 0),              # seam vertex off the seam col
        pack_vid(spid, 0, 0, _SEAM_COL),      # seam round not merged
        WEST,
    ]
    for vid in bad:
        with pytest.raises(ValueError):
            g.neighbors(vid)
        with pytest.raises(ValueError):
            g.ranks([vid])
        # a rejected id fills no slab
        assert not any(g._adj or ())
    with pytest.raises(ValueError):
        decode_region(g, [pack_vid(0, 7, 0, 0)])
    assert g.neighbors(pack_vid(spid, 1, 2, _SEAM_COL))


def test_decoder_set_up_fills_the_cache_in_vertex_order():
    lay = Layout(3, {r * 3 + c: (r, c) for r in range(3) for c in range(3)})

    def merged():
        return apply_merge_schedule(DecodingGraph(lay, 9),
                                    random_merge_schedule(lay, 3, 0.6, seed=2))

    assert {s.orient for s in lay.seams if merged().merge_intervals(s)} == {"ew", "ns"}
    # the sampler's arrays come from templates and leave the cache alone
    g = merged()
    EdgeTable(g)
    assert g._adj is None
    # the decoders' set-up fills it whole; the cache is indexed by rank, so
    # it is in vertex order by construction
    for decoder in (Pipeline, FusionPlan):
        g = merged()
        decoder(g)
        assert len(g._adj) == len(g.vertex_array())
        assert all(isinstance(entry, tuple) for entry in g._adj)


def _fresh_copy(g):
    fresh = DecodingGraph(g.layout, g.rounds)
    for s in g.layout.seams:
        for a, b in g.merge_intervals(s):
            fresh.merge(s, a, b)
    return fresh


def _assert_rows_match_reference(g):
    """The sampler's rows on a fresh copy of g are the slots of the
    reference edges' ends, row by row, and leave the copy's cache unfilled."""
    fresh = _fresh_copy(g)
    slot = {v: r for r, v in enumerate(ref_vertices(g))}
    slot[WEST], slot[EAST] = len(slot), len(slot) + 1
    assert EdgeTable(fresh)._ends.tolist() == [[slot[u], slot[w]] for u, w in ref_edges(g)]
    assert fresh._adj is None


@pytest.mark.parametrize("d, rounds", [(3, 1), (5, 1), (3, 7), (5, 12)])
def test_edge_rows_match_reference_on_short_and_ragged_graphs(d, rounds):
    # one round (no time edges at all) and rounds that end mid-epoch, each
    # with both seam orientations merged over unaligned, back-to-back and
    # final-round intervals
    lay = Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, rounds)
    ew, ns = Seam(0, 1, "ew"), Seam(0, 2, "ns")
    g.merge(ew, 0, 1)
    g.merge(ns, rounds - 1, rounds)
    if rounds > 1:
        g.merge(ew, 1, 2)
        g.merge(Seam(2, 3, "ew"), 1, rounds)
        g.merge(Seam(1, 3, "ns"), rounds // 2, rounds - 1)
    assert list(g.edges()) == ref_edges(g)
    _assert_rows_match_reference(g)


def _draw_step(data, g):
    """(seam, start, stop) of a valid merge of a drawn seam, or None."""
    d, rounds = g.d, g.rounds
    # "ns" first: derandomized draws lean to the first choice, and ns seams
    # are the rarer orientation
    orient = data.draw(st.sampled_from(sorted({s.orient for s in g.layout.seams},
                                              reverse=True)))
    s = data.draw(st.sampled_from([s for s in g.layout.seams if s.orient == orient]))
    kind = data.draw(st.sampled_from(("aligned", "unaligned", "adjacent")))
    ivs = g.merge_intervals(s)
    free = [r for r in range(rounds) if not g.is_merged(s, r)]
    if kind == "aligned":
        options = [(s, e * d, (e + 1) * d) for e in range(rounds // d)
                   if all(r in free for r in range(e * d, (e + 1) * d))]
    elif kind == "adjacent":
        # one round back to back with a merged interval, so the two coalesce
        options = [(s, b, b + 1) for _, b in ivs if b in free]
        options += [(s, a - 1, a) for a, _ in ivs if a - 1 in free]
    else:
        options = []
        if free:
            start = data.draw(st.sampled_from(free))
            stop = start + 1
            while stop in free and data.draw(st.booleans()):
                stop += 1
            options = [(s, start, stop)]
    return data.draw(st.sampled_from(options)) if options else None


@settings(max_examples=30, derandomize=True, deadline=None)
@given(shape=st.sampled_from(((1, 2), (1, 3), (2, 2), (2, 3))),
       d=st.sampled_from((3, 5)), epochs=st.integers(1, 3), data=st.data())
def test_warm_cache_matches_reference_after_merges_and_splits(shape, d, epochs, data):
    rows, cols = shape
    lay = Layout(d, {r * cols + c: (r, c) for r in range(rows) for c in range(cols)})
    g = DecodingGraph(lay, epochs * d)
    for _ in range(data.draw(st.integers(1, 6))):
        for v in g.vertex_array().tolist():
            g.neighbors(v)
        step = _draw_step(data, g)
        if step is None:
            continue
        g.merge(*step)
        fresh = _fresh_copy(g)
        vids = g.vertex_array().tolist()
        ranks = {v: r for r, v in enumerate(vids)}
        tagged = {}
        for r, v in enumerate(vids):
            want = ref_adjacency(g, v)
            assert g.neighbors(v) == want
            assert fresh.neighbors(v) == want
            # the cached entry holds each edge's id and its other rank
            ids = [(ref_edge_id(g, k, ranks), ranks[o] if o >= 0 else o, f)
                   for k, o, f in triples(want)]
            assert triples(g.adjacency(r)) == ids
            assert g.edge_keys(e for e, _, _ in ids) == [k for k, _, _ in triples(want)]
            for k, _, f in triples(want):
                tagged.setdefault(f, set()).add(k)
        assert list(g.edges()) == ref_edges(g)
        _assert_rows_match_reference(g)
        # a face's table is the sorted keys the reference tags with it, and
        # the reference tags no face outside the graph's in-range faces
        assert tagged.keys() - {None} <= set(all_faces(g))
        for f in all_faces(g):
            want = tuple(sorted(tagged.get(f, ())))
            assert face_edges(g, f) == want
            assert face_edges(fresh, f) == want


@pytest.mark.parametrize("d", (3, 5))
def test_face_tables_match_reference_on_gapped_intervals(d):
    # every seam, in both orientations, merged twice inside epochs 0 and 2
    # with a gap between, and back to back across epochs 0 and 1, so one
    # seam face spans two intervals and one interval spans two seam faces
    lay = Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, 3 * d)
    for s in lay.seams:
        for a, b in ((0, 1), (2, d + 1), (d + 1, d + 2), (2 * d, 2 * d + 1), (3 * d - 1, 3 * d)):
            g.merge(s, a, b)
    tagged = {}
    for v in g.vertex_array().tolist():
        for k, _, f in triples(ref_adjacency(g, v)):
            tagged.setdefault(f, set()).add(k)
    assert tagged.keys() - {None} == set(all_faces(g))
    for f in all_faces(g):
        assert face_edges(g, f) == tuple(sorted(tagged[f]))


def test_a_graph_never_walked_decodes_as_a_walked_copy():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})

    def merged():
        g = DecodingGraph(lay, 9)
        g.merge(Seam(0, 1, "ew"), 0, 6)
        g.merge(Seam(2, 3, "ew"), 0, 3)
        g.merge(Seam(0, 2, "ns"), 6, 9)
        g.merge(Seam(1, 3, "ns"), 6, 9)
        return g

    walked = merged()
    table = EdgeTable(walked)
    samples = [table.sample(0.04, derived_rng(6, t)).defects for t in range(8)]
    assert all(samples)
    faces = all_faces(walked)
    decoders = {
        "pipeline": lambda g, ds: Pipeline(g).run(ds),
        "plan": lambda g, ds: FusionPlan(g).decode(ds),
        "global": lambda g, ds: decode_region(g, ds).correction,
        "faces": lambda g, ds: [face_edges(g, f) for f in faces],
    }
    for name, decode in decoders.items():
        fresh = merged()
        # listing the edges reads no cache, so the decoder meets a graph
        # whose cache its own set-up (or, for a bare decode_region or face
        # table, the first read) fills
        assert next(fresh.edges()) and fresh._adj is None
        for ds in samples:
            assert decode(fresh, ds) == decode(walked, ds), name
    # a merge drops the cache, and the next read rebuilds it whole
    walked.merge(Seam(2, 3, "ew"), 3, 6)
    assert walked._adj is None
    assert walked.adjacency(0)
    assert len(walked._adj) == len(walked.vertex_array()) and None not in walked._adj


@settings(max_examples=40, derandomize=True, deadline=None)
@given(shape=st.sampled_from(((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))),
       d=st.sampled_from((3, 5)), epochs=st.integers(1, 3), extra=st.integers(0, 2),
       data=st.data())
def test_vertex_array_and_regions_match_reference(shape, d, epochs, extra, data):
    rows, cols = shape
    lay = Layout(d, {r * cols + c: (r, c) for r in range(rows) for c in range(cols)})
    g = DecodingGraph(lay, epochs * d + extra)
    for _ in range(data.draw(st.integers(0, 6)) if lay.seams else 0):
        step = _draw_step(data, g)
        if step is not None:
            g.merge(*step)
    arr = g.vertex_array()
    assert arr.dtype == np.int64
    assert arr.tolist() == list(ref_vertices(g))
    assert region_vids(g) == ref_region_vids(g)
    assert list(region_vids(g)) == sorted(ref_region_vids(g))
    # ranks and blocks of some ids, out of order, in one numpy pass, against
    # the reference enumeration and block rule one vertex at a time
    rank = {v: r for r, v in enumerate(ref_vertices(g))}
    picked = list(rank)[::-7]
    want = {}
    for v in picked:
        want.setdefault(ref_block_of(g, v), []).append(rank[v])
    assert g.ranks(picked) == [rank[v] for v in picked]
    assert g.ranks_by_block(picked) == want
