"""Noise sampling, defect extraction, and random merge schedules."""

import gc
import tracemalloc

import numpy as np
import pytest

from surgedec.graph import (
    EAST,
    WEST,
    DecodingGraph,
    Layout,
    Seam,
    merge_patches,
    unpack_vid,
)
from surgedec.noise import (
    EdgeTable,
    apply_merge_schedule,
    derived_rng,
    random_merge_schedule,
    raw_merge_draws,
)

from .helpers import kind_of, neighbors, ref_edges, ref_vertices, toggled_defects


def test_p0_empty():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
    s = EdgeTable(g).sample(0.0, derived_rng(1))
    assert s.flipped_edges == set()
    assert s.defects == set()
    assert s.true_logical == {0: 0}


def test_p1_single_round_d3():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    s = EdgeTable(g).sample(1.0, derived_rng(1))
    all_edges = set(g.edges())
    assert len(all_edges) == 13
    assert s.flipped_edges == all_edges
    assert s.defects == toggled_defects(all_edges)
    # d west-boundary flips -> odd cut parity for odd d
    assert s.true_logical == {0: 1}


def test_defect_density_matches_analytic():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
    p = 0.03
    # exact expected defect count: odd-flip probability per vertex degree
    vids = g.vertex_array().tolist()
    expect = sum((1 - (1 - 2 * p) ** (len(neighbors(g, v)) // 3)) / 2 for v in vids)
    table = EdgeTable(g)
    rng = derived_rng(42)
    trials = 2000
    counts = [len(table.defects_of(table.sample_flips(p, rng))) for _ in range(trials)]
    mean = sum(counts) / trials
    var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
    sigma = (var / trials) ** 0.5
    assert abs(mean - expect) < 3 * sigma + 1e-9


def test_reproducible_given_seed():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 3)
    a = EdgeTable(g).sample(0.1, derived_rng(7))
    b = EdgeTable(g).sample(0.1, derived_rng(7))
    assert a.flipped_edges == b.flipped_edges
    assert a.defects == b.defects
    assert a.true_logical == b.true_logical


def test_sample_self_consistent_and_parity():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, 6)
    merge_patches(g, Seam(0, 1, "ew"), (0, 3))
    merge_patches(g, Seam(0, 2, "ns"), (3, 6))
    for seed in range(5):
        s = EdgeTable(g).sample(0.08, derived_rng(seed))
        assert toggled_defects(s.flipped_edges) == s.defects
        # components: 0-1 and 0-2 merged at some rounds -> {0,1,2} + {3}
        comp = {0: 0, 1: 0, 2: 0, 3: 1}
        defects = {0: 0, 1: 0}
        bflips = {0: 0, 1: 0}
        for v in s.defects:
            p_of = g.block_of(v)[0]
            defects[comp[p_of]] ^= 1
        for u, v in s.flipped_edges:
            if v < 0:
                bflips[comp[unpack_vid(u)[0]]] ^= 1
        assert defects == bflips


def test_noise_params_validation():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    table = EdgeTable(g)
    for p in (1.5, -0.2):
        with pytest.raises(ValueError):
            table.sample(p, derived_rng(1))
    assert table.sample(1.0, derived_rng(1)).flipped_edges == set(g.edges())


def grid_layout(rows, cols, d=3):
    return Layout(d, {r * cols + c: (r, c) for r in range(rows) for c in range(cols)})


def test_raw_draw_frequency():
    lay = grid_layout(2, 2)
    epochs = 10_000
    draws = raw_merge_draws(lay, epochs, 0.5, seed=3)
    for s in lay.seams:
        freq = sum(s in d for d in draws) / epochs
        assert 0.40 < freq < 0.60


def test_schedule_pairwise_and_conflict_resolution():
    lay = grid_layout(1, 3)
    raw = raw_merge_draws(lay, 500, 0.7, seed=9)
    sched = random_merge_schedule(lay, 500, 0.7, seed=9)
    s01, s12 = sorted(lay.seams)
    for drawn, active in zip(raw, sched):
        used = [p for s in active for p in (s.patch_a, s.patch_b)]
        assert len(used) == len(set(used))
        if drawn == {s01, s12}:
            assert active == frozenset({s01})


def test_schedule_prob_extremes():
    lay = grid_layout(2, 2)
    assert all(not s for s in random_merge_schedule(lay, 20, 0.0, seed=1))
    full = random_merge_schedule(lay, 5, 1.0, seed=1)
    greedy = frozenset({Seam(0, 1, "ew"), Seam(2, 3, "ew")})
    assert all(s == greedy for s in full)
    with pytest.raises(ValueError):
        random_merge_schedule(lay, 5, 1.2, seed=1)


def test_apply_schedule_merges_epochs():
    lay = grid_layout(1, 3)
    g = DecodingGraph(lay, 9)
    s01, s12 = sorted(lay.seams)
    apply_merge_schedule(g, [frozenset({s01}), frozenset(), frozenset({s01, s12})])
    assert g.merge_intervals(s01) == [(0, 3), (6, 9)]
    assert g.merge_intervals(s12) == [(6, 9)]


@pytest.mark.parametrize("d", [3, 5])
def test_edge_table_matches_per_edge_reference(d):
    # the per-edge loop the vectorised table replaced, over the reference
    # edge list rather than the graph's templates
    lay = grid_layout(3, 3, d)
    g = apply_merge_schedule(DecodingGraph(lay, 4 * d),
                             random_merge_schedule(lay, 4, 0.5, seed=d))
    ekeys = ref_edges(g)
    table = EdgeTable(g)
    index = {v: i for i, v in enumerate(ref_vertices(g))}
    n = len(index)
    ref_u, ref_v, ref_cut = [], [], []
    for ekey in ekeys:
        u, v = ekey
        ref_u.append(index[u])
        ref_v.append(index[v] if v >= 0 else n if v == WEST else n + 1)
        cp = g.cut_patch(ekey)
        ref_cut.append(-1 if cp is None else cp)
    assert list(g.edges()) == ekeys
    assert table._vid_arr.tolist() == [*sorted(index), WEST, EAST]
    assert table._u.tolist() == ref_u
    assert table._v.tolist() == ref_v
    assert table._cut.tolist() == ref_cut
    # both seam orientations were merged, and some seam edge cuts a patch
    kinds = {s.orient for s in lay.seams if g.merge_intervals(s)}
    assert kinds == {"ew", "ns"}
    assert any(c >= 0 and kind_of(g, ek) == "seam-space"
               for c, ek in zip(ref_cut, g.edges()))


def test_full_flip_sample_rebuilds_every_edge_key():
    # a 2x2 grid with both seam orientations merged has boundary edges to
    # WEST and to EAST, seam-space edges of both kinds and seam-time edges
    lay = grid_layout(2, 2)
    g = DecodingGraph(lay, 6)
    for s in lay.seams:
        merge_patches(g, s, (0, 3))
    table = EdgeTable(g)
    keys = set(g.edges())
    assert {v for _, v in keys if v < 0} == {WEST, EAST}
    assert {kind_of(g, k) for k in keys} >= {"seam-space", "seam-time"}
    assert table.sample(1.0, derived_rng(3)).flipped_edges == keys
    # the table keeps int32 arrays per edge and no list of edge keys
    assert not [x for x in vars(table).values() if isinstance(x, (list, tuple))]
    assert {table._u.dtype, table._v.dtype, table._cut.dtype} == {np.dtype(np.int32)}


def test_edge_table_memory_per_vertex():
    # one d=5 patch over 100 epochs: the adjacency cache, which a decoder's
    # set-up fills, and the per-edge arrays EdgeTable leaves behind, per
    # vertex.  The bound sits between a tuple of (key, other, face) tuples
    # per vertex (725-790 B measured) and one flat tuple per vertex
    # (360-520 B).  The cache alone, with the vertex array its fill
    # builds, holds about 320 B per vertex when a vertex's rank and its
    # past edge's id are the objects held at the vertex below; a fill that
    # makes fresh ones holds about 395 B.
    # Allocation tracing makes the fill about 15x slower, so the graph is
    # kept small enough to trace in under 1 s.
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5 * 100)
    # a full collection empties the interpreter's free lists, so the fill
    # cannot reuse tuples that earlier tests freed before tracing started
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g._cache()
        cache = tracemalloc.get_traced_memory()[0] - before
        table = EdgeTable(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(g.vertex_array())
    assert len(g._adj) == n == 10_000 and table.n_edges
    assert cache / n < 340
    assert held / n < 620


def test_edge_table_peak_memory_stays_near_its_arrays():
    # one d=5 patch over 400 epochs with its cache filled: building the
    # table allocates little beyond the arrays it keeps.  Streaming edge
    # pairs through Python lists peaked at 11.3x them; the templates' int32
    # rows and the cut pass peak at about 2.6x.
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5 * 400)
    g._cache()
    tracemalloc.start()
    try:
        table = EdgeTable(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = table._ends.nbytes + table._cut.nbytes + table._vid_arr.nbytes
    assert peak < 4 * kept
