"""Union-find decoder tests.

Defect sets are recounted from raw edge sets by an independent helper, and
weights are bounded below by the exact matching oracle.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgedec import uf, windows
from surgedec.graph import (EAST, WEST, DecodingGraph, Layout,
                            carve_blocks, face_edges, merge_patches, pack_vid)
from surgedec.fusion import FusionPlan, fuse
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.uf import (UfState, cut_parities, decode_region, face_statuses,
                         merge_statuses)
from surgedec.windows import Pipeline

from .helpers import (RefUfState, decode_blocks, edge_id, grown_union, map_view, rank_of,
                      toggled_defects)
from .oracle import oracle_mwpm
from .test_differential import held_view


def test_adjacent_pair_gives_single_edge():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    a = pack_vid(0, 0, 1, 0)
    b = pack_vid(0, 0, 1, 1)
    st = decode_region(g, [a, b])
    assert st.correction == {(a, b)}
    assert st.defects == set()


def test_boundary_defect_gives_boundary_edge():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    v = pack_vid(0, 0, 1, 0)
    st = decode_region(g, [v])
    assert st.correction == {(v, WEST)}


def test_time_pair_gives_time_edge():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 2)
    a = pack_vid(0, 0, 1, 0)
    b = pack_vid(0, 1, 1, 0)
    st = decode_region(g, [a, b])
    assert st.correction == {(a, b)}


def test_isolated_defect_growth_shape():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 3)
    v = pack_vid(0, 1, 2, 1)
    st = UfState(g, [v])
    st.grow_round()
    grown = map_view(st)[3]
    assert len(grown) == 6
    assert set(grown.values()) == {1}
    st.grow_round()
    root = st._find(rank_of(g, v))
    assert st.size[root] == 7
    assert sorted(map_view(st)[3].values()).count(2) == 6
    assert st.live == {root}


def test_validity_on_random_errors():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
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
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 3)
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
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    st = decode_blocks(g, [(blk, [v])])
    assert st.defects == {v}
    assert st.correction == set()
    # first touch of the face edge suspends the cluster immediately
    assert st.grow_iterations == 1
    r = rank_of(g, v)
    eid = r << 3 | 4  # v's future edge
    assert g.edge_keys([eid]) == [(v, w)]
    assert st.growth[eid] == 1
    root = st._find(r)
    assert set(st.contacts[root]) == {("t", 0, 1)}
    assert st.contacts[root][("t", 0, 1)] == (r, eid)


def test_absorb_face_drains_suspended_cluster():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    v = pack_vid(0, 4, 2, 1)
    w = pack_vid(0, 5, 2, 1)
    st = decode_blocks(g, [(blk, [v])])
    # a crossing is an edge id
    crossings = st.absorb_face(("t", 0, 1))
    assert crossings == {edge_id(g, (v, w))}
    assert st.correction == {(v, w)}
    assert st.defects == set()
    assert st.face_status[("t", 0, 1)] == "wall"
    with pytest.raises(ValueError):
        st.absorb_face(("t", 0, 1))


def test_absorb_face_requires_a_settled_state():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 0))
    v = pack_vid(0, 4, 2, 1)
    st = UfState(g, [v], {f: "open" for f in blk.faces})
    assert st.live
    with pytest.raises(ValueError, match="settled"):
        st.absorb_face(("t", 0, 1))
    assert st.face_status[("t", 0, 1)] == "open"


def test_absorb_face_never_grown_onto_only_seals_it():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 15)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 1))
    b = pack_vid(0, 7, 2, 0)   # reaches the west boundary and is peeled
    v = pack_vid(0, 9, 2, 2)   # suspends on the future face
    st = decode_blocks(g, [(blk, [b, v])])
    assert st.bnd and st.correction == {(b, WEST)}
    assert st.defects == {v}
    assert set(st.touched) == {("t", 0, 2)}
    before = (dict(st.bnd), {r: dict(cm) for r, cm in st.contacts.items()},
              set(st.defects), set(st.correction), map_view(st)[3])
    assert st.absorb_face(("t", 0, 1)) == set()
    assert st.face_status[("t", 0, 1)] == "wall"
    assert (st.bnd, st.contacts, st.defects, st.correction, map_view(st)[3]) == before
    # the face it did grow onto still drains through its contact
    assert st.absorb_face(("t", 0, 2)) == {edge_id(g, (v, pack_vid(0, 10, 2, 2)))}
    assert st.defects == set() and not st.touched


def test_fuse_of_an_empty_block_adds_only_face_statuses(monkeypatch):
    # an empty block is never added: the state starts with its face
    # statuses, and joining its face to a block that never grew onto it
    # changes nothing but the face's status
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 15)
    blocks = {b.block_id: b for b in carve_blocks(g)}
    b = pack_vid(0, 2, 2, 0)
    added = []
    add_block = UfState.add_block

    def recorded(st, ranks):
        added.append(ranks)
        return add_block(st, ranks)

    monkeypatch.setattr(UfState, "add_block", recorded)
    a = decode_blocks(g, [(blocks[(0, 0)], [b]), (blocks[(0, 1)], [])])
    assert added == [[rank_of(g, b)]]
    assert a.correction == {(b, WEST)} and not a.touched
    assert a.face_status == {("t", 0, 1): "open", ("t", 0, 2): "open"}
    maps = ("parent", "size", "parity", "bnd", "contacts", "frontier", "growth",
            "grown_adj", "live", "defects", "correction", "touched",
            "grow_iterations")
    before = {m: repr(getattr(a, m)) for m in maps}
    settles = []
    monkeypatch.setattr(UfState, "settle", lambda st: settles.append(st))
    fuse(a, ("t", 0, 1))
    assert {m: repr(getattr(a, m)) for m in maps} == before
    assert a.face_status == {("t", 0, 2): "open"}
    assert settles == []


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
        st = decode_blocks(g, [(blk, [v], face_statuses(blk, (wall,)))])
        assert st.face_status[wall] == "wall"
        assert all(st.face_status[f] == "open" for f in blk.faces if f != wall)
        assert not set(map_view(st)[3]) & set(face_edges(g, wall))
        assert all(wall not in faces for faces in st.contacts.values())
        open_st = decode_blocks(g, [(blk, [v])])
        assert set(map_view(open_st)[3]) & set(face_edges(g, wall))


def test_defect_outside_region_rejected():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    inside, outside = pack_vid(0, 2, 0, 0), pack_vid(0, 12, 0, 0)
    assert g.ranks_by_block([inside]) == {(0, 0): [rank_of(g, inside)]}
    with pytest.raises(ValueError, match=f"{outside:#x}"):
        g.ranks_by_block([inside, outside])


_SEAM = 2  # the seam's patch id: patches 0 and 1 come first
NOT_HELD = {
    "row-past-the-lattice": pack_vid(0, 2, 5, 1),
    "col-past-the-lattice": pack_vid(1, 2, 1, 4),
    "seam-vertex-at-an-unmerged-round": pack_vid(_SEAM, 7, 1, 0xFF),
    "seam-row-past-the-seam": pack_vid(_SEAM, 2, 5, 0xFF),
    "round-past-the-graph": pack_vid(0, 10, 1, 1),
    "patch-id-past-the-seams": pack_vid(_SEAM + 1, 2, 1, 0xFF),
}


@pytest.mark.parametrize("case", list(NOT_HELD))
def test_ids_the_graph_does_not_hold_fail_loudly(case):
    # a rank is a position in the sorted vertex ids, so an id that is not
    # one of them must raise rather than alias a real vertex, in every
    # decoder; each id is given after a real defect
    lay = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = merge_patches(DecodingGraph(lay, 10), lay.seams[0], (0, 5))
    assert g.seam_pid(lay.seams[0]) == _SEAM
    bad = NOT_HELD[case]
    assert bad not in set(g.vertex_array().tolist())
    defects = [pack_vid(0, 2, 1, 1), bad]
    with pytest.raises(ValueError, match=f"{bad:#x}"):
        decode_region(g, defects)
    with pytest.raises(ValueError, match=f"{bad:#x}"):
        FusionPlan(g).decode(defects)
    with pytest.raises(ValueError, match=f"{bad:#x}"):
        Pipeline(g).run(defects)


def test_a_defect_given_twice_fails_loudly():
    # a defect set names each vertex once; a repeat would otherwise decode
    # as the vertex once, in every decoder
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 3)
    v, w = pack_vid(0, 1, 1, 0), pack_vid(0, 2, 0, 1)
    for defects, bad in (([v, v], v), ([w, v, w], w), ([v, w, v, v], v)):
        with pytest.raises(ValueError, match=f"{bad:#x} given twice"):
            decode_region(g, defects)
        with pytest.raises(ValueError, match=f"{bad:#x} given twice"):
            FusionPlan(g).decode(defects)
        with pytest.raises(ValueError, match=f"{bad:#x} given twice"):
            Pipeline(g).run(defects)
    assert toggled_defects(decode_region(g, [v, w]).correction) == {v, w}


def test_face_statuses_must_map_the_block_faces():
    # the map names every face of the block, so a block decoded with it
    # never grows past its faces; with every face walled, none is open
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 15)
    blk = next(b for b in carve_blocks(g) if b.block_id == (0, 1))
    assert face_statuses(blk, ()) == {("t", 0, 1): "open", ("t", 0, 2): "open"}
    assert face_statuses(blk, (("t", 0, 2),)) == {("t", 0, 1): "open",
                                                  ("t", 0, 2): "wall"}
    v = pack_vid(0, 7, 2, 1)
    st = decode_blocks(g, [(blk, [v], face_statuses(blk, blk.faces))])
    assert st.face_status == {("t", 0, 1): "wall", ("t", 0, 2): "wall"}
    assert all(g.block_of(x) == (0, 1)
               for k in g.edge_keys(map_view(st)[3]) for x in k if x >= 0)
    assert toggled_defects(st.correction) == {v}


def test_add_block_needs_a_settled_state():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 6)
    blocks = {b.block_id: b for b in carve_blocks(g)}
    statuses = merge_statuses(face_statuses(blocks[bid], ()) for bid in ((0, 0), (0, 1)))
    v, w = pack_vid(0, 1, 1, 0), pack_vid(0, 4, 1, 1)
    st = UfState(g, [v], statuses)
    w_rank = rank_of(g, w)
    with pytest.raises(ValueError, match="settled"):
        st.add_block([w_rank])
    st.settle()
    st.peel_resolved()
    pre = st.grow_iterations
    # the block's rounds count as the state's own
    st.add_block([w_rank])
    assert st.grow_iterations > pre
    fuse(st, ("t", 0, 1))
    assert toggled_defects(st.correction) == {v, w}


def test_merged_face_statuses_must_agree():
    # a state's statuses are merged from its blocks' maps when it is
    # built, so the shared temporal face cannot be open on one side and a
    # wall on the other: set-up rejects it before any block decodes
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 6)
    blocks = {b.block_id: b for b in carve_blocks(g)}
    first, second = face_statuses(blocks[(0, 0)], ()), face_statuses(blocks[(0, 1)], ())
    walled = face_statuses(blocks[(0, 1)], blocks[(0, 1)].faces)
    assert merge_statuses([first, second]) == {("t", 0, 1): "open"}
    with pytest.raises(ValueError, match=r"face \('t', 0, 1\) has conflicting statuses"):
        merge_statuses([first, walled])
    v, w = pack_vid(0, 1, 1, 0), pack_vid(0, 4, 1, 1)
    with pytest.raises(ValueError, match="conflicting"):
        decode_blocks(g, [(blocks[(0, 0)], [v]), (blocks[(0, 1)], [w], walled)])
    # the maps it merged are left as they were
    assert first == {("t", 0, 1): "open"} and walled == {("t", 0, 1): "wall"}


def test_repeat_decode_is_deterministic():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
    ekeys = list(g.edges())
    rng = random.Random(11)
    flipped = {k for k in ekeys if rng.random() < 0.05}
    defects = sorted(toggled_defects(flipped))
    c1 = decode_region(g, defects).correction
    c2 = decode_region(g, defects).correction
    assert c1 == c2


def test_cut_parities():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 2)
    v = pack_vid(0, 0, 1, 0)
    u = pack_vid(0, 0, 1, 1)
    t = pack_vid(0, 1, 1, 1)
    assert cut_parities(g, {(v, WEST)}) == {0: 1}
    assert cut_parities(g, {(v, WEST), (u, EAST)}) == {0: 1}
    assert cut_parities(g, {(u, t), (v, u)}) == {}


def kernel_view(state):
    """held_view plus the iteration order of every map, set and list a
    state holds but its parent, size, parity and growth: the order a
    frontier list holds its vertices decides the order of the round's
    unions, so two kernels that build equal lists in different orders can
    decode differently later.  Those four are tables indexed by rank and
    edge id, with no order, and the kernel never iterates them; the growth
    compares per decoder (grown_union), since a pipeline's unit states
    share one table."""
    orders = {name: list(getattr(state, name))
              for name in ("bnd", "contacts", "frontier", "grown_adj", "touched", "live",
                           "defect_ranks", "correction_ids")}
    return (held_view(state), orders,
            {r: list(s) for r, s in state.frontier.items()},
            {v: list(es) for v, es in state.grown_adj.items()},
            {f: list(keys) for f, keys in state.touched.items()})


def decode_everything(g, defects, kernel):
    """Run decode_region, FusionPlan.decode and Pipeline.run with kernel as
    the UfState of every module that builds one (uf, and windows, whose
    slot loop runs both the plan and the pipeline); returns their results,
    the final kernel_view of every state built, in the order they were
    built, and the edges each of the three decoders grew (grown_union)."""
    built = []

    class Recorded(kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(uf, "UfState", Recorded), \
            mock.patch.object(windows, "UfState", Recorded):
        glob = uf.decode_region(g, defects)
        cuts = [len(built)]
        fused = FusionPlan(g).decode(defects)
        cuts.append(len(built))
        res = Pipeline(g).run(defects)
    grown = [grown_union(states) for states in (built[:cuts[0]], built[cuts[0]:cuts[1]],
                                                built[cuts[1]:])]
    return ((glob.correction, glob.grow_iterations, fused, res.correction, res.iters,
             res.commits, res.sends), [kernel_view(s) for s in built], grown)


@settings(max_examples=160, derandomize=True, deadline=None)
@given(rows=st.integers(1, 3), cols=st.integers(1, 3), d=st.sampled_from((3, 5)),
       epochs=st.integers(1, 3), every_seam=st.booleans(),
       p=st.sampled_from((0.01, 0.05, 0.1, 0.15)), seed=st.integers(0, 2**16))
def test_kernel_matches_the_reference_kernel(rows, cols, d, epochs, every_seam, p, seed):
    # the every-seam schedule runs on the 2x2 grid only: on a 3x3 grid it
    # walls a patch in, which the pipeline rejects
    if every_seam:
        rows = cols = 2
    lay = Layout(d, {i: (i // cols, i % cols) for i in range(rows * cols)})
    schedule = ([frozenset(lay.seams)] * epochs if every_seam
                else random_merge_schedule(lay, epochs, 0.6, seed))
    g = apply_merge_schedule(DecodingGraph(lay, epochs * d), schedule)
    defects = sorted(EdgeTable(g).sample(p, derived_rng(seed)).defects)
    got, got_states, got_grown = decode_everything(g, defects, UfState)
    want, want_states, want_grown = decode_everything(g, defects, RefUfState)
    assert got == want
    assert got_grown == want_grown
    assert len(got_states) == len(want_states)
    for mine, ref in zip(got_states, want_states):
        assert mine == ref
