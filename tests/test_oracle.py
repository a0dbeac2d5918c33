"""Tests for the exhaustive matching oracle.

The reference here is brute force over raw edge subsets, which is feasible
for a single d=3 round (13 edges) and shares no code with the oracle's
BFS + pairing logic.
"""

import random
from itertools import combinations

import pytest

from surgedec.graph import DecodingGraph, Layout, carve_blocks, pack_vid
from surgedec.oracle import oracle_mwpm

from .helpers import toggled_defects


def exhaustive_min_weight(graph, defects):
    ekeys = list(graph.edges())
    assert len(ekeys) <= 14
    target = set(defects)
    for w in range(len(ekeys) + 1):
        for subset in combinations(ekeys, w):
            if toggled_defects(subset) == target:
                return w
    raise AssertionError("no edge subset reproduces the defects")


def test_empty():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    assert oracle_mwpm(g, []) == (0, set())


def test_single_defect_next_to_boundary():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    v = pack_vid(0, 0, 1, 0)
    w, corr = oracle_mwpm(g, [v])
    assert w == 1
    assert corr == {(v, -1)}


def test_adjacent_pair():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    a = pack_vid(0, 0, 1, 0)
    b = pack_vid(0, 0, 1, 1)
    w, corr = oracle_mwpm(g, [a, b])
    assert w == 1
    assert corr == {(a, b)}
    assert toggled_defects(corr) == {a, b}


def test_matches_exhaustive_search():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    ekeys = list(g.edges())
    rng = random.Random(1234)
    for _ in range(40):
        flipped = [k for k in ekeys if rng.random() < 0.3]
        defects = sorted(toggled_defects(flipped))
        if len(defects) > 8:
            continue
        w, corr = oracle_mwpm(g, defects)
        assert toggled_defects(corr) == set(defects)
        assert len(corr) == w
        assert w == exhaustive_min_weight(g, defects)


def test_correction_valid_on_deep_graph():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 5)
    ekeys = list(g.edges())
    rng = random.Random(99)
    checked = 0
    while checked < 10:
        flipped = [k for k in ekeys if rng.random() < 0.01]
        defects = sorted(toggled_defects(flipped))
        if not 0 < len(defects) <= 10:
            continue
        w, corr = oracle_mwpm(g, defects)
        assert toggled_defects(corr) == set(defects)
        assert w <= len(flipped)
        checked += 1


def test_region_wall_vs_absorb():
    g = DecodingGraph(Layout(5, {0: (0, 0)}), 10)
    carve_blocks(g)
    v = pack_vid(0, 4, 2, 1)
    # walled at the epoch boundary: must run to the spatial boundary
    w_wall, corr = oracle_mwpm(g, [v], region={(0, 0)})
    assert w_wall == 2
    assert all(g.block_of(a) == (0, 0) for a, _ in corr)
    # absorbing future face: one time edge into round 3 suffices
    w_abs, corr = oracle_mwpm(g, [v], region={(0, 0)}, absorb={("t", 0, 1)})
    assert w_abs == 1
    (ekey,) = corr
    assert g.kind_of(ekey) == "time"
    assert g.face_of(ekey) == ("t", 0, 1)


def test_limits():
    g = DecodingGraph(Layout(3, {0: (0, 0)}), 1)
    vs = [pack_vid(0, 0, r, c) for r in range(3) for c in range(2)]
    with pytest.raises(ValueError):
        oracle_mwpm(g, vs, max_defects=4)
    with pytest.raises(ValueError):
        oracle_mwpm(g, [pack_vid(0, 0, 1, 0)], region={(0, 1)})
