"""Seeded decodes stay bit-identical across refactors.

Each case hashes a decoder's corrections and growth counts on a fixed
seeded input and compares the hash with the value the decoders gave when
it was recorded.  A refactor that changes any correction edge or any
window's growth rounds fails here; a deliberate change must say so and
record the new values, which

    PYTHONPATH=src python -m tests.test_seeded

prints for every case.
"""

import hashlib

import pytest

from surgedec.fusion import FusionPlan
from surgedec.graph import DecodingGraph, Layout, merge_patches
from surgedec.netsim import LatencyModel, Replayer, default_placement
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.topology import build_topology
from surgedec.uf import decode_region
from surgedec.windows import Pipeline

from .helpers import toggled_defects


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def run_pipeline(g, p, seed):
    defects = EdgeTable(g).sample(p, derived_rng(seed)).defects
    assert defects
    res = Pipeline(g).run(sorted(defects))
    assert toggled_defects(res.correction) == defects
    return digest(sorted(res.correction), sorted(res.iters.items()))


def grid_pipeline():
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    g = apply_merge_schedule(DecodingGraph(lay, 4 * 3),
                             random_merge_schedule(lay, 4, 0.5, seed=5))
    return run_pipeline(g, 0.03, 5)


def idle_grid_pipeline():
    # 82 of the 96 windows grow nothing and one commit of 36 carries a
    # crossing, so untouched faces and empty commits dominate the run
    lay = Layout(3, {i: (i // 4, i % 4) for i in range(16)})
    g = apply_merge_schedule(DecodingGraph(lay, 6 * 3),
                             random_merge_schedule(lay, 6, 0.5, seed=2))
    return run_pipeline(g, 0.002, 2)


def stream_pipeline():
    return run_pipeline(DecodingGraph(Layout(3, {0: (0, 0)}), 40 * 3), 0.02, 6)


def stream_pipeline_d5():
    return run_pipeline(DecodingGraph(Layout(5, {0: (0, 0)}), 100 * 5), 0.01, 1)


def field_pipeline():
    # the benchmark's field workload, its first 2 trials at seed 1: a 10x10
    # grid of d=5 patches over 6 epochs at merge_prob 0.5, p=0.001, replayed
    # on the 2x2-leaf, fanout-25 network.  Most of its windows are idle
    lay = Layout(5, {i: (i // 10, i % 10) for i in range(100)})
    g = apply_merge_schedule(DecodingGraph(lay, 6 * 5),
                             random_merge_schedule(lay, 6, 0.5, seed=1))
    table, pipe = EdgeTable(g), Pipeline(g)
    top = build_topology(4, 25, (2, 2))
    rep = Replayer(pipe, top, LatencyModel(), default_placement(lay, top))
    parts = []
    for i in range(2):
        defects = table.sample(0.001, derived_rng(1, i)).defects
        res = pipe.run(sorted(defects))
        assert toggled_defects(res.correction) == defects
        sends = [(k, src, dst, info.face, sorted(info.committed_crossings))
                 for k, src, dst, info in res.sends]
        parts.append((sorted(res.correction), sorted(res.iters.items()), sends,
                      rep.trace(res).rows))
    return digest(*parts)


def merged_pair():
    lay = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = merge_patches(DecodingGraph(lay, 3 * 5), lay.seams[0], (5, 10))
    defects = EdgeTable(g).sample(0.03, derived_rng(7)).defects
    assert defects
    plan = FusionPlan(g).decode(sorted(defects))
    glob = decode_region(g, sorted(defects))
    assert toggled_defects(plan) == defects
    assert toggled_defects(glob.correction) == defects
    return digest(sorted(plan), sorted(glob.correction), glob.grow_iterations)


def accuracy_trials():
    # the accuracy workload's first 20 trials at seed 1: two d=7 patches
    # merged for one epoch, p=0.02, each sample's defect set passed as drawn
    lay = Layout(7, {0: (0, 0), 1: (0, 1)})
    g = merge_patches(DecodingGraph(lay, 7), lay.seams[0], (0, 7))
    table, plan = EdgeTable(g), FusionPlan(g)
    parts = []
    for i in range(20):
        defects = table.sample(0.02, derived_rng(1, i)).defects
        fused = plan.decode(defects)
        glob = decode_region(g, defects)
        assert toggled_defects(fused) == defects
        assert toggled_defects(glob.correction) == defects
        parts.append((sorted(fused), sorted(glob.correction), glob.grow_iterations))
    return digest(*parts)


RECORDED = {
    grid_pipeline: "c37276d4c6d9f69f",
    stream_pipeline: "9a2f83aef5f12153",
    merged_pair: "5773a10e5f008acf",
    stream_pipeline_d5: "2abf4de47cfd11ea",
    accuracy_trials: "49fe119e649f7b1c",
    idle_grid_pipeline: "7f48ea121ad775df",
    field_pipeline: "2529d25fccbd4a5b",
}


@pytest.mark.parametrize("case", list(RECORDED), ids=lambda f: f.__name__)
def test_seeded_decodes_are_unchanged(case):
    assert case() == RECORDED[case]


if __name__ == "__main__":
    for case, recorded in RECORDED.items():
        got = case()
        print(f"{case.__name__}: {got!r}"
              + ("" if got == recorded else f"  (recorded {recorded!r})"))
