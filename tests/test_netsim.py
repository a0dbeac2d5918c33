import dataclasses

import pytest

from surgedec.graph import DecodingGraph, Layout, merge_patches
from surgedec.netsim import (
    Instruction,
    LatencyModel,
    Replayer,
    default_placement,
    simulate,
)
from surgedec.noise import (EdgeTable, apply_merge_schedule, derived_rng,
                            random_merge_schedule)
from surgedec.topology import build_topology
from surgedec.windows import Pipeline

ZERO_COST = LatencyModel(t_round_ns=1000, t_link_ns=0, t_cycle_ns=0,
                         decode_base_cycles=0, decode_per_iter_cycles=0)


def row_graph(n, d=3, epochs=3, merge_all=True):
    lay = Layout(d, {i: (0, i) for i in range(n)})
    g = DecodingGraph(lay, rounds=epochs * d)
    if merge_all:
        for s in lay.seams:
            g = merge_patches(g, s, (0, epochs * d))
    return g


def grid_graph(d=3, epochs=4):
    lay = Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, rounds=epochs * d)
    for s in lay.seams:
        g = merge_patches(g, s, (0, epochs * d))
    return g


def test_first_g3_commit_hits_floor_exactly_at_zero_cost():
    for g, dims, nl in [(row_graph(3), (1, 3), 3), (grid_graph(), (2, 2), 4)]:
        top = build_topology(nl, 25, dims)
        rep = simulate(g, top, ZERO_COST, p=0.0)
        assert rep.first_g3_latency_ns == 3 * g.d * 1000
        assert rep.first_g3_commit_ns == 4 * g.d * 1000


def test_first_g3_commit_floor_holds_under_noise():
    g = grid_graph(epochs=5)
    top = build_topology(4, 25, (2, 2))
    rep = simulate(g, top, LatencyModel(), p=0.01, trials=5, seed=3)
    assert rep.first_g3_latency_ns > 3 * g.d * 1000


def test_every_commit_keeps_cadence_during_drain():
    # zero cost: commit of epoch e by a group-g unit lands exactly at the
    # cadence of its paired slot, including drain slots, whatever the
    # merges and the noise
    lay = Layout(3, {i: (i // 3, i % 3) for i in range(9)})
    field = apply_merge_schedule(DecodingGraph(lay, rounds=4 * 3),
                                 random_merge_schedule(lay, 4, 0.5, seed=3))
    cases = [(row_graph(3, epochs=3), build_topology(3, 25, (1, 3)), set()),
             (field, build_topology(9, 25, (3, 3)),
              EdgeTable(field).sample(0.02, derived_rng(3)).defects)]
    for g, top, defects in cases:
        pipe = Pipeline(g)
        tr = Replayer(pipe, top, ZERO_COST).trace(pipe.run(defects))
        slot = g.d * 1000
        assert len(tr.commit_ns) == len(pipe.groups) * pipe.epochs
        for (u, e), t in tr.commit_ns.items():
            assert t == (e + pipe.groups[u] + 1) * slot
        last_g3 = max(t for (u, _), t in tr.commit_ns.items() if pipe.groups[u] == 3)
        # the last epoch is committed in the last drain slot
        assert last_g3 == (pipe.epochs + 3) * slot


def test_missing_boundary_info_stalls_the_replay():
    g = grid_graph(epochs=2)
    top = build_topology(4, 25, (2, 2))
    pipe = Pipeline(g)
    res = pipe.run(set())
    repl = Replayer(pipe, top, LatencyModel())
    assert repl.trace(res).rows
    for drop in (0, len(res.sends) - 1):
        cut = dataclasses.replace(res, sends=res.sends[:drop] + res.sends[drop + 1:])
        with pytest.raises(AssertionError, match="stalled"):
            repl.trace(cut)


def test_destinations_beyond_the_wire_are_rejected():
    # 625 leaves take node ids 26..650; standard messages address 8 bits
    g = row_graph(2, epochs=1)
    pipe = Pipeline(g)
    top = build_topology(625, 25, (25, 25))
    lat = LatencyModel()
    with pytest.raises(ValueError, match="650"):
        Replayer(pipe, top, lat, node_of={0: top.leaves[-2], 1: top.leaves[-1]})
    with pytest.raises(ValueError, match="256"):
        Replayer(pipe, top, lat, node_of={0: 255, 1: 256})
    assert Replayer(pipe, top, lat, node_of={0: 254, 1: 255}).trace(pipe.run(set())).rows
    far = [Instruction("measure", patch=0, epoch=0, forward_node=top.leaves[-1])]
    with pytest.raises(ValueError, match="650"):
        Replayer(pipe, top, lat, instructions=far)


def test_single_unit_latency_is_pure_decode_time():
    g = row_graph(1, epochs=3, merge_all=False)
    top = build_topology(2, 25, (1, 2))
    lat = LatencyModel()
    rep = simulate(g, top, lat, p=0.0)
    assert rep.first_g3_commit_ns is None
    assert rep.latency_min_ns == lat.decode_ns(0)
    assert rep.latency_p95_ns == lat.decode_ns(0)
    assert rep.inv_throughput_mean_ns == lat.decode_ns(0) / g.d


def test_doubling_link_latency_moves_latency_not_throughput():
    g = grid_graph(epochs=4)
    top = build_topology(4, 25, (2, 2))
    base = simulate(g, top, LatencyModel(), p=0.01, trials=3, seed=11)
    slow = simulate(g, top, LatencyModel(t_link_ns=190), p=0.01, trials=3, seed=11)
    assert slow.latency_mean_ns > base.latency_mean_ns
    assert slow.inv_throughput_mean_ns == base.inv_throughput_mean_ns
    assert slow.inv_throughput_sd_ns == base.inv_throughput_sd_ns
    assert [r[3] for r in slow.rows] == [r[3] for r in base.rows]


def test_simulation_is_deterministic():
    g = grid_graph(epochs=4)
    top = build_topology(4, 25, (2, 2))
    a = simulate(g, top, LatencyModel(), p=0.02, trials=4, seed=9)
    b = simulate(g, top, LatencyModel(), p=0.02, trials=4, seed=9)
    assert a == b


def test_slow_decoder_builds_backlog_and_fast_one_does_not():
    g = row_graph(1, epochs=40, merge_all=False)
    top = build_topology(2, 25, (1, 2))
    ok = simulate(g, top, LatencyModel(), p=0.0)
    assert not ok.backlog
    assert ok.max_queue_depth == 0
    # 7000 ns of decode against a 3000 ns slot: queue must grow
    slow = simulate(g, top, LatencyModel(decode_base_cycles=700), p=0.0)
    assert slow.backlog
    assert slow.max_queue_depth > 10


def test_measured_result_forwards_through_the_root():
    g = row_graph(1, epochs=3, merge_all=False)
    top = build_topology(2, 25, (1, 2))
    lat = LatencyModel()
    ins = [Instruction("measure", patch=0, epoch=0, forward_node=top.leaves[1])]
    pipe = Pipeline(g)
    repl = Replayer(pipe, top, lat, instructions=ins)
    tr = repl.trace(pipe.run(set()))
    # one hop up to the root, one hop back down to the other leaf
    assert tr.feedback_ns[(0, 0)] == tr.commit_ns[(0, 0)] + 2 * lat.t_link_ns


def test_cond_merge_instruction_arrives_with_slack():
    d = 3
    lay = Layout(d, {0: (0, 0), 1: (0, 1)})
    g = DecodingGraph(lay, rounds=4 * d)
    g = merge_patches(g, lay.seams[0], (3 * d, 4 * d))  # the taken branch
    top = build_topology(2, 25, (1, 2))
    ins = [Instruction("cond_merge", patch=0, epoch=0, seam=lay.seams[0],
                       merge_epoch=3)]
    pipe = Pipeline(g)
    repl = Replayer(pipe, top, ZERO_COST, instructions=ins)
    tr = repl.trace(pipe.run(set()))
    assert tr.instr_margin_ns == 2 * d * 1000
    repl = Replayer(pipe, top, LatencyModel(), instructions=ins)
    tr = repl.trace(pipe.run(set()))
    assert tr.instr_margin_ns is not None and tr.instr_margin_ns > 0


def test_valid_decoding_under_partial_merges():
    lay = Layout(3, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, rounds=15)
    g = apply_merge_schedule(g, random_merge_schedule(lay, 5, 0.5, seed=2))
    top = build_topology(4, 25, (2, 2))
    rep = simulate(g, top, LatencyModel(), p=0.02, trials=20, seed=5)
    assert rep.blocks_per_trial == 20
    assert len(rep.rows) == 20
    assert rep.max_queue_depth <= 1


def test_tiled_placement_keeps_neighbours_on_adjacent_nodes():
    lay = Layout(3, {i: (i // 4, i % 4) for i in range(16)})
    top = build_topology(4, 25, (2, 2))
    node_of = default_placement(lay, top)
    assert sorted(node_of) == list(range(16))
    for (a, b) in [(0, 1), (1, 2), (5, 6), (0, 4), (10, 14)]:
        na, nb = node_of[a], node_of[b]
        assert na == nb or frozenset({na, nb}) in top.grid_links
    assert len(set(node_of.values())) == 4