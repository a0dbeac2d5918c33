"""The benchmark's three seeded workloads: set-up and one trial of each.

accuracy  two d=7 patches merged for one epoch at p=0.02, decoded per block
          with fusion (FusionPlan.decode) and monolithically
          (decode_region); the point behind `surgedec accuracy`.
field     a 10x10 grid of d=5 patches with a random merge schedule at
          merge_prob 0.5, p=0.001, through the three-group window pipeline
          and the timing replay on the 2x2-leaf, fanout-25 network.
stream    one d=5 patch, no merges, p=0.01, over a stream of 1600 epochs
          through the pipeline's rolling per-leaf state and the replay.

The seed fixes every input: the merge schedule and each trial's noise.
The library only ever sees the layout, the schedule and the samples.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from surgedec import fusion, netsim, noise, uf, windows
from surgedec.graph import DecodingGraph, Layout, merge_patches
from surgedec.topology import build_topology

FANOUT = 25

# setups: set-ups per run, the median is setup_s
# min_trials: a run goes on past --seconds until this many trials are done;
#   at least replay_trials, so the sim_* metrics never depend on host speed
# replay_trials: the first trials, which fix the sim_* metrics and the digest
# traced_trials: trials of the traced run (spans are kept in memory)
WORKLOADS = {
    "accuracy": dict(d=7, p=0.02, leaf_grid=(1, 2), setups=25,
                     min_trials=1000, replay_trials=1000, traced_trials=300),
    "field": dict(d=5, grid=(10, 10), epochs=6, merge_prob=0.5, p=0.001,
                  leaf_grid=(2, 2), setups=3, min_trials=100,
                  replay_trials=20, traced_trials=20),
    "stream": dict(d=5, epochs=1600, p=0.01, leaf_grid=(1, 1), setups=3,
                   min_trials=3, replay_trials=3, traced_trials=2,
                   quarter_trials=6),
}

# the same workloads at a size that runs in well under a second
TINY = {
    "accuracy": dict(d=3, setups=2, min_trials=20, replay_trials=5,
                     traced_trials=5),
    "field": dict(d=3, grid=(3, 3), epochs=2, setups=2, min_trials=12,
                  replay_trials=2, traced_trials=2),
    "stream": dict(d=3, epochs=40, setups=2, min_trials=2, replay_trials=2,
                   traced_trials=2, quarter_trials=2),
}


def params(name: str, tiny: bool = False) -> dict:
    return dict(WORKLOADS[name], **(TINY[name] if tiny else {}))


@dataclass
class Trial:
    host_s: float     # the timed library calls of the trial
    decode_s: float   # the decoder call alone, for epochs_per_s
    valid: bool       # every correction reproduces the sampled syndrome
    logical: tuple    # per decoder: 1 if the corrected observable is wrong
    digest: list      # values folded into the workload digest
    sim: list         # (latency ns, inverse throughput ns) per replayed block


def correction_valid(correction, defects) -> bool:
    """True when flipping the correction's edges toggles exactly the defects."""
    toggled = set()
    for u, w in correction:
        toggled.symmetric_difference_update((u,))
        if w >= 0:
            toggled.symmetric_difference_update((w,))
    return toggled == set(defects)


def _wrong(cut_parity, truth) -> int:
    """1 when the corrected observable of any patch disagrees with the truth."""
    return int(any(truth[pid] ^ cut_parity.get(pid, 0) for pid in truth))


def _network(graph, pipe, leaf_grid):
    rows, cols = leaf_grid
    top = build_topology(rows * cols, FANOUT, leaf_grid)
    return netsim.Replayer(pipe, top, netsim.LatencyModel(),
                           netsim.default_placement(graph.layout, top))


def setup(name: str, prm: dict, seed: int, span=None):
    """Everything from layout to ready-to-decode; returns the environment."""
    span = span or (lambda _: contextlib.nullcontext())
    d = prm["d"]
    with span("graph.build"):
        if name == "accuracy":
            lay = Layout(d, {0: (0, 0), 1: (0, 1)})
            graph = merge_patches(DecodingGraph(lay, rounds=d), lay.seams[0], (0, d))
            epochs = 1
        elif name == "field":
            rows, cols = prm["grid"]
            epochs = prm["epochs"]
            lay = Layout(d, {i: (i // cols, i % cols) for i in range(rows * cols)})
            graph = noise.apply_merge_schedule(
                DecodingGraph(lay, rounds=epochs * d),
                noise.random_merge_schedule(lay, epochs, prm["merge_prob"], seed))
        else:
            epochs = prm["epochs"]
            graph = DecodingGraph(Layout(d, {0: (0, 0)}), rounds=epochs * d)
    env = SimpleNamespace(name=name, graph=graph, epochs=epochs, p=prm["p"])
    env.plan = fusion.FusionPlan(graph) if name == "accuracy" else None
    env.pipe = windows.Pipeline(graph)
    env.rep = _network(graph, env.pipe, prm["leaf_grid"])
    env.table = noise.EdgeTable(graph)
    return env


def trial(env, i: int, seed: int, keep: bool) -> Trial:
    """One trial on fresh noise; keep marks the trials that fix the digest."""
    rng = noise.derived_rng(seed, i)
    if env.name == "accuracy":
        return _accuracy_trial(env, rng, keep)
    t0 = perf_counter()
    sample = env.table.sample(env.p, rng)
    t1 = perf_counter()
    res = env.pipe.run(sample.defects)
    t2 = perf_counter()
    tr = env.rep.trace(res)
    t3 = perf_counter()
    valid = correction_valid(res.correction, sample.defects)
    logical = (_wrong(uf.cut_parities(env.graph, res.correction), sample.true_logical),)
    digest, sim = [], []
    if keep:
        digest = [sorted(res.correction), logical, tr.rows, tr.events]
        sim = [(row[2], row[3]) for row in tr.rows]
    return Trial(t3 - t0, t2 - t1, valid, logical, digest, sim)


def _accuracy_trial(env, rng, keep):
    graph = env.graph
    t0 = perf_counter()
    sample = env.table.sample(env.p, rng)
    t1 = perf_counter()
    fused = env.plan.decode(sample.defects)
    t2 = perf_counter()
    glob = uf.decode_region(graph, sample.defects).correction
    cp_fused = uf.cut_parities(graph, fused)
    cp_glob = uf.cut_parities(graph, glob)
    t3 = perf_counter()
    logical = (_wrong(cp_fused, sample.true_logical),
               _wrong(cp_glob, sample.true_logical))
    valid = (correction_valid(fused, sample.defects)
             and correction_valid(glob, sample.defects))
    digest, sim = [], []
    if keep:
        # the modelled network's view of the same sample, outside the timing
        res = env.pipe.run(sample.defects)
        tr = env.rep.trace(res)
        valid = valid and correction_valid(res.correction, sample.defects)
        digest = [sorted(fused), sorted(glob), logical,
                  sorted(res.correction), tr.rows, tr.events]
        sim = [(row[2], row[3]) for row in tr.rows]
    return Trial(t3 - t0, t2 - t1, valid, logical, digest, sim)
