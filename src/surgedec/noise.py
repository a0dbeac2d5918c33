"""Phenomenological noise on decoding graphs.

Every edge flips independently with probability p: space edges are data
errors, time edges are measurement errors.  The final round of a graph is
implicitly perfect (no time edges extend past it).  Defects are the vertices
with an odd number of flipped incident edges; the true logical observable of
a patch is the flip parity across its west cut.  EdgeTable holds the edges
as int32 endpoint-slot and cut arrays, not as a list of edge keys, and a
sample rebuilds the keys of the edges it flips only when they are read.
The arrays come from the graph's slab templates (edge_rank_pairs); the
decoder's set-up, not the sampler, fills the graph's adjacency cache.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .graph import EAST, WEST, DecodingGraph, Layout


class ErrorSample:
    """One noise draw: its defects, the true logical flips per patch and,
    built on first read, the set of flipped edge keys."""

    def __init__(self, table: EdgeTable, flips: np.ndarray, defects: set,
                 true_logical: dict):
        self._table = table
        self._flips = flips
        self.defects = defects
        self.true_logical = true_logical

    @cached_property
    def flipped_edges(self) -> set:
        ids, flips = self._table._vid_arr, self._flips
        return set(zip(ids[self._table._u[flips]].tolist(),
                       ids[self._table._v[flips]].tolist()))


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, trial, epoch, ...) paths."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *path]))


class EdgeTable:
    """Materialised edges of a graph, for vectorised sampling.

    The table holds numpy arrays only, no edge keys.  Per edge, a row of
    int32 _ends holds two slots into _vid_arr, the n sorted vertex ids
    followed by WEST at slot n and EAST at n + 1 (_u and _v are its
    columns), and int32 _cut is the patch whose cut the edge crosses, -1
    for none.  The rows are graph.edge_rank_pairs(), in graph.edges()
    order, built from slab templates, so the table neither reads nor
    fills the graph's adjacency cache.  A sample finds its defects and
    rebuilds the keys of the edges it flips from their slots, so
    per-trial cost scales with the flip count.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        ends = self._ends = graph.edge_rank_pairs()
        vids = graph.vertex_array()
        n = len(vids)
        self._vid_arr = np.concatenate((vids, (WEST, EAST)))
        self._u, self._v = ends[:, 0], ends[:, 1]
        self.n_edges = len(ends)
        # WEST (-1) goes to slot n and EAST (-2) to slot n + 1
        bnd = self._v < 0
        self._v[bnd] = n - 1 - self._v[bnd]
        self._cut = graph.cut_patches(vids[self._u], self._vid_arr[self._v]).astype(np.int32)

    def sample_flips(self, p: float, rng: np.random.Generator) -> np.ndarray:
        return np.flatnonzero(rng.random(self.n_edges) < p)

    def defects_of(self, flips: np.ndarray) -> list:
        """The vertex ids an odd number of flipped edges end on, ascending.

        The work follows the flips, not the vertex count: their endpoint
        slots are sorted, and a slot is odd when its run of equal slots
        has odd length, that is when the run's start and the next run's
        start differ in parity.  The boundary slots n and n + 1 sort last
        and map to WEST and EAST, which are negative and are dropped.
        """
        ends = self._ends.take(flips, axis=0).ravel()
        ends.sort()
        m = len(ends)
        first = np.empty(m + 1, dtype=bool)  # run starts, then the end
        first[0] = first[m] = True
        np.not_equal(ends[1:], ends[:-1], out=first[1:m])
        starts = first.nonzero()[0]
        par = starts & 1
        out = self._vid_arr.take(ends.take(starts[:-1].compress(par[1:] != par[:-1]))).tolist()
        while out and out[-1] < 0:
            out.pop()
        return out

    def logical_of(self, flips: np.ndarray) -> dict:
        """Cut parity per patch with a flipped cut edge, in patch order."""
        cuts = self._cut[flips]
        counts = np.bincount(cuts[cuts >= 0])
        pids = counts.nonzero()[0]
        return dict(zip(pids.tolist(), (counts[pids] & 1).tolist()))

    def sample(self, p: float, rng: np.random.Generator) -> ErrorSample:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        flips = self.sample_flips(p, rng)
        truth = {pid: 0 for pid in self.graph.layout.positions}
        truth.update(self.logical_of(flips))
        return ErrorSample(self, flips, set(self.defects_of(flips)), truth)


def raw_merge_draws(layout: Layout, epochs: int, prob: float, seed: int) -> list:
    """Per-epoch Bernoulli draws per seam, before conflict resolution."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"merge probability must be in [0, 1], got {prob}")
    rng = derived_rng(seed, 0x5EA3)
    draws = []
    for _ in range(epochs):
        mask = rng.random(len(layout.seams)) < prob
        draws.append({s for s, m in zip(layout.seams, mask) if m})
    return draws

def random_merge_schedule(layout: Layout, epochs: int, prob: float, seed: int) -> list:
    """Random pairwise merge schedule: one frozenset of active seams per epoch.

    A patch joins at most one seam per epoch; when draws conflict the
    lexicographically smallest seam wins.
    """
    schedule = []
    for drawn in raw_merge_draws(layout, epochs, prob, seed):
        used = set()
        active = []
        for s in sorted(drawn):
            if s.patch_a not in used and s.patch_b not in used:
                active.append(s)
                used.update((s.patch_a, s.patch_b))
        schedule.append(frozenset(active))
    return schedule


def apply_merge_schedule(graph: DecodingGraph, schedule: list) -> DecodingGraph:
    d = graph.d
    for e, seams in enumerate(schedule):
        for s in sorted(seams):
            graph.merge(s, e * d, (e + 1) * d)
    return graph
