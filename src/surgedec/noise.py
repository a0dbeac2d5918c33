"""Phenomenological noise on decoding graphs.

Every edge flips independently with probability p: space edges are data
errors, time edges are measurement errors.  The final round of a graph is
implicitly perfect (no time edges extend past it).  Defects are the vertices
with an odd number of flipped incident edges; the true logical observable of
a patch is the flip parity across its west cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import DecodingGraph, Layout


@dataclass
class ErrorSample:
    flipped_edges: set
    defects: set
    true_logical: dict


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, trial, epoch, ...) paths."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *path]))


class EdgeTable:
    """Materialised edges of a graph, for vectorised sampling.

    Sampling returns sparse results, so per-trial cost scales with the
    flip count.
    """

    def __init__(self, graph: DecodingGraph):
        self.graph = graph
        # one walk over the graph's slabs fills its adjacency cache in
        # vertex order, which the decodes that follow read, and yields
        # each edge key once
        self.ekeys = list(graph.edges())
        m = self.n_edges = len(self.ekeys)
        ends = np.fromiter(chain.from_iterable(self.ekeys), dtype=np.int64, count=2 * m)
        u, v = ends[0::2], ends[1::2]
        self._vid_arr = graph.vertex_array()
        n = self._n = len(self._vid_arr)
        self._u = np.searchsorted(self._vid_arr, u)
        self._v = np.searchsorted(self._vid_arr, v)
        # boundary endpoints (WEST/EAST) map to the extra slot n
        self._v[v < 0] = n
        self._cut = graph.cut_patches(u, v)

    def sample_flips(self, p: float, rng: np.random.Generator) -> np.ndarray:
        return np.flatnonzero(rng.random(self.n_edges) < p)

    def defects_of(self, flips: np.ndarray) -> list:
        counts = np.bincount(self._u[flips], minlength=self._n + 1)
        counts += np.bincount(self._v[flips], minlength=self._n + 1)
        return self._vid_arr[(counts[: self._n] & 1).nonzero()[0]].tolist()

    def logical_of(self, flips: np.ndarray) -> dict:
        out = {}
        cuts = self._cut[flips]
        for pid in np.unique(cuts[cuts >= 0]):
            out[int(pid)] = int(np.count_nonzero(cuts == pid) & 1)
        return out

    def sample(self, p: float, rng: np.random.Generator) -> ErrorSample:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        flips = self.sample_flips(p, rng)
        truth = {pid: 0 for pid in self.graph.layout.positions}
        truth.update(self.logical_of(flips))
        return ErrorSample(
            flipped_edges={self.ekeys[i] for i in flips},
            defects=set(self.defects_of(flips)),
            true_logical=truth,
        )


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
