"""Exhaustive minimum-weight matching oracle for small decoding instances.

Exact reference decoder: pairs defects (or matches them to an absorbing
boundary) so the summed shortest-path length is minimal, by dynamic
programming over defect subsets.  Independent of the union-find decoder;
intended for graphs up to a few hundred vertices and at most ~14 defects.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .graph import DecodingGraph


def _bfs(graph: DecodingGraph, src: int, in_region, absorb: frozenset):
    """Unit-weight BFS from src; returns (dist, parent, best_boundary).

    best_boundary is (cost, vertex, edge_key) for the cheapest absorbing
    contact: a real boundary edge or an edge leaving the region through an
    absorbing face.
    """
    dist = {src: 0}
    parent = {}
    frontier = [src]
    best = (inf, None, None)
    while frontier:
        nxt = []
        for v in frontier:
            dv = dist[v]
            it = iter(graph.neighbors(v))
            for ekey, other, face in zip(it, it, it):
                if other < 0:
                    if dv + 1 < best[0]:
                        best = (dv + 1, v, ekey)
                    continue
                if not in_region(other):
                    if face is not None and face in absorb and dv + 1 < best[0]:
                        best = (dv + 1, v, ekey)
                    continue
                if other not in dist:
                    dist[other] = dv + 1
                    parent[other] = (ekey, v)
                    nxt.append(other)
        frontier = nxt
    return dist, parent, best


def _walk(parent, src, dst):
    edges = set()
    v = dst
    while v != src:
        ekey, v = parent[v]
        edges ^= {ekey}
    return edges


def oracle_mwpm(graph: DecodingGraph, defects, region=None, absorb=(), max_defects: int = 14):
    """Exact minimum-weight pairing of defects.

    Args:
        graph: decoding graph.
        defects: iterable of defect vertex ids.
        region: optional set of (patch, epoch) block ids restricting paths.
        absorb: face ids usable as absorbing boundaries besides real ones.
        max_defects: guard for the exponential pairing enumeration.

    Returns:
        (weight, correction): minimal total weight and one optimal edge set.
    """
    defects = sorted(set(defects))
    if len(defects) > max_defects:
        raise ValueError(f"{len(defects)} defects exceed oracle limit {max_defects}")
    if region is None:
        in_region = lambda v: True
    else:
        blocks = frozenset(region)
        in_region = lambda v: graph.block_of(v) in blocks
    for v in defects:
        if not in_region(v):
            raise ValueError(f"defect {v} outside oracle region")
    absorb = frozenset(absorb)
    n = len(defects)
    if n == 0:
        return 0, set()

    dists = []
    parents = []
    bounds = []
    for v in defects:
        dist, parent, best = _bfs(graph, v, in_region, absorb)
        dists.append(dist)
        parents.append(parent)
        bounds.append(best)

    @lru_cache(maxsize=None)
    def solve(mask: int):
        if mask == 0:
            return 0, ()
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best_w, best_plan = inf, None
        w = bounds[i][0]
        if w < inf:
            sw, plan = solve(rest)
            if w + sw < best_w:
                best_w, best_plan = w + sw, (("b", i),) + plan
        for j in range(i + 1, n):
            if not rest & (1 << j):
                continue
            w = dists[i].get(defects[j], inf)
            if w is inf:
                continue
            sw, plan = solve(rest ^ (1 << j))
            if w + sw < best_w:
                best_w, best_plan = w + sw, (("p", i, j),) + plan
        return best_w, best_plan

    weight, plan = solve((1 << n) - 1)
    solve.cache_clear()
    if plan is None:
        raise ValueError("defects cannot be matched inside the region")
    correction = set()
    for step in plan:
        if step[0] == "b":
            i = step[1]
            _, v, ekey = bounds[i]
            correction ^= _walk(parents[i], defects[i], v)
            correction ^= {ekey}
        else:
            _, i, j = step
            correction ^= _walk(parents[i], defects[i], defects[j])
    return weight, correction
