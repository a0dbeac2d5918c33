"""Hybrid tree-grid interconnect between decoder nodes.

Leaf nodes host the per-patch decoder units and sit on a 2D grid with
direct links between grid neighbours, so boundary information between
adjacent patches takes a single hop.  A fanout-limited tree above the
leaves aggregates logical results to the root and distributes
instructions downward.  Everything else routes through the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import wire


@dataclass(frozen=True)
class Topology:
    fanout: int
    grid_dims: tuple  # (rows, cols) of the leaf grid
    leaves: tuple  # leaf node ids, row-major over the grid
    parent: dict  # node -> parent node, root absent
    children: dict  # node -> tuple of children, leaves map to ()
    grid_links: frozenset  # frozenset({a, b}) leaf pairs
    height: int  # tree edges from the root down to any leaf

    @property
    def root(self) -> int:
        return 0

    def depth(self, node: int) -> int:
        d = 0
        while node != 0:
            node = self.parent[node]
            d += 1
        return d


def build_topology(n_leaves: int, fanout: int, grid_dims: tuple) -> Topology:
    """Build the tree bottom-up with node 0 as root and leaves last.

    Every level groups consecutive nodes under one parent, so the tree is
    as shallow as the fanout allows: height = ceil(log_fanout(n_leaves)),
    with a minimum of one level so the root is never itself a leaf.
    """
    rows, cols = grid_dims
    if rows < 1 or cols < 1:
        raise ValueError(f"grid {rows}x{cols} needs at least one row and column")
    if rows * cols != n_leaves:
        raise ValueError(f"grid {rows}x{cols} cannot hold {n_leaves} leaves")
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if n_leaves < 1:
        raise ValueError("need at least one leaf")

    # level_sizes[0] is the leaf level, last entry is the root
    level_sizes = [n_leaves]
    while level_sizes[-1] > 1 or len(level_sizes) == 1:
        level_sizes.append(math.ceil(level_sizes[-1] / fanout))

    # ids: 0 for the root, then each level top-down, leaves last
    level_ids = []
    next_id = 0
    for size in reversed(level_sizes):
        level_ids.append(tuple(range(next_id, next_id + size)))
        next_id += size
    level_ids.reverse()  # back to leaves-first order

    parent = {}
    for lvl in range(len(level_ids) - 1):
        above = level_ids[lvl + 1]
        for i, node in enumerate(level_ids[lvl]):
            parent[node] = above[i // fanout]

    children: dict = {n: [] for lvl in level_ids for n in lvl}
    for node, par in parent.items():
        children[par].append(node)
    children = {n: tuple(sorted(c)) for n, c in children.items()}

    leaves = level_ids[0]
    links = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.add(frozenset({leaves[r * cols + c], leaves[r * cols + c + 1]}))
            if r + 1 < rows:
                links.add(frozenset({leaves[r * cols + c], leaves[(r + 1) * cols + c]}))

    return Topology(
        fanout=fanout,
        grid_dims=(rows, cols),
        leaves=leaves,
        parent=parent,
        children=children,
        grid_links=frozenset(links),
        height=len(level_sizes) - 1,
    )


def tree_path(top: Topology, src: int, dst: int) -> list:
    """Node hops from src to dst through the tree, excluding src."""
    if src == dst:
        return []
    up_src = [src]
    while up_src[-1] != 0:
        up_src.append(top.parent[up_src[-1]])
    up_dst = [dst]
    while up_dst[-1] != 0:
        up_dst.append(top.parent[up_dst[-1]])
    ancestors = set(up_src)
    lca = next(n for n in up_dst if n in ancestors)
    path = up_src[1 : up_src.index(lca) + 1]
    path += list(reversed(up_dst[: up_dst.index(lca)]))
    return path


def route(top: Topology, msg, src: int) -> list:
    """Hop sequence a message takes from src, excluding src itself.

    Boundary information between grid-adjacent leaves uses the direct
    grid link; everything else climbs the tree to the lowest common
    ancestor and back down.
    """
    dst = msg.dest
    if src not in top.children or dst not in top.children:
        raise ValueError(f"unknown node in route {src} -> {dst}")
    if (
        wire.is_boundary_header(msg.header)
        and frozenset({src, dst}) in top.grid_links
    ):
        return [dst]
    return tree_path(top, src, dst)


def max_tree_hops(top: Topology) -> int:
    """Worst-case tree distance between any two leaves."""
    best = 0
    cap = 2 * top.height
    for i, a in enumerate(top.leaves):
        for b in top.leaves[i + 1 :]:
            best = max(best, len(tree_path(top, a, b)))
            if best == cap:
                return best
    return best
