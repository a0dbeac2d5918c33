"""Helpers shared by the test modules."""

from surgedec.graph import EAST, WEST, _SEAM_COL, pack_vid, unpack_vid


def toggled_defects(edges):
    """Defects an edge set leaves, recounted by toggling its endpoints."""
    cnt = {}
    for a, b in edges:
        cnt[a] = cnt.get(a, 0) + 1
        if b >= 0:
            cnt[b] = cnt.get(b, 0) + 1
    return {v for v, c in cnt.items() if c % 2}


def ref_vertices(graph):
    """Every vertex id in packed-id order, enumerated one vertex at a time.

    The generator vertex_array() replaced, kept as the slow reference: it
    reads only the layout and the merge intervals.
    """
    d = graph.d
    for p in range(graph.layout.n_patches):
        for rnd in range(graph.rounds):
            for row in range(d):
                for col in range(d - 1):
                    yield pack_vid(p, rnd, row, col)
    for s in graph.layout.seams:
        spid = graph.seam_pid(s)
        nrows = d if s.orient == "ew" else d - 1
        for rnd in range(graph.rounds):
            if graph.is_merged(s, rnd):
                for row in range(nrows):
                    yield pack_vid(spid, rnd, row, _SEAM_COL)


def ref_block_of(graph, vid):
    """(patch, epoch) of a vertex from its unpacked fields; a seam vertex
    belongs to its seam's patch_a."""
    p, rnd, _, _ = unpack_vid(vid)
    n = graph.layout.n_patches
    if p >= n:
        p = graph.layout.seams[p - n].patch_a
    return (p, rnd // graph.d)


def ref_region_vids(graph):
    """(patch, epoch) -> frozenset of vertex ids, one vertex at a time."""
    out = {}
    for v in ref_vertices(graph):
        out.setdefault(ref_block_of(graph, v), set()).add(v)
    return {bid: frozenset(vids) for bid, vids in out.items()}


def triples(nb):
    """A flat neighbors() tuple as its list of (edge key, other, face)."""
    it = iter(nb)
    return list(zip(it, it, it))


def ref_adjacency(graph, vid):
    """A vertex's (edge key, other, face) entries, built one vertex at a time,
    flattened into the graph's one-tuple format.

    The per-vertex builder the graph's slab fill replaced, kept as the slow
    reference: it reads only the layout and the merge intervals, never the
    graph's cache.
    """
    p, rnd, row, col = unpack_vid(vid)
    lay = graph.layout
    d = graph.d
    entries = []
    if p < lay.n_patches:
        # west
        if col > 0:
            u = pack_vid(p, rnd, row, col - 1)
            entries.append(((u, vid), u, None))
        else:
            s = lay.side_seam(p, "w")
            if s is not None and graph.is_merged(s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, row, _SEAM_COL)
                entries.append(((vid, u), u, ("s", lay.seam_index(s), rnd // d)))
            else:
                entries.append(((vid, WEST), WEST, None))
        # east
        if col < d - 2:
            u = pack_vid(p, rnd, row, col + 1)
            entries.append(((vid, u), u, None))
        else:
            s = lay.side_seam(p, "e")
            if s is not None and graph.is_merged(s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, row, _SEAM_COL)
                entries.append(((vid, u), u, None))
            else:
                entries.append(((vid, EAST), EAST, None))
        # north
        if row > 0:
            u = pack_vid(p, rnd, row - 1, col)
            entries.append(((u, vid), u, None))
        else:
            s = lay.side_seam(p, "n")
            if s is not None and graph.is_merged(s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, col, _SEAM_COL)
                entries.append(((vid, u), u, ("s", lay.seam_index(s), rnd // d)))
        # south
        if row < d - 1:
            u = pack_vid(p, rnd, row + 1, col)
            entries.append(((vid, u), u, None))
        else:
            s = lay.side_seam(p, "s")
            if s is not None and graph.is_merged(s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, col, _SEAM_COL)
                entries.append(((vid, u), u, None))
        # time
        if rnd > 0:
            u = pack_vid(p, rnd - 1, row, col)
            face = ("t", p, rnd // d) if rnd % d == 0 else None
            entries.append(((u, vid), u, face))
        if rnd < graph.rounds - 1:
            u = pack_vid(p, rnd + 1, row, col)
            face = ("t", p, (rnd + 1) // d) if (rnd + 1) % d == 0 else None
            entries.append(((vid, u), u, face))
    else:
        s = lay.seams[p - lay.n_patches]
        si = lay.seam_index(s)
        if not graph.is_merged(s, rnd):
            raise ValueError(f"seam vertex at inactive round {rnd}: {s}")
        if s.orient == "ew":
            ua = pack_vid(s.patch_a, rnd, row, d - 2)
            ub = pack_vid(s.patch_b, rnd, row, 0)
        else:
            ua = pack_vid(s.patch_a, rnd, d - 1, row)
            ub = pack_vid(s.patch_b, rnd, 0, row)
        entries.append(((ua, vid), ua, None))
        entries.append(((ub, vid), ub, ("s", si, rnd // d)))
        if rnd > 0 and graph.is_merged(s, rnd - 1):
            u = pack_vid(p, rnd - 1, row, _SEAM_COL)
            face = ("t", s.patch_a, rnd // d) if rnd % d == 0 else None
            entries.append(((u, vid), u, face))
        if rnd < graph.rounds - 1 and graph.is_merged(s, rnd + 1):
            u = pack_vid(p, rnd + 1, row, _SEAM_COL)
            face = ("t", s.patch_a, (rnd + 1) // d) if (rnd + 1) % d == 0 else None
            entries.append(((vid, u), u, face))
    return tuple(x for entry in entries for x in entry)


def ref_edges(graph):
    """Every edge key once, in the graph's edge order, by deduplicating the
    reference adjacency: a vertex keeps its boundary edges, its same-round
    edges to higher ids and its edges into later rounds."""
    out = []
    for vid in ref_vertices(graph):
        rnd = unpack_vid(vid)[1]
        for ekey, other, _ in triples(ref_adjacency(graph, vid)):
            if other < 0:
                out.append(ekey)
                continue
            ornd = unpack_vid(other)[1]
            if ornd > rnd or (ornd == rnd and other > vid):
                out.append(ekey)
    return out
