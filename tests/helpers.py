"""Helpers shared by the test modules."""

import weakref
from types import SimpleNamespace

import numpy as np

from surgedec import wire
from surgedec.fusion import fuse
from surgedec.graph import EAST, WEST, _SEAM_COL, carve_blocks, face_edges, pack_vid, unpack_vid
from surgedec.netsim import TraceResult
from surgedec.topology import route
from surgedec.uf import UfState, face_statuses, merge_statuses


def is_merged(graph, s, rnd):
    """Whether seam s is merged at round rnd, read off its merge intervals."""
    return any(a <= rnd < b for a, b in graph.merge_intervals(s))


def kind_of(graph, ekey):
    """An edge key's kind: boundary, time, seam-time, seam-space, space-h
    or space-v."""
    u, v = ekey
    if v < 0:
        return "boundary"
    pu, ru, rowu, _ = unpack_vid(u)
    pv, rv, roww, _ = unpack_vid(v)
    seam = pu >= graph.layout.n_patches or pv >= graph.layout.n_patches
    if ru != rv:
        return "seam-time" if seam else "time"
    if seam:
        return "seam-space"
    return "space-h" if rowu == roww else "space-v"


def face_of(graph, ekey):
    """The face the graph's cache tags an edge key with, None for a
    boundary edge; an edge the graph lacks raises ValueError."""
    u, v = ekey
    if v < 0:
        return None
    for k, _, face in triples(neighbors(graph, u)):
        if k == ekey:
            return face
    raise ValueError(f"unknown edge {ekey}")


def neighbors(graph, vid):
    """Edges at a vertex id as one flat tuple of (edge key, other,
    face_id) entries, other a vertex id or WEST/EAST, in the order of
    graph.adjacency(); built from the cached entry on every call.  A vertex
    id the graph does not hold raises ValueError.
    """
    rank = graph.ranks((vid,))[0]
    item = graph.vertex_array().item
    out = []
    it = iter(graph.adjacency(rank))
    for eid, other, face in zip(it, it, it):
        ov = item(other) if other >= 0 else other
        out += (vid, ov) if eid >> 3 == rank else (ov, vid), ov, face
    return tuple(out)


def face_keys(graph, face):
    """A face's edge keys, in the order of its ids (face_edges)."""
    return tuple(graph.edge_keys(face_edges(graph, face)))


def n_nodes(topology):
    """The number of nodes in a topology."""
    return len(topology.children)


def opcode_of(header):
    """A message header's opcode, its high nibble."""
    return header >> 4


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
            if is_merged(graph, s, rnd):
                for row in range(nrows):
                    yield pack_vid(spid, rnd, row, _SEAM_COL)


def ref_block_of(graph, vid):
    """(patch, epoch) of a vertex from its unpacked fields; a seam vertex
    belongs to its seam's Layout.owner."""
    p, rnd, _, _ = unpack_vid(vid)
    n = graph.layout.n_patches
    if p >= n:
        p = graph.layout.owner[p - n]
    return (p, rnd // graph.d)


def ref_region_vids(graph):
    """(patch, epoch) -> frozenset of vertex ids, one vertex at a time."""
    out = {}
    for v in ref_vertices(graph):
        out.setdefault(ref_block_of(graph, v), set()).add(v)
    return {bid: frozenset(vids) for bid, vids in out.items()}


def triples(nb):
    """A flat neighbors tuple as its list of (edge key, other, face)."""
    it = iter(nb)
    return list(zip(it, it, it))


def ref_adjacency(graph, vid):
    """A vertex's (edge key, other, face) entries, built one vertex at a time,
    flattened into the graph's one-tuple format.

    The per-vertex builder the graph's slab fill replaced, kept as the slow
    reference: it reads only the layout and the merge intervals, never the
    graph's cache.  An edge between a patch and a merged seam carries the
    seam face unless the patch is the seam's Layout.owner, and a seam's
    time edges carry its owner's temporal faces.
    """
    p, rnd, row, col = unpack_vid(vid)
    lay = graph.layout
    d = graph.d

    def seam_face(s, patch):
        si = lay.seam_index(s)
        return None if lay.owner[si] == patch else ("s", si, rnd // d)
    entries = []
    if p < lay.n_patches:
        # west
        if col > 0:
            u = pack_vid(p, rnd, row, col - 1)
            entries.append(((u, vid), u, None))
        else:
            s = lay.side_seam(p, "w")
            if s is not None and is_merged(graph, s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, row, _SEAM_COL)
                entries.append(((vid, u), u, seam_face(s, p)))
            else:
                entries.append(((vid, WEST), WEST, None))
        # east
        if col < d - 2:
            u = pack_vid(p, rnd, row, col + 1)
            entries.append(((vid, u), u, None))
        else:
            s = lay.side_seam(p, "e")
            if s is not None and is_merged(graph, s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, row, _SEAM_COL)
                entries.append(((vid, u), u, seam_face(s, p)))
            else:
                entries.append(((vid, EAST), EAST, None))
        # north
        if row > 0:
            u = pack_vid(p, rnd, row - 1, col)
            entries.append(((u, vid), u, None))
        else:
            s = lay.side_seam(p, "n")
            if s is not None and is_merged(graph, s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, col, _SEAM_COL)
                entries.append(((vid, u), u, seam_face(s, p)))
        # south
        if row < d - 1:
            u = pack_vid(p, rnd, row + 1, col)
            entries.append(((vid, u), u, None))
        else:
            s = lay.side_seam(p, "s")
            if s is not None and is_merged(graph, s, rnd):
                u = pack_vid(graph.seam_pid(s), rnd, col, _SEAM_COL)
                entries.append(((vid, u), u, seam_face(s, p)))
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
        own = lay.owner[lay.seam_index(s)]
        if not is_merged(graph, s, rnd):
            raise ValueError(f"seam vertex at inactive round {rnd}: {s}")
        if s.orient == "ew":
            ua = pack_vid(s.patch_a, rnd, row, d - 2)
            ub = pack_vid(s.patch_b, rnd, row, 0)
        else:
            ua = pack_vid(s.patch_a, rnd, d - 1, row)
            ub = pack_vid(s.patch_b, rnd, 0, row)
        entries.append(((ua, vid), ua, seam_face(s, s.patch_a)))
        entries.append(((ub, vid), ub, seam_face(s, s.patch_b)))
        if rnd > 0 and is_merged(graph, s, rnd - 1):
            u = pack_vid(p, rnd - 1, row, _SEAM_COL)
            face = ("t", own, rnd // d) if rnd % d == 0 else None
            entries.append(((u, vid), u, face))
        if rnd < graph.rounds - 1 and is_merged(graph, s, rnd + 1):
            u = pack_vid(p, rnd + 1, row, _SEAM_COL)
            face = ("t", own, (rnd + 1) // d) if (rnd + 1) % d == 0 else None
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


def ref_trace(pipe, topology, latency, node_of, instructions, result):
    """A run's TraceResult, timed the way Replayer.trace did before its
    timing constants were fixed at set-up; kept as the slow reference.

    Every call re-derives the cascade from the groups (group g decodes
    epoch k-(g-1) and commits epoch k-g in slot k, groups in order 1, 2, 3),
    routes each send, packs every commit with the wire codec to count its
    words, counts the events one by one and sorts the rows at the end.
    """
    meas, cond = {}, {}
    for ins in instructions:
        if ins.op == "measure":
            meas.setdefault((ins.patch, ins.epoch), []).append(ins.forward_node)
        else:
            cond.setdefault((ins.patch, ins.epoch), []).append(ins)
    depth_of = {n: topology.depth(n) for n in topology.children}
    units = sorted(pipe.groups)
    link = latency.t_link_ns
    slot_ns = pipe.graph.d * latency.t_round_ns
    send_map = {}
    for _, src, dst, info in result.sends:
        send_map.setdefault((src, info.face[2]), []).append((dst, info))

    free = dict.fromkeys(units, 0)
    arrival = {}
    decode_start = {}
    rows = []
    commit_ns = {}
    depth_series = [0] * pipe.slots
    feedback_ns = {}
    instr_arrival = []
    n_events = len(units) * pipe.slots

    for k in range(pipe.slots):
        due = (k + 1) * slot_ns
        for g in (1, 2, 3):
            e_dec, e_com = (e if 0 <= e < pipe.epochs else None
                            for e in (k - (g - 1), k - g))
            if e_dec is None and e_com is None:
                continue
            for u in units:
                if pipe.groups[u] != g:
                    continue
                start = max(due, free[u])
                dur = 0
                n_events += 1
                if e_dec is not None:
                    for f in pipe.windows[(u, e_dec)].walls:
                        t = arrival.get(f)
                        if t is None:
                            raise AssertionError(
                                f"unit {u} stalled at slot {k} without {f}")
                        start = max(start, t)
                    dur = latency.decode_ns(result.iters[(u, e_dec)])
                    depth = (start - due) // slot_ns
                    depth_series[k] = max(depth_series[k], depth)
                    decode_start[(u, e_dec)] = start
                    rows.append((e_dec, u, start + dur - (e_dec + 1) * slot_ns,
                                 dur / pipe.graph.d, depth))
                    n_events += 1
                done = free[u] = start + dur
                if e_com is None:
                    continue
                commit_ns[(u, e_com)] = done
                sends = send_map.get((u, e_com), ())
                for dst, info in sends:
                    words = wire.encode_boundary_info(info, pipe.graph, node_of[dst])
                    msg = wire.Message(node_of[dst], wire.boundary_header(0), 0)
                    hops = len(route(topology, msg, node_of[u]))
                    arrival[info.face] = (done + hops * link
                                          + (len(words) - 1) * latency.t_cycle_ns)
                at_root = done + depth_of[node_of[u]] * link
                forwards = meas.get((u, e_com), ())
                if forwards:
                    feedback_ns[(u, e_com)] = at_root + max(depth_of[n] for n in forwards) * link
                conds = cond.get((u, e_com), ())
                for ins in conds:
                    for pid in (ins.seam.patch_a, ins.seam.patch_b):
                        instr_arrival.append(((pid, ins.merge_epoch),
                                              at_root + depth_of[node_of[pid]] * link))
                n_events += 2 + len(sends) + len(forwards) + 2 * len(conds)

    margin = min((decode_start[key] - t for key, t in instr_arrival
                  if key[1] is not None and 0 <= key[1] < pipe.epochs), default=None)
    first_g3 = min((t for (u, _), t in commit_ns.items() if pipe.groups[u] == 3),
                   default=None)
    g3_lat = None if first_g3 is None else first_g3 - slot_ns
    rows.sort(key=lambda r: (r[0], r[1]))
    return TraceResult(rows, commit_ns, first_g3, g3_lat, depth_series,
                       feedback_ns, margin, n_events)


def decode_blocks(graph, parts):
    """One state built with the merged face statuses of every (block,
    defect ids[, face statuses]) of parts, each block's faces all open by
    default, and each block with defects added in place, in order."""
    st = UfState(graph, (), merge_statuses(
        statuses[0] if statuses else face_statuses(blk, ()) for blk, _, *statuses in parts))
    for _, defects, *_ in parts:
        if defects:
            st.add_block(graph.ranks(defects))
    return st


def one_state_plan(plan, defects):
    """The loop FusionPlan.decode ran before the plan became a schedule of
    the pipeline's slot loop, kept as the reference: one UfState in fresh
    tables with every face open, each block with defects added in carve
    order, then every face fused in the plan's fuse_order.  Returns the
    state and the faces that had a touch list when they were fused."""
    graph = plan.graph
    by_block = {}
    for v in defects:
        by_block.setdefault(graph.block_of(v), []).append(v)
    st = decode_blocks(graph, [(blk, by_block.get(blk.block_id, ()))
                               for blk in carve_blocks(graph)])
    touched = []
    for face in plan.fuse_order:
        if face in st.touched:
            touched.append(face)
        fuse(st, face)
    return st, touched


def rank_of(graph, vid):
    """The rank of one vertex id."""
    return graph.ranks((vid,))[0]


def ref_edge_id(graph, ekey, ranks):
    """An edge key's id, derived from the key's geometry alone: the rank
    of its lower endpoint (ranks maps ids to ranks) shifted by 3, or'ed
    with the edge's side at that endpoint (west 0, east 1, north 2,
    south 3, future 4)."""
    u, w = ekey
    if w < 0:
        side = 0 if w == WEST else 1
    else:
        pu, ru, rowu, _ = unpack_vid(u)
        pw, rw, roww, _ = unpack_vid(w)
        n = graph.layout.n_patches
        if ru != rw:
            side = 4
        elif pw < n:
            side = 1 if rowu == roww else 3
        else:
            s = graph.layout.seams[pw - n]
            if s.orient == "ew":
                side = 1 if pu == s.patch_a else 0
            else:
                side = 3 if pu == s.patch_a else 2
    return ranks[u] << 3 | side


def edge_id(graph, ekey):
    """The id of one edge key, by ref_edge_id."""
    return ref_edge_id(graph, ekey, {ekey[0]: rank_of(graph, ekey[0])})


class _RefTables:
    """Rank order and per-rank entries of one graph, built one vertex at a
    time from ref_vertices, ref_adjacency and ref_edge_id."""

    def __init__(self, graph):
        self.graph = graph
        self.vids = list(ref_vertices(graph))
        self.ranks = {v: r for r, v in enumerate(self.vids)}
        self._entries = {}

    def entries(self, rank):
        """(edge id, other rank or WEST/EAST, face) per edge at a rank."""
        out = self._entries.get(rank)
        if out is None:
            ranks = self.ranks
            out = self._entries[rank] = [
                (ref_edge_id(self.graph, ekey, ranks),
                 ranks[other] if other >= 0 else other, face)
                for ekey, other, face in triples(ref_adjacency(self.graph,
                                                               self.vids[rank]))]
        return out


_REF_TABLES = weakref.WeakKeyDictionary()


def ref_tables(graph):
    """The graph's _RefTables, built once per graph; the graph must not be
    merged afterwards."""
    tables = _REF_TABLES.get(graph)
    if tables is None:
        tables = _REF_TABLES[graph] = _RefTables(graph)
    return tables


def decode_block(graph, block, defects, face_status=None):
    """Decode one carved block alone, in a state of its own; returns it.

    With fuse_states, the two-state path that blocks decoded in place
    (UfState.add_block) replaced, kept as the reference.  face_status
    maps the block's faces (every face open when omitted), and every
    defect must lie in the block.
    """
    bid = block.block_id
    for v in defects:
        if graph.block_of(v) != bid:
            raise ValueError(f"defect {v} outside block {bid}")
    if face_status is None:
        face_status = face_statuses(block, ())
    elif len(face_status) != len(block.faces):
        raise ValueError(f"face statuses {face_status!r} do not map the faces of "
                         f"block {bid}")
    state = RefUfState(graph, defects, face_status)
    state.settle()
    state.peel_resolved()
    return state


def fuse_states(a, b, face):
    """Fuse the open face between two states decoded apart; returns a.

    Both states keep their maps in dicts (RefUfState).  b's bookkeeping,
    touch lists, growth rounds and face statuses merge into a, the growth
    of an edge grown from both sides sums (capped at a full edge), and
    fusion.fuse joins the face.  b must be discarded afterwards.
    """
    if a.graph is not b.graph:
        raise ValueError("states decode different graphs")
    if a.face_status.get(face) != 'open' or b.face_status.get(face) != 'open':
        raise ValueError(f"face {face} is not open on both sides")
    for f, status in b.face_status.items():
        if a.face_status.setdefault(f, status) != status:
            raise ValueError(f"face {f} has conflicting statuses")
    a.parent.update(b.parent)
    a.size.update(b.size)
    a.parity.update(b.parity)
    a.bnd.update(b.bnd)
    a.contacts.update(b.contacts)
    a.frontier.update(b.frontier)
    a.grown_adj.update(b.grown_adj)
    a.defect_ranks |= b.defect_ranks
    a.correction_ids ^= b.correction_ids
    a.live |= b.live
    a.grow_iterations += b.grow_iterations
    growth, bg = a.growth, b.growth
    both = [(eid, growth[eid]) for eid in bg if eid in growth]
    growth.update(bg)
    for eid, cur in both:
        growth[eid] = min(2, cur + bg[eid])
    for f, eids in b.touched.items():
        a.touched.setdefault(f, []).extend(eids)
    fuse(a, face)
    return a


def map_view(state):
    """What a state's parent, size, parity and growth hold, in one form
    whether they are dicts (RefUfState) or flat tables (UfState): each held
    vertex mapped to its root, each root's size and parity, and each grown
    edge with its growth.  A table's growth is every edge grown in it, so
    for states sharing one table (a Pipeline's unit states) it is theirs
    together."""
    if isinstance(state.parent, dict):
        held = state.parent
        grown = {eid: g for eid, g in state.growth.items() if g}
    else:
        held = state.taken
        growth = state.growth
        grown = {eid: growth[eid] for eid in
                 np.flatnonzero(np.frombuffer(growth, dtype=np.uint8)).tolist()}
    roots = {v: state._find(v) for v in held}
    tops = set(roots.values())
    return (roots, {r: state.size[r] for r in tops}, {r: state.parity[r] for r in tops},
            grown)


def grown_union(states):
    """Every edge the states grew, with its growth (map_view)."""
    out = {}
    for st in states:
        out.update(map_view(st)[3])
    return out


class RefUfState(UfState):
    """UfState with the kernel bodies the inlined ones replaced, kept as the
    slow reference: its parent, size, parity and growth are the dicts the
    flat tables replaced, keyed by rank and edge id (a tables argument is
    ignored), finds and aliveness go through _find and _alive, every
    vertex a round reaches is adopted before it is unioned, peeling
    toggles by symmetric difference, and a vertex's edges come from
    ref_tables, not the graph's cache.  It keeps the kernel's growth order
    (frontier lists visited front to back, a union appending the absorbed
    list to the kept one, a round keeping its pending vertices in order)
    and its two rules for a state that holds both sides of an open face: a
    vertex stays in its frontier while it has an edge it grew from nothing
    this round, or an open-face edge the far side already grew; and
    growing onto an open face suspends the growing cluster alone, never
    the far endpoint's.
    """

    def __init__(self, graph, defects, face_status=None, tables=None):
        super().__init__(graph, defects, face_status,
                         SimpleNamespace(parent={}, size={}, parity={}, growth={}))

    def _adopt(self, v: int):
        if v not in self.parent:
            self.parent[v] = v
            self.size[v] = 1
            self.parity[v] = 0
            self.frontier[v] = [v]

    def _suspend(self, v: int, eid, face):
        root = self._find(v)
        cm = self.contacts.setdefault(root, {})
        c = (v, eid)
        if face not in cm or c < cm[face]:
            cm[face] = c
        self.live.discard(root)

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        # weighted union; equal sizes keep the smaller rank as root
        if self.size[ra] < self.size[rb] or (self.size[ra] == self.size[rb] and rb < ra):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size.pop(rb)
        self.parity[ra] ^= self.parity.pop(rb)
        cb = self.bnd.pop(rb, None)
        if cb is not None:
            ca = self.bnd.get(ra)
            self.bnd[ra] = cb if ca is None or cb < ca else ca
        kb = self.contacts.pop(rb, None)
        if kb:
            ka = self.contacts.setdefault(ra, {})
            for face, c in kb.items():
                if face not in ka or c < ka[face]:
                    ka[face] = c
        self.frontier[ra] = self.frontier[ra] + self.frontier.pop(rb)
        self.live.discard(rb)
        if self._alive(ra):
            self.live.add(ra)
        else:
            self.live.discard(ra)
        return ra

    def grow_round(self) -> bool:
        """One synchronized half-edge growth step for all active clusters.

        A round that grows no edge while clusters are live would repeat
        forever: every live cluster is odd and walled in, with no real
        boundary or open face left to reach, so it raises ValueError.
        """
        if not self.live:
            return False
        tables = ref_tables(self.graph)
        fs = self.face_status
        growth = self.growth
        full = []
        for root in sorted(self.live):
            fr = self.frontier[root]
            drop = []
            for v in fr:
                pending = 0
                for eid, other, face in tables.entries(v):
                    # boundary entries never carry a face
                    if face is not None:
                        status = fs.get(face)
                        if status == 'wall':
                            continue
                        if status is None:
                            face = None
                    g = growth.get(eid, 0)
                    if g >= 2:
                        continue
                    growth[eid] = g + 1
                    # an open-face edge the far side grew keeps the vertex
                    # pending, as a first touch does
                    if not g or face is not None:
                        pending += 1
                    # an open face suspends on first touch: growing any
                    # further would outrun the undecoded far side
                    if g or face is not None:
                        full.append((eid, v, other, face))
                if not pending:
                    drop.append(v)
            self.frontier[root] = [v for v in fr if v not in drop]
        if not full and not any(self.frontier[r] for r in self.live):
            raise ValueError(f"odd cluster at {tables.vids[min(self.live)]:#x} is "
                             "walled in: no real boundary or open face to reach")
        self.grow_iterations += 1
        adj = self.grown_adj
        touched = self.touched
        for eid, v, other, face in full:
            if face is not None:
                touched.setdefault(face, []).append(eid)
                self._suspend(v, eid, face)
            elif other < 0:
                root = self._find(v)
                c = (v, eid)
                cur = self.bnd.get(root)
                if cur is None or c < cur:
                    self.bnd[root] = c
                self.live.discard(root)
            else:
                self._adopt(other)
                adj.setdefault(v, []).append((other, eid))
                adj.setdefault(other, []).append((v, eid))
                self._union(v, other)
        return True

    def _peel(self, root: int, defs: set, contact) -> set:
        """Peel one resolved cluster through contact; returns the emitted edges.

        contact is a (vertex, edge) sink, or None for an even cluster.
        """
        if contact is None:
            if self.parity[root]:
                raise ValueError("odd cluster has no absorbing contact")
            start = min(defs)
            sink = None
        else:
            start, sink = contact
        adj = self.grown_adj
        order = [start]
        parent_edge = {start: None}
        for v in order:
            for other, eid in adj.get(v, ()):
                if other not in parent_edge:
                    parent_edge[other] = (v, eid)
                    order.append(other)
        emitted = set()
        mark = defs.copy()
        for v in reversed(order):
            if v in mark and v != start:
                up, eid = parent_edge[v]
                emitted ^= {eid}
                mark.symmetric_difference_update((up,))
        if start in mark:
            if sink is None:
                raise ValueError("unmatched defect after peeling")
            emitted ^= {sink}
        self.defect_ranks -= defs
        self.parity[root] = 0
        self.live.discard(root)
        self.correction_ids ^= emitted
        return emitted

    def _defects_by_root(self) -> dict:
        by_root = {}
        for v in self.defect_ranks:
            by_root.setdefault(self._find(v), set()).add(v)
        return by_root

    def peel_resolved(self):
        """Peel every cluster that is even or touches the real boundary.

        Odd clusters suspended on open faces keep their defects for later.
        """
        for root, defs in sorted(self._defects_by_root().items()):
            if not self.parity[root] or root in self.bnd:
                self._peel(root, defs, self.bnd.get(root))
