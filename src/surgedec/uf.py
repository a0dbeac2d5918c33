"""Union-find decoder with suspendable clusters.

Clusters grow synchronously in half-edge steps around defects, merge when a
fully grown edge joins them, and stop ("suspend") when they reach an open
face, i.e. an interface whose far side has not been decoded yet.  Suspended
clusters keep their frontier so growth can resume after the face is fused or
committed.  Peeling a spanning forest of the grown edges turns resolved
clusters into correction edges; defects are consumed on peel, so repeated
peel passes over a long-lived state stay consistent under XOR accounting.

A cluster's entry in the boundary map (bnd) is its contact with the real
boundary; its entry in the suspension map (contacts) holds its contact on
each open face it reached.  Committing a face drains the clusters suspended
on it: each is peeled through its contact on that face, which never enters
bnd, so a later merge cannot sink through a crossing that was never
committed.

Each open face the state grew onto has a touch list (touched): the edges
grown onto it, appended by grow_round as it suspends the cluster.  Every
face edge with growth 1 or 2 is on the list, so joining a face (fuse)
unions only the listed edges that reached a full edge, in edge id order,
and never reads the face's edge table; absorbing a face
reads its committed crossings from the list too.  A face with no list was
never reached: joining or absorbing it only changes its status, so an
empty block costs nothing beyond its faces.

Dense ids.  A vertex is its rank and an edge its id, the graph's small
ints (see graph); a vertex's neighbours are read from the graph's
rank-indexed cache, which one fill builds whole, so no read checks
for a missing entry.  Callers pass vertex ids to the constructor, which
converts them with one numpy search (graph.ranks), and ranks to
add_block, as graph.ranks_by_block groups them.  defects, correction and
absorb_face hand vertex ids and (u, v) edge keys back.  Wherever the
kernel breaks a tie by edge it uses the edge id order, which on a face is
the sorted key order: contacts keep the smallest (vertex, edge) pair, fuse
unions a face's grown edges in id order, and touch lists keep the order
the edges were grown in.

Tables.  A cluster's parent and each edge's growth live in flat tables
(UfTables), as a hardware unit's memories do: parent, size and parity are
indexed by rank, growth by edge id, so growth holds len(vertex_array()) << 3
entries.  parent[v] is -1 while no state holds v.  size and parity are read
only at roots; a non-root's entry is stale, left from when it was a root or
from an earlier decode.  Each state lists the vertices it takes (taken), in
the order it takes them.  A bare UfState and decode_region build their own
tables.  The window pipeline, and the fusion plan that runs on its loop,
build one set per decoder and hand it to every unit's rolling state; a run
clears it first, growth with one zero fill and parent over the last run's
taken lists, so clearing never depends on the last run having finished.  The
sharing is sound because a pipeline's unit states partition the graph: an
inbound seam face is walled on the downstream unit and open only on the
upstream one, which grows its edges and absorbs it, and a temporal face
joins two windows of the same unit, so no vertex is held, and no edge
grown, by two unit states of one run.  Tables belong to a decoder, never to
a graph: two decoders of one graph never share them.  The per-cluster maps
(bnd, contacts, frontier), the grown-edge lists (grown_adj) and the touch
lists stay keyed by root, vertex and face.

Growth order.  Clusters grow in ascending root order each round, and each
cluster visits its frontier, a list, front to back.  A seeded defect
starts its own one-vertex list.  A vertex a round reaches for the first
time is a one-vertex cluster unioned into the grower, and a union appends
the absorbed cluster's list to the kept one's, so a new vertex goes to the
end of its cluster's list (unless it ties a lone root on size and, with
the smaller rank, becomes the root: then the old list follows it).  A
round keeps each list's still-pending vertices in their order.  The visit
order fixes the order of the round's unions, and so every root and every
grown_adj list, whose order fixes the spanning forest a peel walks.  The
hot loops inline _find, _adopt and _union with the same effect.

A state's face statuses are set when it is built, for every block it
will hold (merge_statuses joins the blocks' maps and rejects a face they
disagree on).  Every block decodes inside a settled state that may already
hold other blocks (add_block): its defects seed new clusters, and only
they grow, because the state has no live cluster and a face open on both
sides stays open until fuse joins it.  A block with no defects is never
added, since its faces already hold their statuses.  The window
pipeline builds each unit's rolling state with the statuses of all the
unit's windows, adds each window that has defects and then joins the
faces the window fuses: the temporal face to the window before, or, in
the fusion plan's one state with every face open, every face after the
last block.  A face the state never grew onto has no touch list, so
joining it only drops its status and absorbing it only walls it: an idle
window costs one status change.  grow_iterations counts every round the
state grew.

One state holds both sides of a face that is not joined yet, so a block
must decode as it would alone, blind to whatever the far side grew.  Two
rules see to that.  A vertex stays in its frontier while a round grows
one of its edges from nothing (it is pending), and also while it grows an
open-face edge that the far side already grew to 1, which a block alone
would have found ungrown.  And a cluster suspends only on the face
edges it grew itself: touching an edge whose far endpoint another cluster
holds leaves that cluster as it is, so a contact made from the far side
never keeps a cluster from waking when its own face is joined.

Face statuses understood by a state:
  'open':  shared face whose far side is not decoded yet; clusters
           reaching it suspend.
  'wall':  sealed interface; its edges are ignored entirely.
A face absent from the map is an ordinary interior interface.
"""

from __future__ import annotations

import numpy as np

from .graph import DecodingGraph


class UfTables:
    """One decoder's flat tables over a graph: parent, size and parity
    indexed by rank, growth by edge id.

    parent[v] is v's parent rank, -1 while no state holds v; size[r] and
    parity[r] are read only while r is a root, and are stale otherwise;
    growth[e] is 0, 1 (half grown) or 2 (fully grown).
    """

    def __init__(self, graph: DecodingGraph):
        n = len(graph.vertex_array())
        self.parent = [-1] * n
        self.size = [0] * n
        self.parity = bytearray(n)
        self.growth = bytearray(n << 3)

    def clear(self, states):
        """Forget every vertex the given states took and every edge grown."""
        # one fill in place: a zero bytes object to copy from costs an
        # allocation, and on a large graph page faults, per clear
        np.frombuffer(self.growth, dtype=np.uint8).fill(0)
        parent = self.parent
        for st in states:
            for v in st.taken:
                parent[v] = -1


class UfState:
    """Decoder state for one or more blocks of the decoding graph.

    The state is bounded by its faces, not by a vertex set: every edge that
    leaves a block lies on a shared face, and face_status maps each such
    face to 'open' or 'wall' (no statuses means the whole graph).  It is
    given at construction for every block the state will hold, copied,
    and mutated as faces get fused or sealed.  defects are vertex ids.
    tables are the decoder's UfTables, cleared, which the state may share
    with states that hold none of its vertices and grow none of its edges;
    without them the state builds its own.
    """

    def __init__(self, graph: DecodingGraph, defects, face_status=None, tables=None):
        self.graph = graph
        self.face_status = dict(face_status or {})
        if tables is None:
            tables = UfTables(graph)
        self.parent = tables.parent   # rank -> parent rank, -1 if not held
        self.size = tables.size       # root -> cluster size
        self.parity = tables.parity   # root -> defect parity
        self.growth = tables.growth   # edge -> 0..2
        self.taken = []      # vertices this state holds, in the order taken
        self.bnd = {}        # root -> min (vertex, edge) real-boundary contact
        self.contacts = {}   # root -> {open face: min (vertex, edge)}, never empty
        self.frontier = {}   # root -> [vertices with ungrown edges], growth order
        self.grown_adj = {}  # vertex -> [(other, edge)] fully grown internal
        self.touched = {}    # open face -> [edges grown onto it]
        self.live = set()
        self.defect_ranks = set()    # defects not peeled yet
        self.correction_ids = set()  # emitted edges, XOR-accumulated
        self.grow_iterations = 0
        if defects:
            self._seed(graph.ranks(defects))

    @property
    def defects(self) -> set:
        """Vertex ids of the defects not peeled yet."""
        item = self.graph.vertex_array().item
        return {item(v) for v in self.defect_ranks}

    @property
    def correction(self) -> set:
        """Edge keys of the correction emitted so far."""
        return set(self.graph.edge_keys(self.correction_ids))

    def _seed(self, ranks):
        """Seed each defect as a one-vertex odd cluster."""
        add_defect, add_live, take = self.defect_ranks.add, self.live.add, self.taken.append
        parent, size, parity, frontier = self.parent, self.size, self.parity, self.frontier
        for v in ranks:
            add_defect(v)
            parent[v] = v
            take(v)
            size[v] = 1
            parity[v] = 1
            frontier[v] = [v]
            add_live(v)

    def add_block(self, ranks):
        """Decode a block inside this settled state.

        ranks are the block's defects as graph.ranks gives them; the
        block's face statuses are the state's own, set when it was built.
        The defects are seeded as new clusters, and the state settles and
        peels.  The state holds no vertex of the block and no live
        cluster, so only the block's clusters grow, and a face open on
        both sides stays open until fuse joins it.  The block's defect and
        correction sets start empty and merge in at the end, as a block
        decoded alone would, so the peel walks the block's defects, not
        every defect still suspended in the state.
        """
        if self.live:
            raise ValueError("add_block needs a settled state")
        if not ranks:
            return
        outer = self.defect_ranks, self.correction_ids
        self.defect_ranks, self.correction_ids = set(), set()
        self._seed(ranks)
        self.settle()
        self.peel_resolved()
        block = self.defect_ranks, self.correction_ids
        self.defect_ranks, self.correction_ids = outer
        self.defect_ranks |= block[0]
        self.correction_ids ^= block[1]

    def _find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def _alive(self, root: int) -> bool:
        return bool(self.parity[root]) and root not in self.bnd and root not in self.contacts

    def _union(self, a: int, b: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return a
        # weighted union; equal sizes keep the smaller rank as root
        size = self.size
        sa, sb = size[a], size[b]
        if sa < sb or (sa == sb and b < a):
            a, b = b, a
        parent[b] = a
        size[a] = sa + sb
        parity = self.parity
        parity[a] ^= parity[b]
        bnd = self.bnd
        cb = bnd.pop(b, None)
        if cb is not None:
            ca = bnd.get(a)
            bnd[a] = cb if ca is None or cb < ca else ca
        contacts = self.contacts
        kb = contacts.pop(b, None)
        if kb:
            ka = contacts.setdefault(a, {})
            for face, c in kb.items():
                if face not in ka or c < ka[face]:
                    ka[face] = c
        frontier = self.frontier
        frontier[a] += frontier.pop(b)
        live = self.live
        live.discard(b)
        if parity[a] and a not in bnd and a not in contacts:
            live.add(a)
        else:
            live.discard(a)
        return a

    def _adopt(self, v: int):
        if self.parent[v] < 0:
            self.parent[v] = v
            self.taken.append(v)
            self.size[v] = 1
            self.parity[v] = 0
            self.frontier[v] = [v]

    def grow_round(self) -> bool:
        """One synchronized half-edge growth step for all active clusters.

        A round that grows no edge while clusters are live would repeat
        forever: every live cluster is odd and walled in, with no real
        boundary or open face left to reach, so it raises ValueError.
        """
        live = self.live
        if not live:
            return False
        graph = self.graph
        cache = graph._cache()  # every vertex's entry, built whole
        fs = self.face_status
        growth = self.growth
        frontier = self.frontier
        full = []
        push = full.append
        for root in sorted(live):
            keep = []
            for v in frontier[root]:
                pending = False
                # boundary entries never carry a face
                it = iter(cache[v])
                for eid, other, face in zip(it, it, it):
                    if face is not None:
                        status = fs.get(face)
                        if status == 'wall':
                            continue
                        if status is None:
                            face = None
                    g = growth[eid]
                    if not g:
                        growth[eid] = 1
                        pending = True
                        # an open face suspends on first touch: growing any
                        # further would outrun the undecoded far side
                        if face is not None:
                            push((eid, v, other, face))
                    elif g == 1:
                        growth[eid] = 2
                        push((eid, v, other, face))
                        # the far side grew this open-face edge, which only a
                        # state holding both sides sees: the vertex stays
                        # pending, as a standalone block's first touch would
                        if face is not None:
                            pending = True
                if pending:
                    keep.append(v)
            frontier[root] = keep
        if not full and not any(frontier[r] for r in live):
            vid = graph.vertex_array().item(min(live))
            raise ValueError(f"odd cluster at {vid:#x} is walled in: "
                             "no real boundary or open face to reach")
        self.grow_iterations += 1
        parent = self.parent
        size = self.size
        bnd = self.bnd
        contacts = self.contacts
        adj = self.grown_adj
        touched = self.touched
        take = self.taken.append
        for eid, v, other, face in full:
            root = v
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            if face is not None:
                touched.setdefault(face, []).append(eid)
                c = (v, eid)
                cm = contacts.get(root)
                if cm is None:
                    cm = contacts[root] = {}
                cur = cm.get(face)
                if cur is None or c < cur:
                    cm[face] = c
                live.discard(root)
            elif other < 0:
                c = (v, eid)
                cur = bnd.get(root)
                if cur is None or c < cur:
                    bnd[root] = c
                live.discard(root)
            else:
                adj.setdefault(v, []).append((other, eid))
                if parent[other] >= 0:
                    adj.setdefault(other, []).append((v, eid))
                    self._union(root, other)
                elif root < other or size[root] > 1:
                    # a new vertex joins the cluster as _union would: it
                    # brings no parity, contact or grown edge, so the
                    # root's liveness stands, and it goes to the end of
                    # the root's frontier
                    parent[other] = root
                    take(other)
                    size[root] += 1
                    adj[other] = [(v, eid)]
                    frontier[root].append(other)
                else:
                    # a lone root ties with the new vertex on size, and the
                    # smaller rank wins
                    self._adopt(other)
                    adj[other] = [(v, eid)]
                    self._union(root, other)
        return True

    def settle(self) -> int:
        rounds = 0
        while self.grow_round():
            rounds += 1
        return rounds

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
        # each vertex but start has one tree edge, emitted at most once
        emitted = set()
        emit = emitted.add
        mark = defs.copy()
        for v in order[:0:-1]:
            if v in mark:
                up, eid = parent_edge[v]
                emit(eid)
                if up in mark:
                    mark.remove(up)
                else:
                    mark.add(up)
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
        parent = self.parent
        by_root = {}
        for v in self.defect_ranks:
            root = v
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            defs = by_root.get(root)
            if defs is None:
                by_root[root] = {v}
            else:
                defs.add(v)
        return by_root

    def peel_resolved(self):
        """Peel every cluster that is even or touches the real boundary.

        Odd clusters suspended on open faces keep their defects for later.
        """
        parity = self.parity
        bnd = self.bnd
        for root, defs in sorted(self._defects_by_root().items()):
            if not parity[root] or root in bnd:
                self._peel(root, defs, bnd.get(root))

    def _drop_face(self, face) -> dict:
        """Remove face from every cluster's contacts; returns root -> contact."""
        out = {}
        contacts = self.contacts
        for root, cm in list(contacts.items()):
            c = cm.pop(face, None)
            if c is not None:
                out[root] = c
                if not cm:
                    del contacts[root]
        return out

    def absorb_face(self, face) -> set:
        """Seal an open face and drain the clusters suspended on it.

        The state must be settled and peeled, as add_block and fuse leave
        it; a state with live clusters raises ValueError.  Each
        cluster suspended on the face with defects left is peeled through
        its recorded contact edge there, and the face becomes a wall, so no
        cluster keeps a contact on it.  Returns the edge keys of the emitted
        edges that cross the face (the committed crossings).
        """
        if self.face_status.get(face) != 'open':
            raise ValueError(f"face {face} is not open")
        if self.live:
            raise ValueError("absorb_face needs a settled state")
        self.face_status[face] = 'wall'
        eids = self.touched.pop(face, None)
        if eids is None:
            return set()
        held = self._drop_face(face)
        if not held:
            return set()
        emitted = set()
        for root, defs in self._defects_by_root().items():
            if root in held:
                emitted |= self._peel(root, defs, held[root])
        # a crossing is a contact on the face, so it is on the touch list
        return set(self.graph.edge_keys(emitted.intersection(eids)))


def fuse(state: UfState, face):
    """Join an open face whose two sides both decoded in state.

    The face leaves the status map.  The edges on its touch list that
    reached a full edge are unioned in edge id order (on a face, sorted key
    order), the clusters suspended on the face wake, and the state settles
    and peels if anything was unioned or woke.  A face the state never grew
    onto costs only its status.
    """
    fs = state.face_status
    if fs.get(face) != 'open':
        raise ValueError(f"face {face} is not open")
    del fs[face]
    keys = state.touched.pop(face, None)
    grown = ()
    if keys:
        growth = state.growth
        grown = sorted({k for k in keys if growth[k] >= 2})
        adj = state.grown_adj
        ends = state.graph.edge_ends
        for eid in grown:
            u, w = ends(eid)
            state._adopt(u)
            state._adopt(w)
            adj.setdefault(u, []).append((w, eid))
            adj.setdefault(w, []).append((u, eid))
            state._union(u, w)
        for root in state._drop_face(face):
            if state._alive(root):
                state.live.add(root)
    if grown or state.live:
        state.settle()
        state.peel_resolved()


def region_vids(graph: DecodingGraph) -> dict:
    """Vertex ids of every (patch, epoch) block, in block order.

    Decoding does not need it: a vertex's block is graph.block_of
    arithmetic, which is how the vertex array is grouped here.
    """
    out = {}
    block_of = graph.block_of
    for v in graph.vertex_array().tolist():
        out.setdefault(block_of(v), []).append(v)
    return {bid: frozenset(out[bid]) for bid in sorted(out)}


def face_statuses(block, walls) -> dict:
    """A block's face statuses: faces in walls are sealed, the rest open."""
    return {f: 'wall' if f in walls else 'open' for f in block.faces}


def merge_statuses(maps) -> dict:
    """One state's face-status map from the maps of the blocks it will
    hold; a face that two maps give different statuses raises ValueError."""
    out = {}
    for fs in maps:
        for f, st in fs.items():
            if out.setdefault(f, st) != st:
                raise ValueError(f"face {f} has conflicting statuses")
    return out


def decode_region(graph: DecodingGraph, defects) -> UfState:
    """Decode the whole graph as a single region (the global baseline).

    It has no set-up, so on a graph whose adjacency cache no decoder's
    set-up has filled, its first call pays the whole fill (DecodingGraph):
    0.21-0.26 s on a 1600-epoch d=5 stream graph (2-vCPU VM) against about
    1 ms after.  Sampling (EdgeTable) does not fill the cache."""
    state = UfState(graph, defects)
    state.settle()
    state.peel_resolved()
    return state


def cut_parities(graph: DecodingGraph, edges) -> dict:
    """Per-patch parity of the given edges along each logical cut."""
    out = {}
    for ekey in edges:
        p = graph.cut_patch(ekey)
        if p is not None:
            out[p] = out.get(p, 0) ^ 1
    return out
