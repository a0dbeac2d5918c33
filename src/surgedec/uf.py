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

Each open face the state grew onto has a touch list (touched): the edge
keys grown onto it, appended by grow_round as it suspends the cluster.
Every face edge with growth 1 or 2 is on the list, so joining a face
(join_face, which fuse calls) unions only the listed edges that reached a
full edge, in sorted key order, and never reads the face's edge table;
absorbing a face reads its committed crossings from the list too.  A face
with no list was never reached: joining it only merges face statuses, and
absorbing it only seals it, so an empty block costs nothing beyond its
faces.

Face statuses understood by a state:
  'open':  shared face whose far side is not decoded yet; clusters
           reaching it suspend.
  'wall':  sealed interface; its edges are ignored entirely.
A face absent from the map is an ordinary interior interface.
"""

from __future__ import annotations

from .graph import DecodingGraph


class UfState:
    """Decoder state for one or more blocks of the decoding graph.

    The state is bounded by its faces, not by a vertex set: every edge that
    leaves a block lies on a shared face, and face_status maps each such
    face to 'open' or 'wall' (no statuses means the whole graph).  It is
    mutated as faces get fused or sealed.
    """

    def __init__(self, graph: DecodingGraph, defects, face_status=None):
        self.graph = graph
        self.face_status = dict(face_status or {})
        self.parent = {}
        self.size = {}
        self.parity = {}
        self.bnd = {}        # root -> min (vertex, edge key) real-boundary contact
        self.contacts = {}   # root -> {open face: min (vertex, edge key)}, never empty
        self.frontier = {}   # root -> set of vertices with ungrown edges
        self.growth = {}     # edge key -> 0..2 (absent means 0)
        self.grown_adj = {}  # vertex -> [(other, edge key)] fully grown internal
        self.touched = {}    # open face -> [edge keys grown onto it]
        self.live = set()
        self.defects = set()
        self.correction = set()
        self.grow_iterations = 0
        for v in defects:
            self.defects.add(v)
            self.parent[v] = v
            self.size[v] = 1
            self.parity[v] = 1
            self.frontier[v] = {v}
            self.live.add(v)

    def _find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def _alive(self, root: int) -> bool:
        return bool(self.parity[root]) and root not in self.bnd and root not in self.contacts

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        # weighted union; equal sizes keep the smaller id as root
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
        fb = self.frontier.pop(rb)
        fa = self.frontier[ra]
        if len(fa) < len(fb):
            fa, fb = fb, fa
            self.frontier[ra] = fa
        fa.update(fb)
        self.live.discard(rb)
        if self._alive(ra):
            self.live.add(ra)
        else:
            self.live.discard(ra)
        return ra

    def _adopt(self, v: int):
        if v not in self.parent:
            self.parent[v] = v
            self.size[v] = 1
            self.parity[v] = 0
            self.frontier[v] = {v}

    def _suspend(self, v: int, ekey, face):
        root = self._find(v)
        cm = self.contacts.setdefault(root, {})
        c = (v, ekey)
        if face not in cm or c < cm[face]:
            cm[face] = c
        self.live.discard(root)

    def grow_round(self) -> bool:
        """One synchronized half-edge growth step for all active clusters.

        A round that grows no edge while clusters are live would repeat
        forever: every live cluster is odd and walled in, with no real
        boundary or open face left to reach, so it raises ValueError.
        """
        if not self.live:
            return False
        graph = self.graph
        fs = self.face_status
        growth = self.growth
        full = []
        for root in sorted(self.live):
            fr = self.frontier[root]
            drop = []
            for v in fr:
                pending = 0
                # boundary entries never carry a face
                it = iter(graph.neighbors(v))
                for ekey, other, face in zip(it, it, it):
                    if face is not None:
                        status = fs.get(face)
                        if status == 'wall':
                            continue
                        if status is None:
                            face = None
                    g = growth.get(ekey, 0)
                    if g >= 2:
                        continue
                    growth[ekey] = g + 1
                    if not g:
                        pending += 1
                    # an open face suspends on first touch: growing any
                    # further would outrun the undecoded far side
                    if g or face is not None:
                        full.append((ekey, v, other, face))
                if not pending:
                    drop.append(v)
            fr.difference_update(drop)
        if not full and not any(self.frontier[r] for r in self.live):
            raise ValueError(f"odd cluster at {min(self.live):#x} is walled in: "
                             "no real boundary or open face to reach")
        self.grow_iterations += 1
        adj = self.grown_adj
        touched = self.touched
        for ekey, v, other, face in full:
            if face is not None:
                touched.setdefault(face, []).append(ekey)
                self._suspend(v, ekey, face)
                if other in self.parent:
                    self._suspend(other, ekey, face)
            elif other < 0:
                root = self._find(v)
                c = (v, ekey)
                cur = self.bnd.get(root)
                if cur is None or c < cur:
                    self.bnd[root] = c
                self.live.discard(root)
            else:
                self._adopt(other)
                adj.setdefault(v, []).append((other, ekey))
                adj.setdefault(other, []).append((v, ekey))
                self._union(v, other)
        return True

    def settle(self) -> int:
        rounds = 0
        while self.grow_round():
            rounds += 1
        return rounds

    def _peel(self, root: int, defs: set, contact) -> set:
        """Peel one resolved cluster through contact; returns the emitted edges.

        contact is a (vertex, edge key) sink, or None for an even cluster.
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
            for other, ekey in adj.get(v, ()):
                if other not in parent_edge:
                    parent_edge[other] = (v, ekey)
                    order.append(other)
        emitted = set()
        mark = defs.copy()
        for v in reversed(order):
            if v in mark and v != start:
                up, ekey = parent_edge[v]
                emitted ^= {ekey}
                mark.symmetric_difference_update((up,))
        if start in mark:
            if sink is None:
                raise ValueError("unmatched defect after peeling")
            emitted ^= {sink}
        self.defects -= defs
        self.parity[root] = 0
        self.live.discard(root)
        self.correction ^= emitted
        return emitted

    def _defects_by_root(self) -> dict:
        by_root = {}
        for v in self.defects:
            by_root.setdefault(self._find(v), set()).add(v)
        return by_root

    def peel_resolved(self):
        """Peel every cluster that is even or touches the real boundary.

        Odd clusters suspended on open faces keep their defects for later.
        """
        for root, defs in sorted(self._defects_by_root().items()):
            if not self.parity[root] or root in self.bnd:
                self._peel(root, defs, self.bnd.get(root))

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

    def join_face(self, face, face_status):
        """Make an open face interior once its far side is in this state.

        face_status, the far side's face statuses, is merged in.  The
        edges on the face's touch list that reached a full edge are unioned
        in sorted key order, the clusters suspended on the face wake, and
        the state settles and peels if anything was unioned or woke.  A
        face the state never grew onto costs only the status merge.
        """
        fs = self.face_status
        if fs.get(face) != 'open' or face_status.get(face) != 'open':
            raise ValueError(f"face {face} is not open on both sides")
        for f, st in face_status.items():
            if fs.setdefault(f, st) != st:
                raise ValueError(f"face {f} has conflicting statuses")
        del fs[face]
        keys = self.touched.pop(face, None)
        grown = ()
        if keys:
            growth = self.growth
            grown = sorted({k for k in keys if growth[k] >= 2})
            adj = self.grown_adj
            for ekey in grown:
                u, w = ekey
                self._adopt(u)
                self._adopt(w)
                adj.setdefault(u, []).append((w, ekey))
                adj.setdefault(w, []).append((u, ekey))
                self._union(u, w)
            for root in self._drop_face(face):
                if self._alive(root):
                    self.live.add(root)
        if grown or self.live:
            self.settle()
            self.peel_resolved()

    def absorb_face(self, face) -> set:
        """Seal an open face and drain the clusters suspended on it.

        The state must be settled and peeled, as decode_block and fuse
        leave it; a state with live clusters raises ValueError.  Each
        cluster suspended on the face with defects left is peeled through
        its recorded contact edge there, and the face becomes a wall, so no
        cluster keeps a contact on it.  Returns the emitted edges that cross
        the face (the committed crossings).
        """
        if self.face_status.get(face) != 'open':
            raise ValueError(f"face {face} is not open")
        if self.live:
            raise ValueError("absorb_face needs a settled state")
        self.face_status[face] = 'wall'
        keys = self.touched.pop(face, None)
        if keys is None:
            return set()
        held = self._drop_face(face)
        emitted = set()
        if held:
            for root, defs in self._defects_by_root().items():
                if root in held:
                    emitted |= self._peel(root, defs, held[root])
        # a crossing is a contact on the face, so it is on the touch list
        return emitted.intersection(keys)


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


def defects_by_block(graph: DecodingGraph, blocks, defects) -> dict:
    """Block id -> the defects in that block, each list in input order.

    blocks holds the carved block ids; a defect whose block is not one of
    them, such as one at a round past the graph or with a patch id past the
    layout's patches and seams, raises ValueError.
    """
    out = {}
    for v in defects:
        try:
            bid = graph.block_of(v)
        except IndexError:  # patch id past every seam
            bid = None
        if bid not in blocks:
            raise ValueError(f"defect {v:#x} outside the carved blocks")
        out.setdefault(bid, []).append(v)
    return out


def decode_block(graph: DecodingGraph, block, defects, face_status=None) -> UfState:
    """Decode one carved block standalone and return its state.

    face_status is the block's face-status map, as face_statuses builds
    it: walls are sealed, and clusters reaching an open face suspend.  None
    leaves every face open.  The state copies the map, so callers build it
    once per block and pass the same one to every decode.  Growth never
    leaves the block because every edge out of it lies on one of its faces.
    """
    for v in defects:
        if graph.block_of(v) != block.block_id:
            raise ValueError(f"defect {v} outside block {block.block_id}")
    if face_status is None:
        face_status = face_statuses(block, ())
    elif len(face_status) != len(block.faces):
        raise ValueError(f"face statuses {face_status!r} do not map the faces of "
                         f"block {block.block_id}")
    state = UfState(graph, defects, face_status=face_status)
    if state.defects:
        state.settle()
        state.peel_resolved()
    return state


def face_statuses(block, walls) -> dict:
    """A block's face statuses: faces in walls are sealed, the rest open."""
    return {f: 'wall' if f in walls else 'open' for f in block.faces}


def decode_region(graph: DecodingGraph, defects) -> UfState:
    """Decode the whole graph as a single region (the global baseline)."""
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
