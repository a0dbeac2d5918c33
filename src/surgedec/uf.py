"""Union-find decoder with suspendable clusters.

Clusters grow synchronously in half-edge steps around defects, merge when a
fully grown edge joins them, and stop ("suspend") when they reach an open
face, i.e. an interface whose far side has not been decoded yet.  Suspended
clusters keep their frontier so growth can resume after the face is fused or
committed.  Peeling a spanning forest of the grown edges turns resolved
clusters into correction edges; defects are consumed on peel, so repeated
peel passes over a long-lived state stay consistent under XOR accounting.

Face statuses understood by a state:
  'open':  shared face whose far side is not decoded yet; clusters
           reaching it suspend.
  'wall':  sealed interface; its edges are ignored entirely.
A face absent from the map is an ordinary interior interface.
"""

from __future__ import annotations

from .graph import DecodingGraph, face_index


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
        self.bnd = {}        # root -> min (vertex, edge key) absorbing contact
        self.real = {}       # root -> min (vertex, edge key) real-boundary contact
        self.art = {}        # root -> set of open faces the cluster reached
        self.contacts = {}   # root -> {face: min (vertex, edge key)}
        self.frontier = {}   # root -> set of vertices with ungrown edges
        self.growth = {}     # edge key -> 0..2 (absent means 0)
        self.grown_adj = {}  # vertex -> [(other, edge key)] fully grown internal
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
        return bool(self.parity[root]) and root not in self.bnd and root not in self.art

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
        for contact in (self.bnd, self.real):
            cb = contact.pop(rb, None)
            if cb is not None:
                ca = contact.get(ra)
                contact[ra] = cb if ca is None or cb < ca else ca
        ab = self.art.pop(rb, None)
        if ab:
            self.art.setdefault(ra, set()).update(ab)
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
        self.art.setdefault(root, set()).add(face)
        cm = self.contacts.setdefault(root, {})
        c = (v, ekey)
        if face not in cm or c < cm[face]:
            cm[face] = c
        self.live.discard(root)

    def grow_round(self) -> bool:
        """One synchronized half-edge growth step for all active clusters."""
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
                for ekey, other, face in graph.neighbors(v):
                    if other >= 0:
                        if face is not None:
                            st = fs.get(face)
                            if st is not None:
                                if st == 'wall':
                                    continue
                                g = growth.get(ekey, 0)
                                if g >= 2:
                                    continue
                                growth[ekey] = g + 1
                                # suspend on first touch: growing any further
                                # here would outrun the undecoded far side
                                full.append((ekey, v, other, face))
                                if not g:
                                    pending += 1
                                continue
                    g = growth.get(ekey, 0)
                    if g >= 2:
                        continue
                    growth[ekey] = g + 1
                    if g:
                        full.append((ekey, v, other, None))
                    else:
                        pending += 1
                if not pending:
                    drop.append(v)
            fr.difference_update(drop)
        self.grow_iterations += 1
        adj = self.grown_adj
        for ekey, v, other, face in full:
            if face is not None:
                self._suspend(v, ekey, face)
                if other >= 0 and other in self.parent:
                    self._suspend(other, ekey, face)
            elif other < 0:
                root = self._find(v)
                c = (v, ekey)
                for contact in (self.bnd, self.real):
                    cur = contact.get(root)
                    if cur is None or c < cur:
                        contact[root] = c
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

    def _peel(self, root: int, defs: set) -> set:
        """Peel one resolved cluster; returns the emitted edge set."""
        contact = self.bnd.get(root)
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

    def peel_resolved(self) -> set:
        """Peel every cluster that is even or touches an absorbing boundary.

        Odd clusters suspended on open faces keep their defects for later.
        Returns the union of edges emitted by this pass.
        """
        by_root = {}
        for v in self.defects:
            by_root.setdefault(self._find(v), set()).add(v)
        out = set()
        for root in sorted(by_root):
            if self.parity[root] and root not in self.bnd:
                continue
            out |= self._peel(root, by_root[root])
        return out

    def release_face(self, face, absorb: bool):
        """Wake the clusters suspended on a face.

        With absorb, each cluster's recorded contact edge on the face
        becomes its absorbing boundary contact.  A cluster whose last
        suspending face this was rejoins live if it is still alive.
        """
        for root, faces in list(self.art.items()):
            if face not in faces:
                continue
            c = self.contacts[root].pop(face)
            if absorb:
                cur = self.bnd.get(root)
                if cur is None or c < cur:
                    self.bnd[root] = c
            faces.discard(face)
            if not faces:
                del self.art[root]
                if not self.contacts[root]:
                    del self.contacts[root]
                if self._alive(root):
                    self.live.add(root)

    def absorb_face(self, face) -> set:
        """Seal an open face as an absorbing sink and drain clusters into it.

        Suspended clusters touching the face are matched through their
        recorded contact edge; the face becomes a wall afterwards, so no
        cluster keeps a contact on it: a later merge would otherwise sink
        through a crossing that was never committed.  Returns the emitted
        edges that cross the face (the committed crossings).
        """
        if self.face_status.get(face) != 'open':
            raise ValueError(f"face {face} is not open")
        self.release_face(face, absorb=True)
        self.settle()
        emitted = self.peel_resolved()
        self.face_status[face] = 'wall'
        on_face = face_index(self.graph, face)
        for root, (_, ekey) in list(self.bnd.items()):
            if ekey in on_face:
                if root in self.real:
                    self.bnd[root] = self.real[root]
                else:
                    del self.bnd[root]
        return {k for k in emitted if k in on_face}


def region_vids(graph: DecodingGraph) -> dict:
    """Vertex ids of every (patch, epoch) block, from one pass over the graph."""
    block_of = graph.block_of
    out = {}
    for v in graph.vertices():
        out.setdefault(block_of(v), []).append(v)
    return {bid: frozenset(vids) for bid, vids in out.items()}


def decode_block(graph: DecodingGraph, block, defects, walls=()) -> UfState:
    """Decode one carved block standalone and return its state.

    Faces listed in walls are sealed; every other face of the block stays
    open, so clusters reaching it suspend.  Growth never leaves the block
    because every edge out of it lies on one of its faces.
    """
    for v in defects:
        if graph.block_of(v) != block.block_id:
            raise ValueError(f"defect {v} outside block {block.block_id}")
    fs = {f: 'wall' if f in walls else 'open' for f in block.faces}
    state = UfState(graph, defects, face_status=fs)
    state.settle()
    state.peel_resolved()
    return state


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
