"""Decoding graphs for lattice-surgery surface-code patches.

Z-type (primal) graph of an unrotated planar code: one detector vertex per
ancilla measurement round, one edge per independent error mechanism.  Logical
patches sit on a 2D grid; merging two patches inserts a line of seam vertices
per merged round and rewires the facing boundary edges, splitting restores
them.  Vertex ids pack (patch, round, row, col) so that sorting ids gives the
lexicographic order with seam vertices after all patches.
"""

from __future__ import annotations

from dataclasses import dataclass

# virtual endpoints of boundary edges
WEST = -1
EAST = -2

_COL_BITS = 8
_ROW_SHIFT = 8
_ROUND_SHIFT = 16
_PATCH_SHIFT = 40

# seam vertices reuse the col field with this marker value
_SEAM_COL = 0xFF


def pack_vid(patch: int, rnd: int, row: int, col: int) -> int:
    return (patch << _PATCH_SHIFT) | (rnd << _ROUND_SHIFT) | (row << _ROW_SHIFT) | col


def unpack_vid(vid: int) -> tuple[int, int, int, int]:
    return (
        vid >> _PATCH_SHIFT,
        (vid >> _ROUND_SHIFT) & 0xFFFFFF,
        (vid >> _ROW_SHIFT) & 0xFF,
        vid & 0xFF,
    )


@dataclass(frozen=True, order=True)
class Seam:
    """Potential merge boundary between two grid-adjacent patches.

    For "ew" seams patch_a is the west patch, for "ns" seams the north one.
    """

    patch_a: int
    patch_b: int
    orient: str  # "ew" | "ns"


class Layout:
    """Static arrangement of logical patches on a grid.

    Args:
        d: code distance, odd, >= 3.
        positions: patch id -> (grid_row, grid_col); ids must be 0..n-1.
        seams: optional explicit seam list; defaults to every adjacent pair.
    """

    def __init__(self, d: int, positions: dict[int, tuple[int, int]], seams=None):
        if d < 3 or d % 2 == 0:
            raise ValueError(f"d must be odd and >= 3, got {d}")
        n = len(positions)
        if sorted(positions) != list(range(n)):
            raise ValueError("patch ids must be consecutive integers from 0")
        if len(set(positions.values())) != n:
            raise ValueError("patch grid positions must be unique")
        self.d = d
        self.positions = dict(positions)
        self.n_patches = n
        self._at = {pos: pid for pid, pos in positions.items()}
        if seams is None:
            seams = self._adjacent_seams()
        self.seams = tuple(sorted(seams))
        self._seam_index = {s: i for i, s in enumerate(self.seams)}
        # patch side -> seam, sides named from the patch's own perspective
        self._side: dict[tuple[int, str], Seam] = {}
        for s in self.seams:
            self._validate_seam(s)
            if s.orient == "ew":
                self._side[(s.patch_a, "e")] = s
                self._side[(s.patch_b, "w")] = s
            else:
                self._side[(s.patch_a, "s")] = s
                self._side[(s.patch_b, "n")] = s

    def _adjacent_seams(self):
        seams = []
        for pid, (r, c) in sorted(self.positions.items()):
            east = self._at.get((r, c + 1))
            if east is not None:
                seams.append(Seam(pid, east, "ew"))
            south = self._at.get((r + 1, c))
            if south is not None:
                seams.append(Seam(pid, south, "ns"))
        return seams

    def _validate_seam(self, s: Seam) -> None:
        if s.patch_a == s.patch_b:
            raise ValueError(f"seam joins a patch to itself: {s}")
        if s.patch_a not in self.positions or s.patch_b not in self.positions:
            raise ValueError(f"seam references unknown patch: {s}")
        ra, ca = self.positions[s.patch_a]
        rb, cb = self.positions[s.patch_b]
        want = (ra, ca + 1) if s.orient == "ew" else (ra + 1, ca)
        if (rb, cb) != want:
            raise ValueError(f"patches of {s} are not adjacent in seam orientation")

    def seam_index(self, s: Seam) -> int:
        return self._seam_index[s]

    def side_seam(self, patch: int, side: str):
        """Seam on the given side of a patch ('w','e','n','s'), or None."""
        return self._side.get((patch, side))


def _face_seam(si: int, epoch: int) -> tuple:
    return ("s", si, epoch)


def _face_time(patch: int, epoch: int) -> tuple:
    return ("t", patch, epoch)


@dataclass(frozen=True)
class DecodingBlock:
    """One patch over one epoch of d rounds, bounded by its shared faces.

    faces holds the ids of the faces the block shares with its neighbours:
    the ('s', seam, epoch) faces of merged seams, then the ('t', patch,
    epoch) temporal faces to the previous and next epoch.  Every edge that
    leaves the block lies on one of them; the rest of the block's edges are
    internal or end on a real boundary.
    """

    patch: int
    epoch: int
    faces: tuple

    @property
    def block_id(self) -> tuple[int, int]:
        return (self.patch, self.epoch)


class DecodingGraph:
    """Dynamic decoding graph of a layout over a number of rounds.

    Adjacency is computed arithmetically from the lattice plus the current
    seam merge intervals, so large graphs never have to be materialised.
    Mutation (merge/split) requires exclusive access and invalidates cached
    adjacency near the touched rounds.
    """

    def __init__(self, layout: Layout, rounds: int):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.layout = layout
        self.d = layout.d
        self.rounds = rounds
        # seam -> sorted disjoint merge intervals [start, stop)
        self._merged: dict[Seam, list[list[int]]] = {s: [] for s in layout.seams}
        self._adj: dict[int, tuple] = {}

    # --- seam state ---------------------------------------------------

    def seam_pid(self, s: Seam) -> int:
        return self.layout.n_patches + self.layout.seam_index(s)

    def is_merged(self, s: Seam, rnd: int) -> bool:
        for a, b in self._merged[s]:
            if a <= rnd < b:
                return True
        return False

    def merge_intervals(self, s: Seam) -> list[tuple[int, int]]:
        return [tuple(iv) for iv in self._merged[s]]

    def merge(self, s: Seam, start: int, stop: int) -> None:
        if s not in self._merged:
            raise ValueError(f"seam not in layout: {s}")
        if start < 0 or stop > self.rounds:
            raise ValueError(f"merge range [{start}, {stop}) outside graph rounds")
        if stop <= start:
            return
        ivs = self._merged[s]
        for a, b in ivs:
            if start < b and stop > a:
                raise ValueError(f"seam already merged inside [{start}, {stop})")
        ivs.append([start, stop])
        ivs.sort()
        # coalesce back-to-back intervals so time edges span them
        out = [ivs[0]]
        for iv in ivs[1:]:
            if iv[0] == out[-1][1]:
                out[-1][1] = iv[1]
            else:
                out.append(iv)
        self._merged[s] = out
        self._evict_near(s, max(0, start - 1), stop)

    def split(self, s: Seam, rnd: int) -> None:
        if s not in self._merged:
            raise ValueError(f"seam not in layout: {s}")
        covered = self.is_merged(s, rnd - 1) if rnd > 0 else False
        covered = covered or any(b > rnd for _, b in self._merged[s])
        if not covered:
            raise ValueError(f"seam has no merged rounds at or after {rnd - 1}")
        kept = []
        for a, b in self._merged[s]:
            if b <= rnd:
                kept.append([a, b])
            elif a < rnd:
                kept.append([a, rnd])
        self._merged[s] = kept
        self._evict_near(s, max(0, rnd - 1), self.rounds)

    def _evict_near(self, s: Seam, lo: int, hi: int) -> None:
        """Drop cached adjacency of vertices whose edges a merge/split changes."""
        if not self._adj:
            return
        d = self.d
        spid = self.seam_pid(s)
        drop = []
        for rnd in range(lo, min(hi + 1, self.rounds)):
            if s.orient == "ew":
                for row in range(d):
                    drop.append(pack_vid(s.patch_a, rnd, row, d - 2))
                    drop.append(pack_vid(s.patch_b, rnd, row, 0))
                    drop.append(pack_vid(spid, rnd, row, _SEAM_COL))
            else:
                for c in range(d - 1):
                    drop.append(pack_vid(s.patch_a, rnd, d - 1, c))
                    drop.append(pack_vid(s.patch_b, rnd, 0, c))
                    drop.append(pack_vid(spid, rnd, c, _SEAM_COL))
        for vid in drop:
            self._adj.pop(vid, None)

    # --- adjacency ----------------------------------------------------

    def neighbors(self, vid: int) -> tuple:
        """Edges at a vertex as (edge_key, other, face_id) entries.

        other is a vertex id, or WEST/EAST for boundary edges.  face_id is
        None for intra-block edges, else the ('s'|'t', ...) face the edge
        belongs to.
        """
        cached = self._adj.get(vid)
        if cached is not None:
            return cached
        entries = self._build_adj(vid)
        self._adj[vid] = entries
        return entries

    def _build_adj(self, vid: int) -> tuple:
        p, rnd, row, col = unpack_vid(vid)
        lay = self.layout
        d = self.d
        entries = []
        if p < lay.n_patches:
            # west
            if col > 0:
                u = pack_vid(p, rnd, row, col - 1)
                entries.append(((u, vid), u, None))
            else:
                s = lay.side_seam(p, "w")
                if s is not None and self.is_merged(s, rnd):
                    u = pack_vid(self.seam_pid(s), rnd, row, _SEAM_COL)
                    entries.append(((vid, u), u, _face_seam(lay.seam_index(s), rnd // d)))
                else:
                    entries.append(((vid, WEST), WEST, None))
            # east
            if col < d - 2:
                u = pack_vid(p, rnd, row, col + 1)
                entries.append(((vid, u), u, None))
            else:
                s = lay.side_seam(p, "e")
                if s is not None and self.is_merged(s, rnd):
                    u = pack_vid(self.seam_pid(s), rnd, row, _SEAM_COL)
                    entries.append(((vid, u), u, None))
                else:
                    entries.append(((vid, EAST), EAST, None))
            # north
            if row > 0:
                u = pack_vid(p, rnd, row - 1, col)
                entries.append(((u, vid), u, None))
            else:
                s = lay.side_seam(p, "n")
                if s is not None and self.is_merged(s, rnd):
                    u = pack_vid(self.seam_pid(s), rnd, col, _SEAM_COL)
                    entries.append(((vid, u), u, _face_seam(lay.seam_index(s), rnd // d)))
            # south
            if row < d - 1:
                u = pack_vid(p, rnd, row + 1, col)
                entries.append(((vid, u), u, None))
            else:
                s = lay.side_seam(p, "s")
                if s is not None and self.is_merged(s, rnd):
                    u = pack_vid(self.seam_pid(s), rnd, col, _SEAM_COL)
                    entries.append(((vid, u), u, None))
            # time
            if rnd > 0:
                u = pack_vid(p, rnd - 1, row, col)
                face = _face_time(p, rnd // d) if rnd % d == 0 else None
                entries.append(((u, vid), u, face))
            if rnd < self.rounds - 1:
                u = pack_vid(p, rnd + 1, row, col)
                face = _face_time(p, (rnd + 1) // d) if (rnd + 1) % d == 0 else None
                entries.append(((vid, u), u, face))
        else:
            s = lay.seams[p - lay.n_patches]
            si = lay.seam_index(s)
            if not self.is_merged(s, rnd):
                raise ValueError(f"seam vertex at inactive round {rnd}: {s}")
            if s.orient == "ew":
                ua = pack_vid(s.patch_a, rnd, row, d - 2)
                ub = pack_vid(s.patch_b, rnd, row, 0)
            else:
                ua = pack_vid(s.patch_a, rnd, d - 1, row)
                ub = pack_vid(s.patch_b, rnd, 0, row)
            entries.append(((ua, vid), ua, None))
            entries.append(((ub, vid), ub, _face_seam(si, rnd // d)))
            if rnd > 0 and self.is_merged(s, rnd - 1):
                u = pack_vid(p, rnd - 1, row, _SEAM_COL)
                face = _face_time(s.patch_a, rnd // d) if rnd % d == 0 else None
                entries.append(((u, vid), u, face))
            if rnd < self.rounds - 1 and self.is_merged(s, rnd + 1):
                u = pack_vid(p, rnd + 1, row, _SEAM_COL)
                face = _face_time(s.patch_a, (rnd + 1) // d) if (rnd + 1) % d == 0 else None
                entries.append(((vid, u), u, face))
        return tuple(entries)

    # --- enumeration --------------------------------------------------

    def vertices(self):
        """All vertex ids, sorted by packed id (patch, round, row, col)."""
        return self.vertices_in_rounds(0, self.rounds)

    def edges(self):
        """All edge keys, deduplicated, in deterministic order."""
        return self.edges_in_rounds(0, self.rounds)

    def vertices_in_rounds(self, r0: int, r1: int):
        d = self.d
        for p in range(self.layout.n_patches):
            for rnd in range(r0, r1):
                for row in range(d):
                    for col in range(d - 1):
                        yield pack_vid(p, rnd, row, col)
        for s in self.layout.seams:
            spid = self.seam_pid(s)
            nrows = d if s.orient == "ew" else d - 1
            for rnd in range(r0, r1):
                if self.is_merged(s, rnd):
                    for row in range(nrows):
                        yield pack_vid(spid, rnd, row, _SEAM_COL)

    def edges_in_rounds(self, r0: int, r1: int):
        """Edges attributed to rounds [r0, r1).

        Same-round edges belong to their round; a time edge (r, r+1) belongs
        to round r, so the slices partition the full edge set and a slice is
        complete once the seam schedule up to round r1 is fixed.
        """
        for vid in self.vertices_in_rounds(r0, r1):
            rnd = unpack_vid(vid)[1]
            for ekey, other, _ in self.neighbors(vid):
                if other < 0:
                    yield ekey
                    continue
                ornd = unpack_vid(other)[1]
                if ornd == rnd:
                    if other > vid:
                        yield ekey
                elif ornd > rnd:
                    yield ekey

    def n_vertices(self) -> int:
        n = self.layout.n_patches * self.rounds * self.d * (self.d - 1)
        for s in self.layout.seams:
            nrows = self.d if s.orient == "ew" else self.d - 1
            for a, b in self._merged[s]:
                n += (b - a) * nrows
        return n

    # --- edge metadata ------------------------------------------------

    def kind_of(self, ekey: tuple[int, int]) -> str:
        u, v = ekey
        if v < 0:
            return "boundary"
        pu, ru, rowu, colu = unpack_vid(u)
        pv, rv, roww, colv = unpack_vid(v)
        seam = pu >= self.layout.n_patches or pv >= self.layout.n_patches
        if ru != rv:
            return "seam-time" if seam else "time"
        if seam:
            return "seam-space"
        return "space-h" if rowu == roww else "space-v"

    def cut_patch(self, ekey: tuple[int, int]):
        """Patch whose west logical cut this edge crosses, or None."""
        u, v = ekey
        if v == WEST:
            return unpack_vid(u)[0]
        if v < 0:
            return None
        pv = v >> _PATCH_SHIFT
        if pv >= self.layout.n_patches and (u >> _PATCH_SHIFT) < self.layout.n_patches:
            s = self.layout.seams[pv - self.layout.n_patches]
            if s.orient == "ew" and (u & 0xFF) == 0:
                return s.patch_b
        return None

    def face_of(self, ekey: tuple[int, int]):
        u, v = ekey
        if v < 0:
            return None
        for k, other, face in self.neighbors(u):
            if k == ekey:
                return face
        raise ValueError(f"unknown edge {ekey}")

    def block_of(self, vid: int) -> tuple[int, int]:
        """(patch, epoch) owning a vertex; seam vertices go with patch_a."""
        p, rnd, _, _ = unpack_vid(vid)
        if p >= self.layout.n_patches:
            p = self.layout.seams[p - self.layout.n_patches].patch_a
        return (p, rnd // self.d)


def build_patch_graph(d: int, rounds: int) -> DecodingGraph:
    """Decoding graph of a single isolated patch."""
    return DecodingGraph(Layout(d, {0: (0, 0)}), rounds)


def merge_patches(graph: DecodingGraph, seam: Seam, round_range: tuple[int, int]) -> DecodingGraph:
    """Activate a seam for [start, stop); mutates and returns the graph."""
    graph.merge(seam, round_range[0], round_range[1])
    return graph


def carve_blocks(graph: DecodingGraph) -> list[DecodingBlock]:
    """Partition the graph into per-patch, per-epoch decoding blocks.

    Requires the graph rounds to be a multiple of d and every merge interval
    to be epoch aligned, so each shared face belongs to exactly two blocks
    and every other side of a block is a real boundary.
    """
    lay = graph.layout
    d = graph.d
    if graph.rounds % d != 0:
        raise ValueError(f"rounds {graph.rounds} not a multiple of d={d}")
    for s in lay.seams:
        for a, b in graph.merge_intervals(s):
            if a % d or b % d:
                raise ValueError(f"merge [{a}, {b}) of {s} not epoch aligned")
    epochs = graph.rounds // d
    blocks = []
    for e in range(epochs):
        for p in range(lay.n_patches):
            faces = []
            for side in ("w", "e", "n", "s"):
                s = lay.side_seam(p, side)
                if s is not None and graph.is_merged(s, e * d):
                    faces.append(_face_seam(lay.seam_index(s), e))
            if e > 0:
                faces.append(_face_time(p, e))
            if e < epochs - 1:
                faces.append(_face_time(p, e + 1))
            blocks.append(DecodingBlock(p, e, tuple(faces)))
    return blocks


def face_edges(graph: DecodingGraph, face_id: tuple) -> list:
    """Edge keys of a shared face, deterministic order."""
    lay = graph.layout
    d = graph.d
    out = []
    if face_id[0] == "s":
        _, si, epoch = face_id
        s = lay.seams[si]
        spid = graph.seam_pid(s)
        nrows = d if s.orient == "ew" else d - 1
        for rnd in range(epoch * d, (epoch + 1) * d):
            if not graph.is_merged(s, rnd):
                continue
            for row in range(nrows):
                u = pack_vid(spid, rnd, row, _SEAM_COL)
                if s.orient == "ew":
                    ub = pack_vid(s.patch_b, rnd, row, 0)
                else:
                    ub = pack_vid(s.patch_b, rnd, 0, row)
                out.append((ub, u))
    else:
        _, p, epoch = face_id
        rnd = epoch * d
        if rnd <= 0 or rnd >= graph.rounds:
            raise ValueError(f"temporal face {face_id} outside the graph")
        for row in range(d):
            for col in range(d - 1):
                out.append((pack_vid(p, rnd - 1, row, col), pack_vid(p, rnd, row, col)))
        for side in ("e", "s"):
            s = lay.side_seam(p, side)
            if s is not None and graph.is_merged(s, rnd - 1) and graph.is_merged(s, rnd):
                spid = graph.seam_pid(s)
                nrows = d if s.orient == "ew" else d - 1
                for row in range(nrows):
                    out.append(
                        (pack_vid(spid, rnd - 1, row, _SEAM_COL), pack_vid(spid, rnd, row, _SEAM_COL))
                    )
    return out
