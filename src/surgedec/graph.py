"""Decoding graphs for lattice-surgery surface-code patches.

Z-type (primal) graph of an unrotated planar code: one detector vertex per
ancilla measurement round, one edge per independent error mechanism.  Logical
patches sit on a 2D grid; merging two patches inserts a line of seam vertices
per merged round and rewires the facing boundary edges.  A seam's merge
intervals are the whole surgery schedule: a split is where an interval
ends.  Which patch holds a merged seam is a layout fact, Layout.owner:
the owner's blocks hold the seam's vertices and its temporal faces the
seam's time edges, so the seam face lies between the seam rows and the
other patch.  The fill, block_of, ranks_by_block and the face tables all
read it there.  Vertex ids pack (patch, round, row, col) so that sorting
ids gives the lexicographic order with seam vertices after all patches.

Inside the library a vertex is its rank: its index in vertex_array(), the
sorted vertex ids, so ranks order vertices as ids do.  An edge is one
integer id, (rank of its lower endpoint) << 3 | direction, where the
direction is the edge's side at that endpoint: west 0, east 1, north 2,
south 3, future 4.  Edge ids therefore sort by lower endpoint first; a
shared face holds one edge per lower endpoint, so on a face they sort as
the edge keys (lower id, higher id) do.  WEST and EAST stay negative.
Edge keys and vertex ids are for callers: ranks() turns ids into ranks
where defects enter, and edge_keys() edge ids into keys where a
correction leaves.

A slab is the d(d-1) vertices of one (patch, round), or the vertices of
one merged (seam, round), and its edges follow from its shape (which sides
are merged seams, which time edges it has).  A patch slab's shape is
written down once, as a template that lists each vertex's adjacency entry
as indices into the slab's atoms (its ranks and its neighbours', its edge
ids, its faces), and both readers of the lattice take it from there.  Both
walk a patch's rounds as runs that share a shape.  The decoder's set-up
fills the adjacency cache by applying each slab's template to its atoms:
one fill, slab by slab in vertex order, into a fresh list that becomes the
graph's cache when it is whole, so the cache is either absent or complete;
any first read of an absent cache runs it.  The cache is a list indexed by
rank; a vertex's entry is one flat tuple of ints and faces (edge id, other
rank, face, edge id, other rank, face, ...), which readers take three at a
time.  It holds no edge key.  The sampler's arrays come from the same
templates applied to labels in place of atoms, which give one offset row
per edge: edge_rank_pairs broadcasts them over each run into int32 rank
rows, without the cache and without a Python object per edge.

The vertex set needs no walk at all: vertex_array() builds it by
broadcasting patches x rounds x rows x cols, plus each merged seam
interval, into a sorted numpy array, and keeps it until a merge.

A shared face's table is its sorted edge ids, so an edge's position on
a face needs no lookup table; face_edges reads them off the cache's face
tags.  Every edge of a seam face joins a seam row to the patch that does
not own the seam, and patch ranks sort below seam ranks, so its id names
the patch end (id >> 3) and edge_ends gives the seam end.  A merge drops
the adjacency cache, the vertex array and the face tables whole; the next
read rebuilds what it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

# virtual endpoints of boundary edges
WEST = -1
EAST = -2

_COL_BITS = 8
_ROW_SHIFT = 8
_ROUND_SHIFT = 16
_PATCH_SHIFT = 40

# seam vertices reuse the col field with this marker value
_SEAM_COL = 0xFF

# most edge keys DecodingGraph.edge_keys keeps at once
_KEY_MEMO = 1 << 12


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
        d: code distance, odd, 3 <= d <= 255.
        positions: patch id -> (grid_row, grid_col), both >= 0; ids must be
            0..n-1.

    The seams are every pair of grid-adjacent patches.  Two decisions of
    the decoder network are layout facts, made here and read everywhere
    else: group, patch -> its unit's cascade group 1..3, so that
    grid-adjacent patches never share one, and owner, seam index -> the
    patch whose block holds the seam's vertices and whose temporal faces
    hold the seam's time edges.
    """

    def __init__(self, d: int, positions: dict[int, tuple[int, int]]):
        if d < 3 or d % 2 == 0:
            raise ValueError(f"d must be odd and >= 3, got {d}")
        # a vertex id packs row and col in 8 bits each, and col 0xFF marks
        # seam vertices
        if d > 255:
            raise ValueError(f"d must be at most 255 to fit the vertex id, got {d}")
        n = len(positions)
        if sorted(positions) != list(range(n)):
            raise ValueError("patch ids must be consecutive integers from 0")
        if len(set(positions.values())) != n:
            raise ValueError("patch grid positions must be unique")
        # grid rows and columns count from 0: placement sizes the grid from
        # the largest of each and would wrap a negative one onto the far side
        if any(r < 0 or c < 0 for r, c in positions.values()):
            raise ValueError("patch grid positions must be non-negative")
        self.d = d
        self.positions = dict(positions)
        self.n_patches = n
        self._at = {pos: pid for pid, pos in positions.items()}
        self.seams = tuple(sorted(self._adjacent_seams()))
        self._seam_index = {s: i for i, s in enumerate(self.seams)}
        # patch side -> seam, sides named from the patch's own perspective
        self._side: dict[tuple[int, str], Seam] = {}
        for s in self.seams:
            if s.orient == "ew":
                self._side[(s.patch_a, "e")] = s
                self._side[(s.patch_b, "w")] = s
            else:
                self._side[(s.patch_a, "s")] = s
                self._side[(s.patch_b, "n")] = s
        # the diagonal stripe (2*row + col) mod 3 differs by 1 or 2 between
        # grid neighbours, and gives [1, 2, 3] on a 1x3 row
        self.group = {p: (2 * r + c) % 3 + 1 for p, (r, c) in sorted(self.positions.items())}
        self.owner = [s.patch_a for s in self.seams]

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

    def seam_index(self, s: Seam) -> int:
        return self._seam_index[s]

    def side_seam(self, patch: int, side: str):
        """Seam on the given side of a patch ('w','e','n','s'), or None."""
        return self._side.get((patch, side))


def _face_seam(si: int, epoch: int) -> tuple:
    return ("s", si, epoch)


def _face_time(patch: int, epoch: int) -> tuple:
    return ("t", patch, epoch)


# a process that sets up many graphs of one distance, such as a sweep,
# builds each shape's template once
@lru_cache(maxsize=128)
def _slab_template(d: int, west: bool, east: bool, north: bool, south: bool,
                   past: bool, future: bool) -> tuple:
    """(entries, owned, futures, kinds, offsets): a patch slab of this
    shape, described once.  Each side flag says whether that side's seam
    is merged at the slab's round; past and future whether the slab has
    time edges to the rounds below and above.

    entries holds one itemgetter per slab vertex, which picks the vertex's
    adjacency entry out of the slab's atoms: None, WEST, EAST, the west,
    east, north and south seam faces, the past and future faces, then
    these segments, each only where the shape has it: the slab's ranks,
    the ranks below and above it, the west, east, north and south seams'
    row ranks, its past edge ids, and last the edge ids the slab owns, in
    entry order.  owned lists those as (vertex, direction) pairs, so an
    owned id is the vertex's rank << 3 | direction, and futures gives the
    positions of its future edge ids among them, which the slab above
    takes as its past edge ids.  An edge into a merged seam carries its
    side's seam-face atom, which the fill sets to the seam's face where
    the patch does not own the seam (Layout.owner) and to None where it
    does.

    kinds and offsets, two read-only (K, 2) int32 arrays, are the rows
    edge_rank_pairs broadcasts: the getters applied to labels in place of
    the atoms, one row per edge a vertex owns, in entry order, with its
    lower end's and its other end's kind and offset.  An end of kind 0 is
    a patch vertex, offset from the slab's first rank; kind 1 is the
    boundary, its offset WEST or EAST; kinds 2-5 are the west, east,
    north and south seams, offset from the seam's row-0 rank.
    """
    n = d - 1
    size = d * n
    # a rank atom is labelled with its (kind, offset), an owned edge id
    # with its vertex, so a row is an entry whose id label is the vertex
    segments = (
        [(0, i) for i in range(size)],
        [(0, i - size) for i in range(size * past)],
        [(0, i + size) for i in range(size * future)],
        [(2, row) for row in range(d * west)],
        [(3, row) for row in range(d * east)],
        [(4, col) for col in range(n * north)],
        [(5, col) for col in range(n * south)],
        [None] * (size * past),
    )
    labels = [None, (1, WEST), (1, EAST), None, None, None, None, None, None]
    starts = []
    for seg in segments:
        starts.append(len(labels))
        labels += seg
    rank, below, above, wrow, erow, nrow, srow, pid = starts
    none, w, e, fw, fe, fn, fs, fp, ff = range(9)
    # (vertex, direction) of each edge id the slab owns, in entry order,
    # and each one's atom index: the owned ids are the atoms' last segment
    owned = {}

    def own(i, k):
        owned[i, k] = len(labels) + len(owned)
        return owned[i, k]
    ents = []
    for row in range(d):
        for col in range(n):
            i = row * n + col
            if col:
                ent = [owned[i - 1, 1], rank + i - 1, none]
            else:
                ent = [own(i, 0), wrow + row if west else w, fw]
            ent += (own(i, 1), rank + i + 1 if col < n - 1 else erow + row if east else e,
                    none if col < n - 1 else fe)
            if row:
                ent += owned[i - n, 3], rank + i - n, none
            elif north:
                ent += own(i, 2), nrow + col, fn
            if row < n:
                ent += own(i, 3), rank + i + n, none
            elif south:
                ent += own(i, 3), srow + col, fs
            if past:
                ent += pid + i, below + i, fp
            if future:
                ent += own(i, 4), above + i, ff
            ents.append(ent)
    labels += [i for i, _ in owned]
    entries = [itemgetter(*ent) for ent in ents]
    rows = []
    for i, get in enumerate(entries):
        it = iter(get(labels))
        rows += [((0, i), other) for owner, other, _ in zip(it, it, it) if owner == i]
    futures = [j for j, (_, k) in enumerate(owned) if k == 4]
    # (K, lower end and other end, kind and offset)
    ends = np.array(rows, dtype=np.int32)
    ends.flags.writeable = False
    return (tuple(entries), tuple(owned), tuple(futures),
            ends[..., 0], ends[..., 1])


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

    @cached_property
    def block_id(self) -> tuple[int, int]:
        return (self.patch, self.epoch)


class DecodingGraph:
    """Dynamic decoding graph of a layout over a number of rounds.

    Adjacency follows from the lattice plus the current seam merge
    intervals: each patch slab's entries are its shape's template applied
    to the slab's atoms, cached per vertex rank as one flat tuple, and the
    vertex set is computed by vertex_array() alone.  The first read of the
    cache when there is none fills all of it, not just the part it reads;
    a Pipeline's and a FusionPlan's set-up make that read, so their
    decodes never pay the fill.  The edge list (edge_rank_pairs, and
    edges() over it) is read off the same templates and neither reads nor
    fills the cache.  Mutation (merge) requires exclusive access and drops
    the cached adjacency, vertex array and face tables whole.
    """

    def __init__(self, layout: Layout, rounds: int):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if rounds > 1 << 24:
            raise ValueError(f"rounds must be at most 2**24 to fit the vertex id's "
                             f"24-bit round field, got {rounds}")
        self.layout = layout
        self.d = layout.d
        self.rounds = rounds
        # seam -> sorted disjoint merge intervals [start, stop)
        self._merged: dict[Seam, list[list[int]]] = {s: [] for s in layout.seams}
        # patch field of a vertex id -> the patch whose block holds the
        # vertex: a patch's own, a seam's owner (Layout.owner)
        self._owner = np.array([*range(layout.n_patches), *layout.owner], dtype=np.int64)
        # rank -> flat entry tuple, every vertex's, or None until filled
        self._adj: list | None = None
        self._vids: np.ndarray | None = None
        # per seam index, (start, stop, rank of row 0 at start) per interval
        self._seam_ranks: list | None = None
        self._keys: dict[int, tuple] = {}  # edge id -> key, see edge_keys
        # face id -> its sorted edge ids, see face_edges
        self._faces: dict[tuple, tuple] = {}

    # --- seam state ---------------------------------------------------

    def seam_pid(self, s: Seam) -> int:
        return self.layout.n_patches + self.layout.seam_index(s)

    def merge_intervals(self, s: Seam) -> list[tuple[int, int]]:
        return [tuple(iv) for iv in self._merged[s]]

    def merge(self, s: Seam, start: int, stop: int) -> None:
        """Activate seam s for rounds [start, stop); start == stop is a no-op.

        A range outside [0, rounds], one that stops before it starts, or
        one that overlaps a merged interval raises ValueError.
        """
        if s not in self._merged:
            raise ValueError(f"seam not in layout: {s}")
        if start < 0 or stop > self.rounds:
            raise ValueError(f"merge range [{start}, {stop}) outside graph rounds "
                             f"[0, {self.rounds}]")
        if stop < start:
            raise ValueError(f"merge range [{start}, {stop}) stops before it starts")
        if stop == start:
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
        self._adj = self._vids = self._seam_ranks = None
        self._keys.clear()
        self._faces.clear()

    # --- adjacency ----------------------------------------------------

    def ranks(self, vids) -> list:
        """Ranks of vertex ids, in input order; an id the graph does not
        hold, or one given twice, raises ValueError naming it."""
        return self._lookup(vids)[1].tolist()

    def ranks_by_block(self, vids) -> dict:
        """(patch, epoch) -> the ranks of the given vertex ids in that
        block, each list in input order: block_of and ranks() over the
        whole input in one numpy pass."""
        if not vids:
            return {}
        q, r = self._lookup(vids)
        epochs = -(-self.rounds // self.d)
        key = (self._owner[q >> _PATCH_SHIFT] * epochs
               + ((q >> _ROUND_SHIFT) & 0xFFFFFF) // self.d)
        out = {}
        for k, rank in zip(key.tolist(), r.tolist()):
            ranks = out.get(k)
            if ranks is None:
                out[k] = [rank]
            else:
                ranks.append(rank)
        return {divmod(k, epochs): ranks for k, ranks in out.items()}

    def _lookup(self, vids):
        """(int64 ids, their ranks) of vertex ids, raising ValueError for an
        id the graph does not hold or one given twice."""
        va = self.vertex_array()
        try:
            q = np.fromiter(vids, dtype=np.int64)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"vertex ids {vids!r} not in the graph") from exc
        # the search runs over the ids in sorted order, which reads the
        # vertex array front to back: twice as fast on a stream's defects
        order = q.argsort()
        qs = q[order]
        rs = va.searchsorted(qs)
        # an id the graph does not hold finds another id at its rank, and
        # an id given twice has its neighbour's rank
        bad = va.take(rs, mode="clip") != qs
        bad[1:] |= rs[1:] == rs[:-1]
        if np.count_nonzero(bad):
            i = bad.argmax()
            why = "not in the graph" if va.take(rs[i], mode="clip") != qs[i] else "given twice"
            raise ValueError(f"vertex {int(qs[i]):#x} {why}")
        r = np.empty_like(order)
        r[order] = rs
        return q, r

    def adjacency(self, rank: int) -> tuple:
        """A vertex's cached entry.

        One flat tuple of (edge id, other rank, face_id) entries; read it
        three at a time.  other is WEST/EAST for boundary edges.  face_id
        is None for intra-block edges, else the ('s'|'t', ...) face the
        edge belongs to.  Patch entries run west, east, north, south, past,
        future; seam entries a-side, b-side, past, future.
        """
        return self._cache()[rank]

    def edge_ends(self, eid: int) -> tuple[int, int]:
        """(lower rank, other rank or WEST/EAST) of an edge id."""
        rank = eid >> 3
        nb = self.adjacency(rank)
        return rank, nb[3 * nb[::3].index(eid) + 1]

    def edge_keys(self, eids) -> list:
        """Edge keys (lower id, higher id or WEST/EAST) of edge ids.

        The keys the memo does not hold are built in one pass: their lower
        ids with one take from the vertex array, their other ends from
        edge_ends, then their ids with a second take.  The memo
        keeps at most _KEY_MEMO keys and starts over when the new ones
        would not fit, so the decodes of a small graph share one tuple per
        edge and a long run on a large graph keeps no more.
        """
        eids = list(eids)
        keys = self._keys
        out = list(map(keys.get, eids))
        if all(out):  # every key is a 2-tuple, so only a miss is false
            return out
        miss = [i for i, key in enumerate(out) if key is None]
        new = [eids[i] for i in miss]
        va = self.vertex_array()
        lower = va.take(np.array(new, dtype=np.int64) >> 3).tolist()
        other = np.array([self.edge_ends(eid)[1] for eid in new], dtype=np.int64)
        higher = np.where(other >= 0, va.take(other, mode="clip"), other).tolist()
        built = list(zip(lower, higher))
        for i, key in zip(miss, built):
            out[i] = key
        if len(keys) + len(new) > _KEY_MEMO:
            keys.clear()
        if len(new) <= _KEY_MEMO:
            keys.update(zip(new, built))
        return out

    def _cache(self) -> list:
        """The adjacency cache, filled whole if there is none."""
        if self._adj is None:
            self._adj = self._fill_cache()
        return self._adj

    def _seam_interval_ranks(self) -> list:
        """Per seam index, (start, stop, rank of its row-0 vertex at start)
        of each merged interval: seam vertices follow every patch vertex,
        seam by seam, interval by interval, round by round."""
        if self._seam_ranks is None:
            d = self.d
            base = self.layout.n_patches * self.rounds * d * (d - 1)
            out = []
            for s in self.layout.seams:
                nrows = d if s.orient == "ew" else d - 1
                ivs = []
                for a, b in self._merged[s]:
                    ivs.append((a, b, base))
                    base += (b - a) * nrows
                out.append(ivs)
            self._seam_ranks = out
        return self._seam_ranks

    def _patch_runs(self):
        """(patch, first round, stop round, sides) of each patch's runs of
        rounds that share a slab shape, patch by patch, round by round.
        A patch's runs split at every merge-interval end of its sides and
        before the last round, so a run's rounds have the same merged
        sides and the same future edges.  sides holds, per side (w, e, n,
        s), None or its merged seam's (index, row count, base): the seam's
        row-0 rank at round rnd is base + rnd * rows."""
        d = self.d
        lay = self.layout
        seam_ranks = self._seam_interval_ranks()
        for p in range(lay.n_patches):
            # per side (w, e, n, s), its seam's index, row count and
            # intervals, none where the patch has no seam
            sides = []
            for side in "wens":
                s = lay.side_seam(p, side)
                si = None if s is None else lay.seam_index(s)
                ivs = () if s is None else seam_ranks[si]
                sides.append((si, d if side in "we" else d - 1, ivs))
            cuts = sorted({0, self.rounds - 1, self.rounds,
                           *(r for _, _, ivs in sides for a, b, _ in ivs for r in (a, b))})
            for lo, hi in zip(cuts, cuts[1:]):
                yield p, lo, hi, tuple(
                    next(((si, rows, r0 - a * rows) for a, b, r0 in ivs if a <= lo < b), None)
                    for si, rows, ivs in sides)

    def _fill_cache(self) -> list:
        """Every vertex's entry, filled slab by slab in vertex order: each
        patch round by round, run by run (_patch_runs), then each merged
        seam interval.

        A patch slab's entries are its shape's template applied to the
        slab's atoms, built in the template's segment order.  Its ranks and
        past edge ids are the atoms the slab below made as its future ends
        and ids, so an edge id or a rank held at two entries is one object.
        """
        d = self.d
        size = d * (d - 1)
        rounds = self.rounds
        owner = self.layout.owner
        adj = [None] * len(self.vertex_array())
        for p, lo, hi, sides in self._patch_runs():
            future = lo < rounds - 1
            templates = [_slab_template(d, *(side is not None for side in sides), past, future)[:3]
                         for past in (False, True)]
            # the sides whose edges carry their seam's face: the merged
            # seams the patch does not own
            tagged = [(k, side[0]) for k, side in enumerate(sides)
                      if side is not None and owner[side[0]] != p]
            faces = [None] * 4
            for rnd in range(lo, hi):
                epoch = rnd // d
                for k, si in tagged:
                    faces[k] = _face_seam(si, epoch)
                r0 = (p * rounds + rnd) * size
                if rnd:
                    below, ranks, pids = ranks, above, fids
                else:
                    below, ranks, pids = [], list(range(r0, r0 + size)), []
                entries, owned, futures = templates[rnd > 0]
                above = [r + size for r in ranks] if future else []
                ids = [ranks[i] << 3 | k for i, k in owned]
                fids = [ids[j] for j in futures]
                atoms = [None, WEST, EAST, *faces,
                         _face_time(p, epoch) if rnd and rnd % d == 0 else None,
                         _face_time(p, epoch + 1) if (rnd + 1) % d == 0 else None,
                         *ranks, *below, *above]
                for _, nrows, base in filter(None, sides):
                    atoms += range(base + rnd * nrows, base + (rnd + 1) * nrows)
                atoms += pids
                atoms += ids
                adj[r0:r0 + size] = [get(atoms) for get in entries]
        self._fill_seam_slabs(adj)
        return adj

    def _fill_seam_slabs(self, adj: list) -> None:
        """Put the entries of every merged seam vertex into adj, interval
        by interval and round by round.  Intervals are coalesced, so a
        round has a past edge unless it starts its interval and a future
        edge unless it ends it.  The seam's owner (Layout.owner) holds its
        vertices: the edge to the owner is internal, the edge to the other
        patch carries the seam face, and the time edges carry the owner's
        temporal faces."""
        d = self.d
        size = d * (d - 1)
        lay = self.layout
        for si, (s, ivs) in enumerate(zip(lay.seams, self._seam_interval_ranks())):
            own = lay.owner[si]
            # an ew seam row meets the patches' rows, on the a-side's east and
            # the b-side's west; an ns seam row their columns, on the a-side's
            # south and the b-side's north
            if s.orient == "ew":
                nrows, step, adir, bdir, aoff = d, d - 1, 1, 0, d - 2
            else:
                nrows, step, adir, bdir, aoff = d - 1, 1, 3, 2, (d - 1) * (d - 1)
            for lo, hi, base in ivs:
                for rnd in range(lo, hi):
                    epoch = rnd // d
                    fseam = _face_seam(si, epoch)
                    fa, fb = (None, fseam) if own == s.patch_a else (fseam, None)
                    fpast = _face_time(own, epoch) if rnd > lo and rnd % d == 0 else None
                    ffut = _face_time(own, epoch + 1) if (rnd + 1) % d == 0 else None
                    a = (s.patch_a * self.rounds + rnd) * size + aoff
                    b = (s.patch_b * self.rounds + rnd) * size
                    v0 = base + (rnd - lo) * nrows
                    for row in range(nrows):
                        v, ua, ub = v0 + row, a + row * step, b + row * step
                        ent = [ua << 3 | adir, ua, fa, ub << 3 | bdir, ub, fb]
                        if rnd > lo:
                            ent += (v - nrows) << 3 | 4, v - nrows, fpast
                        if rnd < hi - 1:
                            ent += v << 3 | 4, v + nrows, ffut
                        adj[v] = tuple(ent)

    # --- enumeration --------------------------------------------------

    def vertex_array(self) -> np.ndarray:
        """All vertex ids as a sorted int64 array, computed by arithmetic.

        Patch vertices broadcast patches x rounds x rows x cols; each seam
        then adds rows x rounds for each of its merged intervals.  Patch
        ids precede seam ids and seams are in index order, so the pieces
        concatenate in packed-id order.  The array is read-only and kept
        until a merge.
        """
        if self._vids is not None:
            return self._vids
        d = self.d
        lay = self.layout
        i64 = np.int64
        cells = ((np.arange(d, dtype=i64) << _ROW_SHIFT)[:, None]
                 | np.arange(d - 1, dtype=i64)).ravel()
        rounds = np.arange(self.rounds, dtype=i64) << _ROUND_SHIFT
        pids = np.arange(lay.n_patches, dtype=i64) << _PATCH_SHIFT
        parts = [(pids[:, None, None] | rounds[:, None] | cells).ravel()]
        for s in lay.seams:
            rows = np.arange(d if s.orient == "ew" else d - 1, dtype=i64) << _ROW_SHIFT
            base = (self.seam_pid(s) << _PATCH_SHIFT) | _SEAM_COL
            for a, b in self._merged[s]:
                rounds = np.arange(a, b, dtype=i64) << _ROUND_SHIFT
                parts.append((base | rounds[:, None] | rows).ravel())
        arr = self._vids = np.concatenate(parts)
        arr.flags.writeable = False
        return arr

    def edges(self):
        """All edge keys, deduplicated, in deterministic order: the keys of
        edge_rank_pairs' rows."""
        vids = self.vertex_array().tolist()
        for u, w in self.edge_rank_pairs().tolist():
            yield vids[u], vids[w] if w >= 0 else w

    def edge_rank_pairs(self) -> np.ndarray:
        """Every edge once, as an int32 row (lower rank, other rank or
        WEST/EAST): patch slabs, patch by patch and round by round, then
        the future time edges of each merged seam interval, round by round.
        Within a slab the rows run in vertex order, each vertex's in the
        order of its adjacency entry (west, east, north, south, future),
        listing only the edges it is the lower end of; a seam-to-patch
        edge is listed at the patch vertex, which ranks below every seam
        vertex.

        No walk: a patch slab's rows are its shape's template rows.  Over
        a run of rounds that share a shape (_patch_runs), every end moves
        by a fixed step per round (the slab size, or a seam's row count),
        so a run is one broadcast into its own contiguous part of the
        output.  Reads neither the adjacency cache nor any vertex id.
        """
        d = self.d
        size = d * (d - 1)
        lay = self.layout
        seam_ranks = self._seam_interval_ranks()
        # (first round, stop round, step, start): the rows of round rnd are
        # step * rnd + start
        runs = []
        for p, lo, hi, sides in self._patch_runs():
            *_, kinds, offs = _slab_template(d, *(side is not None for side in sides),
                                             lo > 0, lo < self.rounds - 1)
            # per end kind (patch, boundary, then the w, e, n, s seam
            # rows), its rank step per round and its rank at round 0
            step, start = [size, 0], [p * self.rounds * size, 0]
            for side in sides:
                step.append(0 if side is None else side[1])
                start.append(0 if side is None else side[2])
            runs.append((lo, hi, np.array(step, dtype=np.int32)[kinds],
                         np.array(start, dtype=np.int32)[kinds] + offs))
        for s, ivs in zip(lay.seams, seam_ranks):
            rows = d if s.orient == "ew" else d - 1
            for a, b, base in ivs:
                # rounds a..b-2 of an interval have a future edge per row
                low = np.arange(base - a * rows, base - a * rows + rows, dtype=np.int32)
                runs.append((a, b - 1, np.full((rows, 2), rows, dtype=np.int32),
                             np.stack((low, low + rows), axis=1)))
        out = np.empty((sum((hi - lo) * len(st) for lo, hi, _, st in runs), 2), dtype=np.int32)
        at = 0
        for lo, hi, step, start in runs:
            block = out[at:at + (hi - lo) * len(start)].reshape(hi - lo, len(start), 2)
            np.multiply(np.arange(lo, hi, dtype=np.int32)[:, None, None], step, out=block)
            block += start
            at += (hi - lo) * len(start)
        return out

    # --- edge metadata ------------------------------------------------

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

    def cut_patches(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """cut_patch over arrays of edge endpoints, -1 where it gives None."""
        lay = self.layout
        cut = np.full(len(u), -1, dtype=np.int64)
        west = np.flatnonzero(v == WEST)
        cut[west] = u[west] >> _PATCH_SHIFT
        # an edge from a col-0 patch vertex into an ew seam crosses the cut
        # of the seam's east patch, which the merge moved onto the seam
        seam_base = lay.n_patches << _PATCH_SHIFT
        into = np.flatnonzero(v >= seam_base)
        cu = u[into]
        into = into[(cu < seam_base) & ((cu & 0xFF) == 0)]
        east_of = np.array([s.patch_b if s.orient == "ew" else -1 for s in lay.seams],
                           dtype=np.int64)
        cut[into] = east_of[(v[into] >> _PATCH_SHIFT) - lay.n_patches]
        return cut

    def block_of(self, vid: int) -> tuple[int, int]:
        """(patch, epoch) whose block holds a vertex; a seam vertex's patch
        is the seam's Layout.owner."""
        return (self._owner.item(vid >> _PATCH_SHIFT),
                ((vid >> _ROUND_SHIFT) & 0xFFFFFF) // self.d)


def merge_patches(graph: DecodingGraph, seam: Seam, round_range: tuple[int, int]) -> DecodingGraph:
    """Activate a seam for [start, stop); mutates and returns the graph."""
    graph.merge(seam, round_range[0], round_range[1])
    return graph


def carve_blocks(graph: DecodingGraph) -> list[DecodingBlock]:
    """Partition the graph into per-patch, per-epoch decoding blocks.

    Requires the graph rounds to be a multiple of d and every merge interval
    to be epoch aligned, so each shared face belongs to exactly two blocks
    and every other side of a block is a real boundary.  A block's seam
    faces are the merged sides of the patch run (_patch_runs) that holds
    its first round, in w, e, n, s order.
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
    # patch -> epoch -> its merged seams, read off the run that holds the
    # epoch's first round
    merged = [[()] * epochs for _ in range(lay.n_patches)]
    for p, lo, hi, sides in graph._patch_runs():
        a, b = -(-lo // d), -(-hi // d)
        merged[p][a:b] = [[side[0] for side in sides if side is not None]] * (b - a)
    blocks = []
    for e in range(epochs):
        for p in range(lay.n_patches):
            faces = [_face_seam(si, e) for si in merged[p][e]]
            if e > 0:
                faces.append(_face_time(p, e))
            if e < epochs - 1:
                faces.append(_face_time(p, e + 1))
            blocks.append(DecodingBlock(p, e, tuple(faces)))
    return blocks


def face_edges(graph: DecodingGraph, face_id: tuple) -> tuple:
    """Sorted ids of the edges of a shared face, which on a face sort as
    their keys do.

    An edge's position in this tuple is its index on the face, so both
    sides of a face name an edge alike without a lookup table.  The ids
    are the edges the adjacency cache tags with the face, and only a few
    vertices can hold them: a seam face's edges are tagged at the seam's
    rows over its epoch, and a temporal face's, once each, at the vertices
    of the round below it, in the patch's slab and in the rows of the
    seams it owns (Layout.owner).  A seam's rows over a span of rounds
    inside one merged interval are one span of ranks.  The tuple is built
    once per graph and face, dropped when a merge changes the graph, and
    returned as the same object on every call.  A temporal face outside
    the graph raises ValueError.
    """
    edges = graph._faces.get(face_id)
    if edges is not None:
        return edges
    lay = graph.layout
    d = graph.d
    kind, i, epoch = face_id
    if kind == "s":
        lo, hi = epoch * d, (epoch + 1) * d
        seams = [lay.seams[i]]
        spans = []
    else:
        hi = epoch * d
        if hi <= 0 or hi >= graph.rounds:
            raise ValueError(f"temporal face {face_id} outside the graph")
        lo = hi - 1
        size = d * (d - 1)
        r0 = (i * graph.rounds + lo) * size
        # a seam's owner is one of its two patches, so the seams a patch
        # owns are among its sides'
        seams = [s for s in (lay.side_seam(i, side) for side in "wens")
                 if s is not None and lay.owner[lay.seam_index(s)] == i]
        spans = [(r0, r0 + size)]
    seam_ranks = graph._seam_interval_ranks()
    for s in seams:
        rows = d if s.orient == "ew" else d - 1
        for a, b, base in seam_ranks[lay.seam_index(s)]:
            if a < hi and b > lo:
                spans.append((base + (max(a, lo) - a) * rows, base + (min(b, hi) - a) * rows))
    cache = graph._cache()
    ids = []
    for a, b in spans:
        for nb in cache[a:b]:
            it = iter(nb)
            ids += [eid for eid, _, face in zip(it, it, it) if face == face_id]
    edges = graph._faces[face_id] = tuple(sorted(ids))
    return edges
