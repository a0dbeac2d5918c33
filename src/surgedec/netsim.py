"""Timing model of the decoder network.

The pipeline in windows.py fixes what every unit computes and which
boundary information it exchanges; this module replays that dataflow
against a tree-grid interconnect and a latency model to get wall-clock
behaviour.  Work is organised in slots of d measurement rounds: slot k
on a unit never starts before (k + 1) * d * t_round, because rounds
keep streaming out of the fridge whether or not the decoders are ready,
and it additionally waits for the unit to be free and for boundary
information from upstream neighbours to arrive.

Nothing contends for a link, and a decode only waits on commits of
lower groups at the same or earlier slots, so one pass over the slots in
the pipeline's cascade order knows every input time of a slot before it
reaches it: the replay is exact without an event queue.

Reported per-block latency is decode completion minus availability of
the block's last measurement round, so it includes queueing.  Inverse
throughput is the unit's busy time per block over d, which is what
bounds sustained load; it depends only on decode work, never on link
constants.  Commit of epoch e shares a slot with the decode of e + 1,
which puts the earliest group-3 commit exactly 3d rounds after the
committed epoch's data is available when all costs are zero.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

from . import wire
from .graph import DecodingGraph, face_edges
from .noise import EdgeTable, derived_rng
from .topology import Topology, tree_path
from .uf import cut_parities
from .windows import Pipeline

@dataclass(frozen=True)
class LatencyModel:
    """Integer-nanosecond timing constants."""

    t_round_ns: int = 1000  # one measurement round
    t_link_ns: int = 95  # one interconnect hop
    t_cycle_ns: int = 10  # one decoder clock cycle (100 MHz)
    decode_base_cycles: int = 30
    decode_per_iter_cycles: int = 10

    def decode_ns(self, iters: int) -> int:
        return (self.decode_base_cycles + self.decode_per_iter_cycles * iters) * self.t_cycle_ns


@dataclass(frozen=True)
class Instruction:
    """Coordinator-side behaviour attached to logical results.

    'measure' forwards the result of (patch, epoch) to forward_node.
    'cond_merge' sends merge-or-split configuration for a seam to both
    hosting units once the conditioning result reaches the root; the
    graph already reflects the branch taken, and the replay only checks
    the instruction would have arrived in time.
    """

    op: str
    patch: int
    epoch: int
    forward_node: int | None = None
    seam: object = None
    merge_epoch: int | None = None


@dataclass
class TraceResult:
    rows: list  # (epoch, patch, latency_ns, inv_throughput_ns, depth)
    commit_ns: dict  # (unit, epoch) -> wall clock of its commit
    first_g3_commit_ns: int | None
    first_g3_latency_ns: int | None
    depth_series: list  # max queue depth per slot index
    feedback_ns: dict  # (patch, epoch) -> forwarded result arrival
    instr_margin_ns: int | None  # min slack of cond-merge instructions
    events: int


@dataclass
class MetricsReport:
    trials: int
    blocks_per_trial: int
    latency_mean_ns: float
    latency_min_ns: int
    latency_p95_ns: int
    inv_throughput_mean_ns: float
    inv_throughput_sd_ns: float
    first_g3_commit_ns: int | None
    first_g3_latency_ns: int | None
    logical_failures: int
    patch_failures: dict
    backlog: bool
    max_queue_depth: int
    feedback_ns: dict
    instr_margin_ns: int | None
    rows: list = field(default_factory=list)  # from the first trial


class _Hist:
    """Streaming integer histogram so 10^4 trials stay cheap."""

    def __init__(self):
        self.counts = Counter()
        self.n = 0
        self.total = 0
        self.sumsq = 0
        self.lo = None

    def add(self, v: int):
        self.counts[v] += 1
        self.n += 1
        self.total += v
        self.sumsq += v * v
        if self.lo is None or v < self.lo:
            self.lo = v

    def mean(self) -> float:
        return self.total / self.n

    def sd(self) -> float:
        m = self.mean()
        return max(0.0, self.sumsq / self.n - m * m) ** 0.5

    def percentile(self, q: float) -> int:
        want = max(1, -(-int(q * self.n) // 100))
        seen = 0
        for v in sorted(self.counts):
            seen += self.counts[v]
            if seen >= want:
                return v
        raise AssertionError("histogram underflow")


def default_placement(layout, topology: Topology) -> dict:
    """Tile the patch grid onto the leaf grid, units -> leaf node ids.

    Adjacent patches land on the same or a grid-adjacent node, so
    boundary information stays off the tree.
    """
    rows = 1 + max(r for r, _ in layout.positions.values())
    cols = 1 + max(c for _, c in layout.positions.values())
    lrows, lcols = topology.grid_dims
    tile_r = -(-rows // lrows)
    tile_c = -(-cols // lcols)
    return {patch: topology.leaves[(r // tile_r) * lcols + (c // tile_c)]
            for patch, (r, c) in layout.positions.items()}


class Replayer:
    """Replays one pipeline run on the network, one cascade slot at a time."""

    def __init__(self, pipe: Pipeline, topology: Topology, latency: LatencyModel,
                 node_of=None, instructions=()):
        self.pipe = pipe
        self.top = topology
        self.lat = latency
        units = sorted(pipe.groups)
        if node_of is None:
            if len(units) > len(topology.leaves):
                raise ValueError("more units than leaf nodes; pass node_of")
            node_of = {u: topology.leaves[i] for i, u in enumerate(units)}
        self.node_of = dict(node_of)
        self.units = units
        self.slot_ns = pipe.graph.d * latency.t_round_ns

        # wire index of every edge of each face a commit sends across
        self._face_index = {}
        for sends in pipe.sends.values():
            for f, _ in sends:
                edges = face_edges(pipe.graph, f)
                self._face_index[f] = {ek: i for i, ek in enumerate(edges)}

        self._depth_of = {n: topology.depth(n) for n in topology.children}
        self._hops = {}

        self._meas = {}
        self._cond = {}
        for ins in instructions:
            if ins.op == "measure":
                self._meas.setdefault((ins.patch, ins.epoch), []).append(ins.forward_node)
            elif ins.op == "cond_merge":
                self._cond.setdefault((ins.patch, ins.epoch), []).append(ins)
            else:
                raise ValueError(f"unknown instruction op {ins.op!r}")

        dests = [*self.node_of.values(), *(n for ns in self._meas.values() for n in ns)]
        bad = sorted({n for n in dests if not wire.dest_fits(n)})
        if bad:
            raise ValueError(f"nodes {bad} do not fit the wire's destination field")

    def _hop_count(self, src_unit: int, dst_unit: int) -> int:
        key = (src_unit, dst_unit)
        got = self._hops.get(key)
        if got is None:
            a, b = self.node_of[src_unit], self.node_of[dst_unit]
            if a == b:
                got = 0
            elif frozenset({a, b}) in self.top.grid_links:
                got = 1
            else:
                got = len(tree_path(self.top, a, b))
            self._hops[key] = got
        return got

    def _message_count(self, info) -> int:
        index = self._face_index[info.face]
        vals = sorted(index[ek] for ek in info.committed_crossings)
        return len(wire.pack_boundary_indices(vals))

    def trace(self, result) -> TraceResult:
        """Time every slot of the run in the pipeline's cascade order.

        A slot starts at the latest of: its rounds are available, its unit
        has finished the previous slot, and every inbound wall face of the
        block it decodes has arrived.  Its commit then fixes the arrival of
        its boundary sends, of the logical result at the root, and of the
        forwards and cond-merge configurations that result triggers.
        events counts the modelled events: round availability per unit and
        slot, decode done, slot done, commit, and each message or result.
        """
        pipe = self.pipe
        lat = self.lat
        link = lat.t_link_ns
        slot_ns = self.slot_ns
        depth_of = self._depth_of
        send_map = {}
        for _, src, dst, info in result.sends:
            send_map.setdefault((src, info.face[2]), []).append((dst, info))

        free = dict.fromkeys(self.units, 0)  # unit -> end of its last slot
        arrival = {}       # wall face -> arrival of its boundary info
        decode_start = {}  # (unit, epoch) -> start of the slot decoding it
        rows = []
        commit_ns = {}
        depth_series = [0] * pipe.slots
        feedback_ns = {}
        instr_arrival = []  # ((unit, merge epoch), arrival)
        n_events = len(self.units) * pipe.slots

        for k in range(pipe.slots):
            due = (k + 1) * slot_ns
            for u, e_dec, e_com in pipe.cascade(k):
                start = max(due, free[u])
                dur = 0
                n_events += 1
                if e_dec is not None:
                    for f in pipe.walls[(u, e_dec)]:
                        t = arrival.get(f)
                        if t is None:
                            raise AssertionError(
                                f"unit {u} stalled at slot {k} without {f}")
                        start = max(start, t)
                    dur = lat.decode_ns(result.iters[(u, e_dec)])
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
                    arrival[info.face] = (done + self._hop_count(u, dst) * link
                                          + (self._message_count(info) - 1) * lat.t_cycle_ns)
                at_root = done + depth_of[self.node_of[u]] * link
                forwards = self._meas.get((u, e_com), ())
                if forwards:
                    feedback_ns[(u, e_com)] = at_root + max(depth_of[n] for n in forwards) * link
                conds = self._cond.get((u, e_com), ())
                for ins in conds:
                    for pid in (ins.seam.patch_a, ins.seam.patch_b):
                        instr_arrival.append(((pid, ins.merge_epoch),
                                              at_root + depth_of[self.node_of[pid]] * link))
                n_events += 2 + len(sends) + len(forwards) + 2 * len(conds)

        margin = min((decode_start[key] - t for key, t in instr_arrival
                       if key[1] is not None and 0 <= key[1] < pipe.epochs), default=None)
        first_g3 = min((t for (u, _), t in commit_ns.items() if pipe.groups[u] == 3),
                       default=None)
        g3_lat = None if first_g3 is None else first_g3 - slot_ns
        rows.sort(key=lambda r: (r[0], r[1]))
        return TraceResult(rows, commit_ns, first_g3, g3_lat, depth_series,
                           feedback_ns, margin, n_events)


def _backlog(depths: list) -> bool:
    if len(depths) < 8:
        return False
    q = len(depths) // 4
    return max(depths[-q:]) >= max(depths[:q]) + 2


def simulate(graph: DecodingGraph, topology: Topology, latency: LatencyModel,
             p: float, trials: int = 1, seed: int = 0,
             node_of=None, instructions=()) -> MetricsReport:
    """Sample noise, decode through the pipeline, replay the timing.

    Aggregates latency and inverse throughput over every decoded block
    of every trial; rows holds the per-block records of the first trial
    for CSV export.  A trial counts as a logical failure when any
    patch's corrected observable disagrees with the sampled truth.
    """
    pipe = Pipeline(graph)
    rep = Replayer(pipe, topology, latency, node_of, instructions)
    table = EdgeTable(graph)

    lat_hist = _Hist()
    inv_hist = _Hist()
    failures = 0
    patch_failures = Counter()
    first_rows = []
    first_g3 = None
    g3_lat = None
    feedback = {}
    margin = None
    backlog = False
    max_depth = 0

    for trial in range(trials):
        sample = table.sample(p, derived_rng(seed, trial))
        result = pipe.run(sample.defects)
        touched = Counter()
        for ua, ub in result.correction:
            touched[ua] += 1
            if ub >= 0:
                touched[ub] += 1
        toggled = {v for v, c in touched.items() if c & 1}
        if toggled != sample.defects:
            raise AssertionError(f"trial {trial}: correction invalid")
        cp = cut_parities(graph, result.correction)
        bad = [pid for pid in sample.true_logical
               if sample.true_logical[pid] ^ cp.get(pid, 0)]
        if bad:
            failures += 1
            patch_failures.update(bad)

        tr = rep.trace(result)
        for row in tr.rows:
            lat_hist.add(row[2])
            inv_hist.add(row[3])
        if trial == 0:
            first_rows = tr.rows
            feedback = tr.feedback_ns
        if tr.first_g3_commit_ns is not None:
            # keep the earliest over all trials so floor checks are honest
            if first_g3 is None or tr.first_g3_commit_ns < first_g3:
                first_g3 = tr.first_g3_commit_ns
                g3_lat = tr.first_g3_latency_ns
        if tr.instr_margin_ns is not None:
            margin = tr.instr_margin_ns if margin is None else min(margin, tr.instr_margin_ns)
        backlog = backlog or _backlog(tr.depth_series)
        max_depth = max(max_depth, max(tr.depth_series))

    return MetricsReport(
        trials=trials,
        blocks_per_trial=len(first_rows),
        latency_mean_ns=lat_hist.mean(),
        latency_min_ns=lat_hist.lo,
        latency_p95_ns=lat_hist.percentile(95),
        inv_throughput_mean_ns=inv_hist.mean(),
        inv_throughput_sd_ns=inv_hist.sd(),
        first_g3_commit_ns=first_g3,
        first_g3_latency_ns=g3_lat,
        logical_failures=failures,
        patch_failures=dict(patch_failures),
        backlog=backlog,
        max_queue_depth=max_depth,
        feedback_ns=feedback,
        instr_margin_ns=margin,
        rows=first_rows,
    )


def write_rows_csv(report: MetricsReport, path: str):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "patch", "latency_ns", "inv_throughput_ns", "backlog_depth"])
        for row in report.rows:
            w.writerow(row)
