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
lower groups at the same or earlier slots, so one pass over the
pipeline's schedule, the cascade it fixed at set-up, knows every input
time of a slot before it reaches it: the replay is exact without an event
queue.  Everything in that pass that does not depend on the syndrome (hop
costs, offsets to the root and to forward nodes, the event count) is
fixed when the Replayer is built; a run adds only decode times, and packs
only the commits that carry crossings.

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
from dataclasses import dataclass, field, fields

from . import wire
from .graph import DecodingGraph
from .noise import EdgeTable, derived_rng
from .topology import Topology, route
from .uf import cut_parities, decode_region
from .windows import Pipeline

@dataclass(frozen=True)
class LatencyModel:
    """Integer-nanosecond timing constants."""

    t_round_ns: int = 1000  # one measurement round
    t_link_ns: int = 95  # one interconnect hop
    t_cycle_ns: int = 10  # one decoder clock cycle (100 MHz)
    decode_base_cycles: int = 30
    decode_per_iter_cycles: int = 10

    def __post_init__(self):
        if self.t_round_ns < 1:
            raise ValueError(f"t_round_ns must be at least 1, got {self.t_round_ns}")
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must not be negative, got {getattr(self, f.name)}")

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
    global_failures: int   # the same samples decoded by decode_region
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
    """Replays one pipeline run on the network, one cascade slot at a time.

    node_of maps each unit (a patch) to the leaf node that hosts it; when it
    is None the units are placed by default_placement.  Set-up walks the
    pipeline's schedule once and fixes every timing constant a record
    needs, none of which depends on the syndrome: per decode its block id,
    inbound walls, row index, epoch and the time its last round is
    available; per commit its block id, the link cost of each send, the
    offset at which its forwarded result arrives, and the offset at which
    each cond-merge configuration reaches its unit.
    """

    def __init__(self, pipe: Pipeline, topology: Topology, latency: LatencyModel,
                 node_of=None, instructions=()):
        self.pipe = pipe
        self.top = topology
        self.lat = latency
        units = sorted(pipe.groups)
        if node_of is None:
            node_of = default_placement(pipe.graph.layout, topology)
        self.node_of = dict(node_of)
        self.units = units
        self.slot_ns = pipe.graph.d * latency.t_round_ns

        meas = {}
        cond = {}
        for ins in instructions:
            if ins.op == "measure":
                meas.setdefault((ins.patch, ins.epoch), []).append(ins.forward_node)
            elif ins.op == "cond_merge":
                cond.setdefault((ins.patch, ins.epoch), []).append(ins)
            else:
                raise ValueError(f"unknown instruction op {ins.op!r}")

        leaves = set(topology.leaves)
        for u in units:
            if u not in self.node_of:
                raise ValueError(f"unit {u} has no node in node_of")
            if self.node_of[u] not in leaves:
                raise ValueError(f"unit {u} is placed on {self.node_of[u]}, not a leaf")
        for ns in meas.values():
            for n in ns:
                if n not in topology.children:
                    raise ValueError(f"forward node {n} is not in the topology")

        dests = [*self.node_of.values(), *(n for ns in meas.values() for n in ns)]
        bad = sorted({n for n in dests if not wire.dest_fits(n)})
        if bad:
            raise ValueError(f"nodes {bad} do not fit the wire's destination field")

        self._plan, self._events = self._timing_plan(meas, cond)
        self._n_rows = len(pipe.windows)
        # the group-3 windows, whose earliest commit is the first group-3 commit
        self._g3 = tuple(bid for bid in pipe.windows if pipe.groups[bid[0]] == 3)

    def _timing_plan(self, meas: dict, cond: dict):
        """Per slot, the schedule's records with their timing constants,
        and the number of events every run of the schedule models."""
        pipe = self.pipe
        top = self.top
        link = self.lat.t_link_ns
        node_of = self.node_of
        depth_of = {n: top.depth(n) for n in top.children}
        row_of = {bid: i for i, bid in enumerate(
            sorted(pipe.windows, key=lambda bid: (bid[1], bid[0])))}
        hop_ns = {}
        plan = []
        events = len(self.units) * pipe.slots
        for records in pipe.schedule:
            timed = []
            for u, dec, com in records:
                events += 1
                if dec is not None:
                    bid = dec.block.block_id
                    # the block's last round is available at (e + 1) slots
                    e = bid[1]
                    dec = (bid, dec.walls, row_of[bid], e, (e + 1) * self.slot_ns)
                    events += 1
                if com is not None:
                    bid = com.block.block_id
                    sends = []
                    for face, dst in com.sends:
                        pair = (u, dst)
                        if pair not in hop_ns:
                            msg = wire.Message(node_of[dst], wire.boundary_header(0), 0)
                            hop_ns[pair] = len(route(top, msg, node_of[u])) * link
                        sends.append((face, node_of[dst], hop_ns[pair]))
                    root_ns = depth_of[node_of[u]] * link
                    forwards = meas.get(bid, ())
                    fwd_ns = (root_ns + max(depth_of[n] for n in forwards) * link
                              if forwards else None)
                    conds = cond.get(bid, ())
                    # a configuration for an epoch outside the run checks nothing
                    arrive = tuple(
                        ((pid, ins.merge_epoch), root_ns + depth_of[node_of[pid]] * link)
                        for ins in conds for pid in (ins.seam.patch_a, ins.seam.patch_b)
                        if ins.merge_epoch is not None and 0 <= ins.merge_epoch < pipe.epochs)
                    com = (bid, tuple(sends), fwd_ns, arrive)
                    events += 2 + len(sends) + len(forwards) + 2 * len(conds)
                timed.append((u, dec, com))
            plan.append(tuple(timed))
        return tuple(plan), events

    def trace(self, result) -> TraceResult:
        """Time every slot of the run in the pipeline's schedule order.

        A slot starts at the latest of: its rounds are available, its unit
        has finished the previous slot, and every inbound wall face of the
        block it decodes has arrived.  Its commit then fixes the arrival of
        its boundary sends, of the logical result at the root, and of the
        forwards and cond-merge configurations that result triggers.
        events counts the modelled events: round availability per unit and
        slot, decode done, slot done, commit, and each message or result.
        A send missing from the result stalls the window that waits on it.
        """
        graph = self.pipe.graph
        d = graph.d
        lat = self.lat
        cycle = lat.t_cycle_ns
        slot_ns = self.slot_ns
        iters = result.iters
        sent = {rec[3].face: rec[3] for rec in result.sends}

        free = dict.fromkeys(self.units, 0)  # unit -> end of its last slot
        arrival = {}       # wall face -> arrival of its boundary info
        decode_start = {}  # (unit, epoch) -> start of the slot decoding it
        rows = [None] * self._n_rows
        commit_ns = {}
        depth_series = []
        feedback_ns = {}
        instr_arrival = []  # ((unit, merge epoch), arrival)

        for k, records in enumerate(self._plan):
            due = (k + 1) * slot_ns
            deepest = 0
            for u, dec, com in records:
                start = free[u]
                if start < due:
                    start = due
                dur = 0
                if dec is not None:
                    bid, walls, row, e, avail = dec
                    for f in walls:
                        t = arrival.get(f)
                        if t is None:
                            raise AssertionError(
                                f"unit {u} stalled at slot {k} without {f}")
                        if t > start:
                            start = t
                    dur = lat.decode_ns(iters[bid])
                    depth = (start - due) // slot_ns
                    if depth > deepest:
                        deepest = depth
                    decode_start[bid] = start
                    rows[row] = (e, u, start + dur - avail, dur / d, depth)
                done = free[u] = start + dur
                if com is None:
                    continue
                bid, sends, fwd_ns, arrive = com
                commit_ns[bid] = done
                for face, node, hop_ns in sends:
                    info = sent.get(face)
                    if info is None:
                        continue
                    t = done + hop_ns
                    # an empty commit is the codec's one count-0 word, which
                    # adds no cycle.  With d <= 255 a seam face has at most
                    # 255 * 255 = 65,025 edges, so its indices always fit the
                    # wire's 16 bits: skipping the codec there skips no
                    # check that could fail.  A commit with crossings is
                    # packed, and checked, in full.
                    if info.committed_crossings:
                        t += (len(wire.encode_boundary_info(info, graph, node)) - 1) * cycle
                    arrival[face] = t
                if fwd_ns is not None:
                    feedback_ns[bid] = done + fwd_ns
                for key, off in arrive:
                    instr_arrival.append((key, done + off))
            depth_series.append(deepest)

        margin = min((decode_start[key] - t for key, t in instr_arrival), default=None)
        first_g3 = min(map(commit_ns.__getitem__, self._g3), default=None)
        g3_lat = None if first_g3 is None else first_g3 - slot_ns
        return TraceResult(rows, commit_ns, first_g3, g3_lat, depth_series,
                           feedback_ns, margin, self._events)


def _backlog(depths: list) -> bool:
    if len(depths) < 8:
        return False
    q = len(depths) // 4
    return max(depths[-q:]) >= max(depths[:q]) + 2


def simulate(graph: DecodingGraph, topology: Topology, latency: LatencyModel,
             p: float, trials: int = 1, seed: int = 0,
             instructions=()) -> MetricsReport:
    """Sample noise, decode through the pipeline, replay the timing.

    Aggregates latency and inverse throughput over every decoded block
    of every trial; rows holds the per-block records of the first trial
    for CSV export.  A trial counts as a logical failure when any
    patch's corrected observable disagrees with the sampled truth;
    global_failures counts the trials where the global decode of the same
    sample (decode_region) fails that way.  Units sit on
    default_placement's leaves.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    pipe = Pipeline(graph)
    rep = Replayer(pipe, topology, latency, instructions=instructions)
    table = EdgeTable(graph)

    lat_hist = _Hist()
    inv_hist = _Hist()
    failures = 0
    global_failures = 0
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
        glob = cut_parities(graph, decode_region(graph, sample.defects).correction)
        if any(sample.true_logical[pid] ^ glob.get(pid, 0) for pid in sample.true_logical):
            global_failures += 1

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
        global_failures=global_failures,
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
