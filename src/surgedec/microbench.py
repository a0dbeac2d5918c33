"""Catalog of small lattice-surgery workloads for end-to-end timing.

Each entry fixes the qubit count and duration in epochs of d rounds:
measurement-based feedback (1 qubit, 1 epoch), merge+split (2, 3),
move (3, 3), CNOT (3, 3), CNOT on a plane layout (6, 3), one control
fanning out to several targets (5, 3), state expansion (4, 2) and the
15-to-1 magic state distillation (24, 5).  The exact merge choreography
inside each window is a reconstruction: it is chosen to be a plausible
surgery schedule that fits the published shape, not a transcription of
any particular compiler's output, and nothing downstream depends on
more than the counts, durations and which seams are active when.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DecodingGraph, Layout, merge_patches
from .netsim import Instruction, LatencyModel, MetricsReport, default_placement, simulate
from .topology import build_topology


@dataclass(frozen=True)
class Benchmark:
    name: str
    layout: Layout
    epochs: int
    merges: tuple  # (seam, (round_lo, round_hi)) pairs
    measures: tuple  # (patch, epoch) results forwarded off-node

    @property
    def qubits(self) -> int:
        return self.layout.n_patches


def _seam(lay: Layout, a: int, b: int):
    for s in lay.seams:
        if {s.patch_a, s.patch_b} == {a, b}:
            return s
    raise ValueError(f"no seam between patches {a} and {b}")


def _row(d, n):
    return Layout(d, {i: (0, i) for i in range(n)})


def _epoch_merges(lay, pairs_by_epoch, d):
    out = []
    for epoch, pairs in pairs_by_epoch.items():
        for a, b in pairs:
            out.append((_seam(lay, a, b), (epoch * d, (epoch + 1) * d)))
    return tuple(out)


def _measurement_feedback(d):
    lay = _row(d, 1)
    return Benchmark("measurement_feedback", lay, 1, (), ((0, 0),))


def _merge_split(d):
    lay = _row(d, 2)
    return Benchmark("merge_split", lay, 3,
                     _epoch_merges(lay, {1: [(0, 1)]}, d), ())


def _move(d):
    # walk the state across a row: extend onto the middle patch, then
    # hand it off to the far one
    lay = _row(d, 3)
    merges = _epoch_merges(lay, {1: [(0, 1)], 2: [(1, 2)]}, d)
    return Benchmark("move", lay, 3, merges, ())


def _cnot(d):
    # control, ancilla, target in a row; ZZ then XX merge through the ancilla
    lay = _row(d, 3)
    merges = _epoch_merges(lay, {1: [(0, 1)], 2: [(1, 2)]}, d)
    return Benchmark("cnot", lay, 3, merges, ())


def _cnot_plane(d):
    # same two merges embedded in a 2x3 plane with idle spectators
    lay = Layout(d, {0: (0, 0), 1: (0, 1), 2: (0, 2),
                     3: (1, 0), 4: (1, 1), 5: (1, 2)})
    merges = _epoch_merges(lay, {1: [(0, 1)], 2: [(1, 4)]}, d)
    return Benchmark("cnot_plane", lay, 3, merges, ())


def _multi_cnot(d):
    # one control drives three targets through a central ancilla
    lay = Layout(d, {0: (1, 0), 1: (1, 1), 2: (0, 1), 3: (1, 2), 4: (2, 1)})
    merges = _epoch_merges(lay, {1: [(0, 1)], 2: [(1, 2), (1, 3), (1, 4)]}, d)
    return Benchmark("multi_cnot", lay, 3, merges, ())


def _expand(d):
    lay = _row(d, 4)
    merges = _epoch_merges(lay, {1: [(0, 1), (1, 2), (2, 3)]}, d)
    return Benchmark("expand", lay, 2, merges, ())


def _distill_15to1(d):
    # 24 patches on a 4x6 plane, five epochs; four rounds of disjoint
    # pairwise merges stand in for the CNOT layers
    lay = Layout(d, {i: (i // 6, i % 6) for i in range(24)})
    pid = {pos: p for p, pos in lay.positions.items()}
    pairs = {1: [], 2: [], 3: [], 4: []}
    for r in range(4):
        for c in (0, 2, 4):
            pairs[1].append((pid[(r, c)], pid[(r, c + 1)]))
        for c in (1, 3):
            pairs[3].append((pid[(r, c)], pid[(r, c + 1)]))
    for c in range(6):
        for r in (0, 2):
            pairs[2].append((pid[(r, c)], pid[(r + 1, c)]))
        pairs[4].append((pid[(1, c)], pid[(2, c)]))
    return Benchmark("distill_15to1", lay, 5, _epoch_merges(lay, pairs, d), ())


CATALOG = {
    "measurement_feedback": (_measurement_feedback, 1, 1),
    "merge_split": (_merge_split, 2, 3),
    "move": (_move, 3, 3),
    "cnot": (_cnot, 3, 3),
    "cnot_plane": (_cnot_plane, 6, 3),
    "multi_cnot": (_multi_cnot, 5, 3),
    "expand": (_expand, 4, 2),
    "distill_15to1": (_distill_15to1, 24, 5),
}


def build(name: str, d: int) -> Benchmark:
    if name not in CATALOG:
        raise ValueError(f"unknown benchmark {name!r}; see CATALOG")
    builder, qubits, epochs = CATALOG[name]
    bench = builder(d)
    assert bench.qubits == qubits and bench.epochs == epochs
    return bench


def run(name: str, d: int, p: float, trials: int, seed: int = 0) -> MetricsReport:
    """Build, decode and time one benchmark on a matching topology.

    The leaf grid mirrors the patch bounding box, so default_placement
    gives each patch its own leaf node and boundary information never
    climbs the tree; the tree has fanout 25 and the timing is the default
    LatencyModel.
    """
    bench = build(name, d)
    graph = DecodingGraph(bench.layout, rounds=bench.epochs * d)
    for seam, rng in bench.merges:
        graph = merge_patches(graph, seam, rng)
    rows = 1 + max(r for r, _ in bench.layout.positions.values())
    cols = 1 + max(c for _, c in bench.layout.positions.values())
    if rows * cols == 1:
        rows, cols = 1, 2  # a feedback target needs somewhere to live
    top = build_topology(rows * cols, 25, (rows, cols))
    used = set(default_placement(bench.layout, top).values())
    spare = [n for n in top.leaves if n not in used]
    instructions = [
        Instruction("measure", patch=p, epoch=e,
                    forward_node=spare[0] if spare else top.root)
        for p, e in bench.measures
    ]
    return simulate(graph, top, LatencyModel(), p, trials=trials, seed=seed,
                    instructions=instructions)
