"""End-to-end checks over the whole stack, one verdict line per check.

These are the slow, statistical tests: they run full Monte Carlo sweeps
and the complete timing replay rather than single hand-built instances.
Each test prints one PASS/FAIL line with the measured numbers so a plain
pytest run leaves a readable record.  Expect the module to take several
minutes; the accuracy sweep alone runs nine hundred thousand trials.
"""

import math
import random
import time

import pytest

from surgedec import microbench
from surgedec.cli import _accuracy_point
from surgedec.graph import DecodingGraph, Layout, merge_patches
from surgedec.netsim import LatencyModel, simulate
from surgedec.noise import EdgeTable, apply_merge_schedule, derived_rng, \
    random_merge_schedule
from surgedec.oracle import oracle_mwpm
from surgedec.stats import wilson_interval
from surgedec.topology import build_topology, max_tree_hops
from surgedec.uf import cut_parities, decode_region
from surgedec.wire import Message, decode_message, encode_message

pytestmark = pytest.mark.slow

ZERO_COST = LatencyModel(t_round_ns=1000, t_link_ns=0, t_cycle_ns=0,
                         decode_base_cycles=0, decode_per_iter_cycles=0)


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _row_graph(n, d, epochs):
    lay = Layout(d, {i: (0, i) for i in range(n)})
    g = DecodingGraph(lay, rounds=epochs * d)
    for s in lay.seams:
        g = merge_patches(g, s, (0, epochs * d))
    return g


def _grid_graph(d, epochs):
    lay = Layout(d, {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)})
    g = DecodingGraph(lay, rounds=epochs * d)
    for s in lay.seams:
        g = merge_patches(g, s, (0, epochs * d))
    return g


def test_fused_accuracy_matches_global_decoding(capsys):
    # two patches merged across the seam, decoded once through the fusion
    # pipeline and once monolithically; the two logical error rates must
    # agree within 10% plus the statistical slack of both intervals
    t0 = time.monotonic()
    trials = 100_000
    worst = 0.0
    pts = []
    ok = True
    for d in (3, 5, 7):
        for p in (0.005, 0.01, 0.02):
            r = _accuracy_point(d, p, trials, seed=1)
            lf, lg = r["ler_fused"], r["ler_global"]
            overlap = (r["ci_fused_lo"] <= r["ci_global_hi"]
                       and r["ci_global_lo"] <= r["ci_fused_hi"])
            slack = ((r["ci_fused_hi"] - r["ci_fused_lo"])
                     + (r["ci_global_hi"] - r["ci_global_lo"])) / 2
            close = abs(lf - lg) < 0.10 * max(lf, lg) + slack
            ok = ok and overlap and close
            if lg > 0:
                worst = max(worst, lf / lg, lg / lf)
            pts.append(f"d={d},p={p:g}:{r['fails_fused']}v{r['fails_global']}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    _verdict(capsys, "accuracy-parity", ok,
             f"9 points x {trials} trials, worst ratio {worst:.3f}, "
             f"{elapsed:.0f}s; " + " ".join(pts))


def test_logical_error_rate_falls_with_distance(capsys):
    # p=0.001 needs ~1e6 trials per distance to resolve here, which is out
    # of budget for a single core; we rescale to p=0.01 where 1e5 trials
    # separate the three distances with disjoint confidence intervals
    p, trials = 0.01, 100_000
    cis = {}
    lers = {}
    for d in (3, 5, 7):
        lay = Layout(d, {0: (0, 0)})
        g = DecodingGraph(lay, rounds=d)
        table = EdgeTable(g)
        rng = derived_rng(0, d)
        fails = 0
        for _ in range(trials):
            s = table.sample(p, rng)
            cp = cut_parities(g, decode_region(g, s.defects).correction)
            if any(s.true_logical[pid] ^ cp.get(pid, 0)
                   for pid in s.true_logical):
                fails += 1
        cis[d] = wilson_interval(fails, trials)
        lers[d] = fails / trials
    ok = cis[3][0] > cis[5][1] and cis[5][0] > cis[7][1]
    _verdict(capsys, "distance-scaling", ok,
             f"rescaled operating point p={p:g}, {trials} trials per "
             f"distance; ler3={lers[3]:.5f} > ler5={lers[5]:.5f} > "
             f"ler7={lers[7]:.5f} with disjoint 95% intervals")


def test_corrections_valid_and_near_optimal(capsys):
    # random single-block instances with at most 8 defects: every
    # correction must flip exactly the observed syndrome, and where the
    # exact minimum weight is <= 2 the decoder must usually find it
    lay = Layout(3, {0: (0, 0)})
    g = DecodingGraph(lay, rounds=3)
    table = EdgeTable(g)
    rng = derived_rng(0, 99)
    n = valid = opt2 = matched = 0
    while n < 10_000:
        s = table.sample(0.04, rng)
        if len(s.defects) > 8:
            continue
        n += 1
        corr = decode_region(g, s.defects).correction
        touched = {}
        for a, b in corr:
            touched[a] = touched.get(a, 0) ^ 1
            if b >= 0:
                touched[b] = touched.get(b, 0) ^ 1
        valid += ({v for v, c in touched.items() if c} == s.defects)
        w_opt, _ = oracle_mwpm(g, s.defects)
        if w_opt <= 2:
            opt2 += 1
            matched += (len(corr) == w_opt)
    rate = matched / opt2
    ok = valid == n and opt2 > 1000 and rate >= 0.95
    _verdict(capsys, "weight-optimality", ok,
             f"{n} instances, {valid} valid, optimal weight found in "
             f"{matched}/{opt2} = {rate:.3f} of the cases with optimum <= 2")


def test_group3_commit_respects_pipeline_floor(capsys):
    # the last fusion group cannot commit an epoch until three window
    # depths of rounds have streamed in; with costless decode and links
    # the commit latency sits exactly on that floor
    configs = [
        (_row_graph(3, 3, 3), (1, 3), 3),
        (_grid_graph(3, 5), (2, 2), 4),
        (_grid_graph(5, 4), (2, 2), 4),
    ]
    details = []
    ok = True
    for g, dims, nl in configs:
        top = build_topology(nl, 25, dims)
        zero = simulate(g, top, ZERO_COST, p=0.0)
        noisy = simulate(g, top, LatencyModel(), p=0.01, trials=3, seed=3)
        floor = 3 * g.d * 1000
        ok = ok and zero.first_g3_latency_ns == floor
        ok = ok and zero.first_g3_commit_ns == floor + g.d * 1000
        ok = ok and noisy.first_g3_latency_ns >= floor
        details.append(f"d={g.d}x{nl}: zero={zero.first_g3_latency_ns} "
                       f"noisy={noisy.first_g3_latency_ns} floor={floor}")
    _verdict(capsys, "commit-floor", ok, "; ".join(details))


def test_hundred_qubits_sustain_throughput(capsys):
    # 100 distance-5 patches with random merges for 100 epochs on a 2x2
    # leaf grid: per-block decode time must stay under d microseconds and
    # per-round inverse throughput under the round time, with no backlog
    d, epochs = 5, 100
    lay = Layout(d, {i: (i // 10, i % 10) for i in range(100)})
    g = DecodingGraph(lay, rounds=epochs * d)
    g = apply_merge_schedule(g, random_merge_schedule(lay, epochs, 0.5, 7))
    top = build_topology(4, 25, (2, 2))
    rep = simulate(g, top, LatencyModel(), p=0.001, trials=1, seed=7)
    inv_max = max(r[3] for r in rep.rows)
    ok = (rep.blocks_per_trial == 100 * epochs
          and rep.inv_throughput_mean_ns < 1000
          and inv_max < 1000  # decode_ns/d < t_round, so decode < d us
          and not rep.backlog
          and rep.max_queue_depth <= 2)
    _verdict(capsys, "hundred-qubit-run", ok,
             f"{rep.blocks_per_trial} blocks, latency mean "
             f"{rep.latency_mean_ns:.0f}ns p95 {rep.latency_p95_ns}ns, "
             f"inv throughput mean {rep.inv_throughput_mean_ns:.1f}ns "
             f"max {inv_max:.0f}ns, backlog={rep.backlog}, "
             f"max queue depth {rep.max_queue_depth}")


def test_wire_codec_round_trips_exhaustively(capsys):
    # every dest byte x every header byte, 16 random payloads each:
    # 1,048,576 words through encode and back without a single mismatch
    rng = random.Random(12345)
    mismatches = total = 0
    for dest in range(256):
        for header in range(256):
            for _ in range(16):
                msg = Message(dest, header, rng.getrandbits(48))
                total += 1
                if decode_message(encode_message(msg)) != msg:
                    mismatches += 1
    ok = total == 1_048_576 and mismatches == 0
    _verdict(capsys, "wire-exhaustive", ok,
             f"{total} round trips, {mismatches} mismatches")


def test_tree_hops_grow_logarithmically(capsys):
    # worst-case hop counts at fanout 25, plus the 2*ceil(log25 n) bound
    expected = {4: 2, 25: 2, 625: 4}
    details = []
    ok = True
    for n, dims in ((4, (2, 2)), (25, (5, 5)), (625, (25, 25)),
                    (15625, (125, 125))):
        top = build_topology(n, 25, dims)
        hops = max_tree_hops(top)
        bound = 2 * math.ceil(math.log(n, 25) - 1e-9)
        ok = ok and hops <= bound
        if n in expected:
            ok = ok and hops == expected[n]
        details.append(f"{n}:{hops}")
    _verdict(capsys, "tree-hops", ok,
             "worst-case hops " + " ".join(details) + ", all within "
             "twice the tree height")


def test_all_microbenchmarks_decode_validly(capsys):
    # the full catalog at d=5, p=0.001, 1e4 trials each; simulate raises
    # on any invalid correction, so completion is the validity check,
    # and the block count pins the epoch schedule of each circuit
    t0 = time.monotonic()
    details = []
    ok = True
    for name, (_, qubits, epochs) in microbench.CATALOG.items():
        rep = microbench.run(name, d=5, p=0.001, trials=10_000, seed=3)
        ok = ok and rep.blocks_per_trial == qubits * epochs
        ok = ok and not rep.backlog
        details.append(f"{name}={rep.latency_mean_ns:.0f}ns")
    elapsed = time.monotonic() - t0
    _verdict(capsys, "microbenchmarks", ok,
             f"8/8 valid over 1e4 trials each in {elapsed:.0f}s; "
             "mean latency " + " ".join(details))


def test_link_cost_shifts_latency_not_throughput(capsys):
    # doubling the per-hop link cost must show up in commit latency but
    # leave inverse throughput untouched within 1%
    g = _grid_graph(3, 4)
    top = build_topology(4, 25, (2, 2))
    base = simulate(g, top, LatencyModel(), p=0.01, trials=3, seed=11)
    slow = simulate(g, top, LatencyModel(t_link_ns=190), p=0.01,
                    trials=3, seed=11)
    drift = (abs(slow.inv_throughput_mean_ns - base.inv_throughput_mean_ns)
             / base.inv_throughput_mean_ns)
    ok = slow.latency_mean_ns > base.latency_mean_ns and drift <= 0.01
    _verdict(capsys, "link-cost-split", ok,
             f"latency {base.latency_mean_ns:.0f} -> "
             f"{slow.latency_mean_ns:.0f}ns, inverse throughput drift "
             f"{drift:.4f}")
