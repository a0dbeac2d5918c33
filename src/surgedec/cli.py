"""Command line front end for the decoder studies.

Subcommands:
  accuracy     fused per-block decoding vs one global decode, error rates
  scalability  many-qubit field with random merges on the tree-grid network
  microbench   the small lattice-surgery workload catalog
  netcheck     self-tests of the message codec and topology routing
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import random
import sys

from .config import RunConfig, load_config
from .fusion import FusionPlan
from .graph import DecodingGraph, Layout, face_edges, merge_patches
from .microbench import CATALOG, run as run_bench
from .netsim import simulate, write_rows_csv
from .noise import EdgeTable, apply_merge_schedule, derived_rng, random_merge_schedule
from .stats import wilson_interval
from .topology import build_topology, max_tree_hops, route, tree_path
from .uf import cut_parities, decode_region
from .windows import BoundaryInfo
from . import wire


def _accuracy_point(d: int, p: float, trials: int, seed: int) -> dict:
    """Two patches merged for one epoch: fused vs global decoding."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    lay = Layout(d, {0: (0, 0), 1: (0, 1)})
    graph = merge_patches(DecodingGraph(lay, rounds=d), lay.seams[0], (0, d))
    plan = FusionPlan(graph)
    table = EdgeTable(graph)
    rng = derived_rng(seed, d, int(p * 1e6))
    fails = [0, 0]  # fused, global
    for _ in range(trials):
        sample = table.sample(p, rng)
        for i, corr in enumerate((plan.decode(sample.defects),
                                  decode_region(graph, sample.defects).correction)):
            cp = cut_parities(graph, corr)
            if any(sample.true_logical[pid] ^ cp.get(pid, 0)
                   for pid in sample.true_logical):
                fails[i] += 1
    fails_fused, fails_global = fails
    lo_f, hi_f = wilson_interval(fails_fused, trials)
    lo_g, hi_g = wilson_interval(fails_global, trials)
    return {
        "d": d, "p": p, "trials": trials,
        "fails_fused": fails_fused, "fails_global": fails_global,
        "ler_fused": fails_fused / trials, "ler_global": fails_global / trials,
        "ci_fused_lo": lo_f, "ci_fused_hi": hi_f,
        "ci_global_lo": lo_g, "ci_global_hi": hi_g,
    }


def _cmd_accuracy(args) -> int:
    rows = []
    for d in args.d:
        for p in args.p:
            row = _accuracy_point(d, p, args.trials, args.seed)
            rows.append(row)
            print(f"d={d} p={p:g} fused={row['ler_fused']:.5f} "
                  f"[{row['ci_fused_lo']:.5f},{row['ci_fused_hi']:.5f}] "
                  f"global={row['ler_global']:.5f} "
                  f"[{row['ci_global_lo']:.5f},{row['ci_global_hi']:.5f}]")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    return 0


def _cmd_scalability(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.trials is not None:
        cfg = dataclasses.replace(cfg, trials=args.trials)
    rows, cols = cfg.qubit_grid
    lay = Layout(cfg.d, {i: (i // cols, i % cols) for i in range(rows * cols)})
    graph = DecodingGraph(lay, rounds=cfg.epochs * cfg.d)
    graph = apply_merge_schedule(
        graph, random_merge_schedule(lay, cfg.epochs, cfg.merge_prob, cfg.seed))
    top = build_topology(cfg.leaf_grid[0] * cfg.leaf_grid[1], cfg.fanout,
                         cfg.leaf_grid)
    rep = simulate(graph, top, cfg.latency, args.p, trials=cfg.trials, seed=cfg.seed)
    print(f"qubits={rows * cols} d={cfg.d} epochs={cfg.epochs} trials={cfg.trials}")
    print(f"latency_ns mean={rep.latency_mean_ns:.1f} min={rep.latency_min_ns} "
          f"p95={rep.latency_p95_ns}")
    print(f"inv_throughput_ns mean={rep.inv_throughput_mean_ns:.2f} "
          f"sd={rep.inv_throughput_sd_ns:.2f}")
    print(f"backlog={rep.backlog} max_queue_depth={rep.max_queue_depth} "
          f"logical_failures={rep.logical_failures} "
          f"global_failures={rep.global_failures}")
    if rep.first_g3_latency_ns is not None:
        print(f"first_group3_commit_latency_ns={rep.first_g3_latency_ns}")
    if args.out:
        write_rows_csv(rep, args.out)
    return 0


def _cmd_microbench(args) -> int:
    names = sorted(CATALOG) if args.name == "all" else [args.name]
    summary = []
    for name in names:
        rep = run_bench(name, args.d, args.p, args.trials, args.seed)
        qubits, epochs = CATALOG[name][1], CATALOG[name][2]
        print(f"{name:22s} qubits={qubits:2d} epochs={epochs} "
              f"latency_ns mean={rep.latency_mean_ns:8.1f} min={rep.latency_min_ns:6d} "
              f"p95={rep.latency_p95_ns:6d} inv={rep.inv_throughput_mean_ns:6.1f} "
              f"failures={rep.logical_failures}")
        summary.append({
            "name": name, "qubits": qubits, "epochs": epochs,
            "latency_mean_ns": rep.latency_mean_ns,
            "latency_min_ns": rep.latency_min_ns,
            "latency_p95_ns": rep.latency_p95_ns,
            "inv_throughput_mean_ns": rep.inv_throughput_mean_ns,
            "logical_failures": rep.logical_failures,
            "trials": rep.trials,
        })
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(summary[0]))
            w.writeheader()
            w.writerows(summary)
    return 0


def _cmd_netcheck(args) -> int:
    failures = 0

    def check(label, ok):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    rng = random.Random(args.seed)
    ok = True
    for _ in range(args.words):
        msg = wire.Message(rng.randrange(256), rng.randrange(256),
                           rng.randrange(1 << 48))
        ok = ok and wire.decode_message(wire.encode_message(msg)) == msg
    check(f"codec round trip on {args.words} random words", ok)

    lay = Layout(5, {0: (0, 0), 1: (0, 1)})
    g = merge_patches(DecodingGraph(lay, rounds=5), lay.seams[0], (0, 5))
    edges = face_edges(g, ("s", 0, 0))
    picks = frozenset(rng.sample(edges, 7))
    info = BoundaryInfo(("s", 0, 0), picks)
    msgs = wire.encode_boundary_info(info, g, dest=1)
    ok = wire.decode_boundary_info(msgs, g, ("s", 0, 0)) == picks
    check("boundary info round trip, 7 of 25 crossings", ok)

    for n, dims, want in ((4, (2, 2), 2), (25, (5, 5), 2), (625, (25, 25), 4)):
        top = build_topology(n, 25, dims)
        check(f"{n} leaves at fanout 25: {want} tree hops worst case",
              max_tree_hops(top) == want)

    top = build_topology(4, 25, (2, 2))
    msg = wire.Message(dest=top.leaves[1], header=wire.boundary_header(0), payload=0)
    check("grid link used for neighbour boundary info",
          route(top, msg, top.leaves[0]) == [top.leaves[1]])
    check("tree used between far leaves",
          tree_path(top, top.leaves[0], top.leaves[3]) == [0, top.leaves[3]])
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="surgedec", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    acc = sub.add_parser("accuracy", help="fused vs global logical error rates")
    acc.add_argument("--d", type=int, nargs="+", default=[3, 5, 7])
    acc.add_argument("--p", type=float, nargs="+", default=[0.005, 0.01, 0.02])
    acc.add_argument("--trials", type=int, default=100000)
    acc.add_argument("--seed", type=int, default=0)
    acc.add_argument("--out", default=None)
    acc.set_defaults(func=_cmd_accuracy)

    sca = sub.add_parser("scalability", help="many-qubit field on the network")
    sca.add_argument("--config", default=None, help="JSON run configuration")
    sca.add_argument("--p", type=float, default=0.001)
    sca.add_argument("--trials", type=int, default=None)
    sca.add_argument("--out", default=None)
    sca.set_defaults(func=_cmd_scalability)

    mic = sub.add_parser("microbench", help="lattice surgery workload catalog")
    mic.add_argument("--name", default="all", choices=["all", *sorted(CATALOG)])
    mic.add_argument("--d", type=int, default=5)
    mic.add_argument("--p", type=float, default=0.001)
    mic.add_argument("--trials", type=int, default=1000)
    mic.add_argument("--seed", type=int, default=0)
    mic.add_argument("--out", default=None)
    mic.set_defaults(func=_cmd_microbench)

    net = sub.add_parser("netcheck", help="codec and routing self-tests")
    net.add_argument("--words", type=int, default=10000)
    net.add_argument("--seed", type=int, default=0)
    net.set_defaults(func=_cmd_netcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
