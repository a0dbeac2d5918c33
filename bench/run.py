"""surgedec benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {accuracy,field,stream,all} --seed N
                         --seconds S --trace {0,1}

One process, one thread, a closed loop: each trial starts when the last
one ends.  The modelled decoder network is the open loop (rounds arrive
every t_round whatever the decoders do); that load shows up in the sim_*
metrics, which are simulated time from Replayer.trace, not host time.

--trace 0 sets the workload up several times (setup_s is the median),
then runs trials for --seconds and prints every end-to-end metric.
--trace 1 runs trials untraced for half of --seconds, then sets up and runs
again with the library's public calls wrapped by spans.Tracer, and prints
every per-layer metric; the spans go to bench/out/.  A metric of a layer
the workload never calls reads 0.

Every correction must reproduce its sampled syndrome and the pipeline must
leave no defect unresolved; on accuracy the Wilson intervals of the fused
and global logical error rates must overlap.  A trial that raises or gives
an invalid correction is failed; a logical error is not a failure.  The
sim_* metrics and the digest cover a fixed number of first trials, so the
same seed gives the same values on every run.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  With --workload all each workload runs in its own child process,
so peak_rss_mb is per workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "surgedec")):
    sys.exit(f"no surgedec source tree at {SRC}")
sys.path.insert(0, SRC)

from surgedec.stats import intervals_overlap, wilson_interval  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)

# name -> unit; every workload reports every one of these
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_latency_p50_ns": "ns",
    "sim_latency_p99_ns": "ns",
    "sim_inv_throughput_ns": "ns",
}

PER_LAYER = {
    "graph.build_s": "s",
    "graph.carve_s": "s",
    "graph.face_edges_calls": "count",
    "graph.face_edges_s": "s",
    "uf.region_vids_s": "s",
    "uf.region_vids_calls": "count",
    "uf.settle_s": "s",
    "uf.settle_calls": "count",
    "uf.grow_iterations": "count",
    "uf.peel_s": "s",
    "uf.absorb_face_s": "s",
    "uf.absorb_face_calls": "count",
    "uf.decode_region_us": "us",
    "fusion.plan_decode_us": "us",
    "fusion.fused_over_global": "ratio",
    "fusion.fuse_s": "s",
    "fusion.fuse_calls": "count",
    "fusion.fuse_epoch_growth": "ratio",
    "windows.pipeline_init_s": "s",
    "windows.run_ms": "ms",
    "windows.epoch_cost_growth": "ratio",
    "windows.boundary_sends": "count",
    "noise.edge_table_s": "s",
    "noise.sample_us": "us",
    "noise.edges": "count",
    "noise.defects_per_trial": "count",
    "netsim.replayer_init_s": "s",
    "netsim.trace_ms": "ms",
    "netsim.events": "count",
    "wire.boundary_words": "count",
    "bench.trace_overhead_pct": "%",
}


def percentile(values, q: float) -> float:
    """Grouped-data percentile, q in [0, 100].

    Each distinct value owns the interval between the midpoints to its
    neighbours, and its samples spread evenly over it; the percentile is
    read off that piecewise-linear distribution.  On all-distinct host
    times this interpolates between order statistics.  On simulated times,
    where thousands of blocks tie on a few values, it moves with the share
    of blocks at each value instead of sticking to one tied value.
    """
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    u = sorted(counts)
    if not u:
        raise ValueError("empty sample")
    target = q / 100.0 * len(values)
    below = 0
    for j, v in enumerate(u):
        c = counts[v]
        if below + c >= target or j == len(u) - 1:
            lo = v if j == 0 else (u[j - 1] + v) / 2
            hi = v if j == len(u) - 1 else (v + u[j + 1]) / 2
            return lo + max(0.0, target - below) / c * (hi - lo)
        below += c


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Host times are scaled to a reference machine speed.  The 2-vCPU VMs this
# runs on change speed by 30-50 % over seconds to minutes (CPU time tracks
# wall time, so it is contention, not stolen time).  A fixed interpreter
# loop timed next to each measurement tracks that speed: on the field
# workload it cut the run-to-run variation of trial time from 15 % to 4 %.
PROBE_REF_S = 0.0025   # the probe's time at the reference speed
BLOCK_S = 0.2          # trials between two probes


def probe_s() -> float:
    """Median time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(50000):
            x += i & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Runs trials; counts attempted and failed ones and folds the digest."""

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.probes = []

    def probe(self) -> float:
        p = probe_s()
        self.probes.append(p)
        return p

    def one(self, env, i: int, keep: bool = False):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.trial = i
        try:
            t = workloads.trial(env, i, self.seed, keep)
        except Exception:  # a raising trial is a failure; the run goes on
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return None
        if not t.valid:
            self.failed += 1
            print(f"trial {i}: correction does not reproduce the syndrome",
                  file=sys.stderr)
        if keep:
            self.digest.update(repr(t.digest).encode())
        return t

    def loop(self, env, seconds: float, first: int, min_trials: int,
             keep_below: int = 0) -> list:
        """Trials first, first+1, ... until both seconds and min_trials are met.

        Trials run in blocks of about BLOCK_S between two speed probes, and
        their host times are scaled by the probes' mean.
        """
        out = []
        deadline = perf_counter() + seconds
        i = first
        before = self.probe()
        while i - first < min_trials or perf_counter() < deadline:
            block = []
            block_end = perf_counter() + BLOCK_S
            while i - first < min_trials or perf_counter() < deadline:
                t = self.one(env, i, keep=i < keep_below)
                i += 1
                if t is not None:
                    block.append(t)
                if perf_counter() >= block_end:
                    break
            after = self.probe()
            scale = 2 * PROBE_REF_S / (before + after)
            for t in block:
                t.host_s *= scale
                t.decode_s *= scale
            out += block
            before = after
        return out

    def setups(self, name, prm, seed):
        """Set the workload up prm['setups'] times; returns (scaled times, last env)."""
        times, env = [], None
        for _ in range(prm["setups"]):
            env = None
            gc.collect()
            before = self.probe()
            t0 = perf_counter()
            env = workloads.setup(name, prm, seed)
            elapsed = perf_counter() - t0
            times.append(elapsed * 2 * PROBE_REF_S / (before + self.probe()))
        return times, env


def end_to_end(env, times, trials) -> dict:
    host = [t.host_s for t in trials]
    sims = [s for t in trials for s in t.sim]
    ms = [h * 1e3 for h in host]
    return {
        "setup_s": statistics.median(times),
        "trials_per_s": len(host) / sum(host),
        "trial_ms_p50": percentile(ms, 50),
        "trial_ms_p90": percentile(ms, 90),
        "epochs_per_s": len(trials) * env.epochs / sum(t.decode_s for t in trials),
        "peak_rss_mb": peak_rss_mb(),
        "sim_latency_p50_ns": percentile([s[0] for s in sims], 50),
        "sim_latency_p99_ns": percentile([s[0] for s in sims], 99),
        "sim_inv_throughput_ns": statistics.fmean(s[1] for s in sims),
    }


def accuracy_check(trials, lines) -> bool:
    """Wilson intervals of the fused and global logical error rates overlap."""
    n = len(trials)
    k_fused = sum(t.logical[0] for t in trials)
    k_glob = sum(t.logical[1] for t in trials)
    ci_f, ci_g = wilson_interval(k_fused, n), wilson_interval(k_glob, n)
    ok = intervals_overlap(ci_f, ci_g)
    lines.append(f"logical error rate over {n} trials: fused {k_fused / n:.5f} "
                 f"[{ci_f[0]:.5f}, {ci_f[1]:.5f}]  global {k_glob / n:.5f} "
                 f"[{ci_g[0]:.5f}, {ci_g[1]:.5f}]  overlap {'yes' if ok else 'NO'}")
    return ok


def run_plain(name, prm, seed, seconds, lines):
    run = Run(seed)
    times, env = run.setups(name, prm, seed)
    trials = run.loop(env, seconds, 0, prm["min_trials"], prm["replay_trials"])
    if not trials:
        return False, run, {}, {}
    ok = accuracy_check(trials, lines) if name == "accuracy" else True
    n_logical = sum(max(t.logical) for t in trials)
    lines.append(f"{len(times)} set-ups, {run.attempted} trials attempted, "
                 f"{run.failed} failed, {n_logical} with a logical error; "
                 f"sim_* over the first {prm['replay_trials']} trials, "
                 f"{sum(len(t.sim) for t in trials)} blocks")
    lines.append(f"digest sha256:{run.digest.hexdigest()} "
                 f"(corrections and replay of the first {prm['replay_trials']} trials)")
    lines.append(f"speed probe {1e3 * min(run.probes):.3f} / "
                 f"{1e3 * statistics.median(run.probes):.3f} / "
                 f"{1e3 * max(run.probes):.3f} ms (min / median / max of "
                 f"{len(run.probes)}); host times are scaled to {1e3 * PROBE_REF_S} ms")
    return ok and run.failed == 0, run, end_to_end(env, times, trials), END_TO_END


def _per(summary, span, field, per=1.0):
    row = summary.get(span)
    return row[field] / per if row else 0.0


def _mean_call(summary, span, scale):
    row = summary.get(span)
    return row[spans.TOTAL] / row[spans.CALLS] * scale if row else 0.0


def run_traced(name, prm, seed, seconds, lines):
    run = Run(seed)
    env = workloads.setup(name, prm, seed)
    plain = run.loop(env, seconds / 2, 0, prm["traced_trials"])
    first = run.attempted
    if name == "stream":
        qprm = dict(prm, epochs=prm["epochs"] // 4)
        env = None
        gc.collect()
        quarter_plain = run.loop(workloads.setup(name, qprm, seed), 0, 0,
                                 prm["quarter_trials"])

    tracer = spans.Tracer()
    env = None
    gc.collect()
    tracer.install()
    try:
        env = workloads.setup(name, prm, seed, tracer.span)
        tracer.phase = "trial"
        run.tracer = tracer
        traced = run.loop(env, 0, first, prm["traced_trials"])
        n_edges = env.table.n_edges
        if name == "stream":
            env = None
            gc.collect()
            tracer.phase, tracer.trial = "quarter_setup", -1
            qenv = workloads.setup(name, qprm, seed, tracer.span)
            tracer.phase = "quarter"
            run.loop(qenv, 0, 0, prm["quarter_trials"])
    finally:
        tracer.restore()

    if run.failed:
        return False, run, {}, {}
    S, T = tracer.summary("setup"), tracer.summary("trial")
    n = len(traced)
    m = {
        "graph.build_s": _per(S, "graph.build", spans.TOTAL),
        "graph.carve_s": _per(S, "graph.carve", spans.SELF),
        "graph.face_edges_calls": _per(T, "graph.face_edges", spans.CALLS, n),
        "graph.face_edges_s": _per(T, "graph.face_edges", spans.SELF, n),
        "uf.region_vids_s": _per(S, "uf.region_vids", spans.SELF),
        "uf.region_vids_calls": _per(S, "uf.region_vids", spans.CALLS),
        "uf.settle_s": _per(T, "uf.settle", spans.SELF, n),
        "uf.settle_calls": _per(T, "uf.settle", spans.CALLS, n),
        "uf.grow_iterations": _per(T, "uf.settle", spans.WORK, n),
        "uf.peel_s": _per(T, "uf.peel", spans.SELF, n),
        "uf.absorb_face_s": _per(T, "uf.absorb_face", spans.SELF, n),
        "uf.absorb_face_calls": _per(T, "uf.absorb_face", spans.CALLS, n),
        "uf.decode_region_us": _mean_call(T, "uf.decode_region", 1e6),
        "fusion.plan_decode_us": _mean_call(T, "fusion.plan_decode", 1e6),
        "fusion.fuse_s": _per(T, "fusion.fuse", spans.SELF, n),
        "fusion.fuse_calls": _per(T, "fusion.fuse", spans.CALLS, n),
        "windows.pipeline_init_s": _per(S, "windows.pipeline_init", spans.TOTAL),
        "windows.run_ms": _mean_call(T, "windows.run", 1e3),
        "windows.boundary_sends": _per(T, "windows.run", spans.WORK, n),
        "noise.edge_table_s": _per(S, "noise.edge_table", spans.TOTAL),
        "noise.sample_us": _mean_call(T, "noise.sample", 1e6),
        "noise.edges": float(n_edges),
        "noise.defects_per_trial": _per(T, "noise.sample", spans.WORK, n),
        "netsim.replayer_init_s": _per(S, "netsim.replayer_init", spans.TOTAL),
        "netsim.trace_ms": _mean_call(T, "netsim.trace", 1e3),
        "netsim.events": _per(T, "netsim.trace", spans.WORK, n),
        "wire.boundary_words": _per(T, "wire.pack_boundary_indices", spans.WORK, n),
    }
    m["fusion.fused_over_global"] = (
        m["fusion.plan_decode_us"] / m["uf.decode_region_us"]
        if m["uf.decode_region_us"] else 0.0)
    m["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(t.host_s for t in traced)
        / statistics.median(t.host_s for t in plain) - 1.0)
    m["windows.epoch_cost_growth"] = m["fusion.fuse_epoch_growth"] = 0.0
    if name == "stream":
        q_epochs = qprm["epochs"]
        full = statistics.median(t.decode_s for t in plain) / prm["epochs"]
        part = statistics.median(t.decode_s for t in quarter_plain) / q_epochs
        m["windows.epoch_cost_growth"] = full / part
        Q = tracer.summary("quarter")
        nq = prm["quarter_trials"]
        fuse_full = _per(T, "fusion.fuse", spans.SELF, n * prm["epochs"])
        fuse_part = _per(Q, "fusion.fuse", spans.SELF, nq * q_epochs)
        run_full = _per(T, "windows.run", spans.TOTAL, n * prm["epochs"])
        run_part = _per(Q, "windows.run", spans.TOTAL, nq * q_epochs)
        m["fusion.fuse_epoch_growth"] = fuse_full / fuse_part
        carried = (fuse_full - fuse_part) / (run_full - run_part) \
            if run_full > run_part else 0.0
        held = m["windows.epoch_cost_growth"] > 1.0 and carried > 0.5
        lines.append(
            f"claim 'per-epoch stream cost grows, carried by fusion.fuse': "
            f"{'HELD' if held else 'REFUTED'} (host time per epoch at "
            f"{prm['epochs']} epochs is {m['windows.epoch_cost_growth']:.2f}x "
            f"that at {q_epochs}; fuse self time per epoch grows "
            f"{m['fusion.fuse_epoch_growth']:.2f}x and makes up {100 * carried:.0f}% "
            f"of the traced per-epoch increase)")
    elif name == "field":
        share = m["uf.region_vids_s"] / m["windows.pipeline_init_s"]
        lines.append(
            f"claim 'uf.region_vids is most of Pipeline set-up': "
            f"{'HELD' if share > 0.5 else 'REFUTED'} ({m['uf.region_vids_s']:.3f} s "
            f"of {m['windows.pipeline_init_s']:.3f} s, {100 * share:.0f}%)")
    else:
        r = m["fusion.fused_over_global"]
        lines.append(
            f"claim 'fused decoding is slower than global': "
            f"{'HELD' if r > 1.0 else 'REFUTED'} (FusionPlan.decode "
            f"{m['fusion.plan_decode_us']:.0f} us vs decode_region "
            f"{m['uf.decode_region_us']:.0f} us per trial, ratio {r:.2f})")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl.gz")
    tracer.dump(path)
    lines.append(f"{len(tracer.spans)} spans over {n} traced trials written to "
                 f"{os.path.relpath(path, os.path.dirname(HERE))}; "
                 f"{len(plain)} untraced trials for the overhead")
    return True, run, m, PER_LAYER


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple:
    """Runs one workload; returns (report lines, result object)."""
    prm = workloads.params(name, tiny)
    lines = [f"workload {name} seed {seed}: "
             + " ".join(f"{k}={v}" for k, v in prm.items())]
    body = run_traced if trace else run_plain
    ok, run, metrics, units = body(name, prm, seed, seconds, lines)
    result = {
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return lines, result


def _run_all(args) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'metric':28s}" + "".join(f"{n:>16s}" for n in NAMES))
    for metric, unit in (PER_LAYER if args.trace else END_TO_END).items():
        vals = [results[n]["metrics"].get(metric, {}).get("value") for n in NAMES]
        print(f"{metric + ' [' + unit + ']':28s}"
              + "".join(f"{v:16.6g}" if v is not None else f"{'-':>16s}"
                        for v in vals))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*NAMES, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    for line in lines:
        print(line)
    if result["metrics"]:
        for k, v in result["metrics"].items():
            print(f"  {k:28s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
