"""Checks of the benchmark itself: python3 -m pytest bench -q

Each workload runs at a tiny size, untraced and traced, and must report
every metric BENCHMARK.json names with the unit it declares.  The validity
check must flag a corrupted correction.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from surgedec import fusion, uf, windows  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("tiny", [False, True])
def test_sim_metrics_cover_a_fixed_prefix(tiny):
    for name in run.NAMES:
        prm = workloads.params(name, tiny)
        assert prm["min_trials"] >= prm["replay_trials"] >= 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    _, res = run.run_workload(name, seed=5, seconds=0.05, trace=trace, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_same_seed_gives_same_inputs_and_outputs():
    prm = workloads.params("field", tiny=True)
    a = workloads.setup("field", prm, seed=9)
    b = workloads.setup("field", prm, seed=9)
    ta, tb = workloads.trial(a, 0, 9, True), workloads.trial(b, 0, 9, True)
    assert ta.digest == tb.digest and ta.sim == tb.sim


def test_validity_check_flags_a_dropped_edge():
    prm = workloads.params("accuracy", tiny=True)
    env = workloads.setup("accuracy", prm, seed=3)
    rng = workloads.noise.derived_rng(3, 0)
    sample = env.table.sample(0.05, rng)
    correction = env.plan.decode(sample.defects)
    assert correction and workloads.correction_valid(correction, sample.defects)
    dropped = set(correction)
    dropped.pop()
    assert not workloads.correction_valid(dropped, sample.defects)
    assert not workloads.correction_valid(correction, set(sample.defects) | {-5})


def test_tracer_restores_every_patched_name():
    before = (uf.region_vids, fusion.fuse, windows.fuse, windows.region_vids,
              uf.UfState.settle, windows.Pipeline.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert windows.fuse is not before[2] and windows.region_vids is not before[3]
        env = workloads.setup("stream", workloads.params("stream", tiny=True), 1,
                              tracer.span)
    finally:
        tracer.restore()
    after = (uf.region_vids, fusion.fuse, windows.fuse, windows.region_vids,
             uf.UfState.settle, windows.Pipeline.__init__)
    assert after == before
    s = tracer.summary("setup")
    assert s["windows.pipeline_init"][spans.CALLS] == 1
    # region_vids runs inside Pipeline.__init__, so it is a child span
    assert s["windows.pipeline_init"][spans.SELF] < s["windows.pipeline_init"][spans.TOTAL]
    assert env.pipe.epochs == 40


def test_percentile_interpolates_tied_values():
    assert run.percentile([1.0, 3.0], 50) == 2.0
    assert run.percentile([5.0] * 9, 50) == 5.0
    low = run.percentile([100] * 60 + [200] * 40, 50)
    high = run.percentile([100] * 50 + [200] * 50, 50)
    assert 100 < low < high <= 150
    assert run.percentile([1, 2, 3], 100) == 3
