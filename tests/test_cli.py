import csv
import json
import re

import pytest

from surgedec import cli
from surgedec.cli import main


def test_netcheck_passes():
    assert main(["netcheck", "--words", "500"]) == 0


def test_accuracy_writes_csv(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    rc = main(["accuracy", "--d", "3", "--p", "0.02", "--trials", "400",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert "d=3 p=0.02" in capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["trials"] == "400"
    assert float(rows[0]["ci_fused_hi"]) >= float(rows[0]["ler_fused"])


def test_scalability_with_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "d": 3, "epochs": 4, "qubit_grid": [2, 2], "merge_prob": 0.5,
        "seed": 3, "trials": 2, "topology": {"leaf_grid": [2, 2]},
    }))
    out = tmp_path / "rows.csv"
    rc = main(["scalability", "--config", str(cfg), "--p", "0.01",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "qubits=4 d=3 epochs=4 trials=2" in text
    assert re.search(r"logical_failures=\d+ global_failures=\d+\n", text)
    assert "first_group3_commit_latency_ns" in text
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 16  # 4 patches x 4 epochs, first trial
    assert set(rows[0]) == {"epoch", "patch", "latency_ns",
                            "inv_throughput_ns", "backlog_depth"}


def test_microbench_single_name(tmp_path, capsys):
    out = tmp_path / "micro.csv"
    rc = main(["microbench", "--name", "merge_split", "--d", "3",
               "--trials", "20", "--p", "0.005", "--out", str(out)])
    assert rc == 0
    assert "merge_split" in capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["qubits"] == "2"
    assert rows[0]["epochs"] == "3"


def test_zero_trials_is_rejected(tmp_path, monkeypatch):
    # accuracy rejects the count before it builds a graph
    monkeypatch.setattr(cli, "DecodingGraph", None)
    with pytest.raises(ValueError, match="trials"):
        main(["accuracy", "--d", "3", "--p", "0.02", "--trials", "0"])
    monkeypatch.undo()
    with pytest.raises(ValueError, match="trials"):
        main(["microbench", "--name", "merge_split", "--d", "3", "--trials", "0"])
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 3, "epochs": 2, "qubit_grid": [1, 2]}))
    with pytest.raises(ValueError, match="trials"):
        main(["scalability", "--config", str(cfg), "--trials", "0"])
