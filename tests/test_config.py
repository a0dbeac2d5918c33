import json

import pytest

from surgedec.config import RunConfig, load_config, parse_config
from surgedec.netsim import LatencyModel


def test_defaults():
    cfg = RunConfig()
    assert cfg.d == 5
    assert cfg.epochs == 100
    assert cfg.qubit_grid == (10, 10)
    assert cfg.latency == LatencyModel()


def test_parse_overrides_and_merges_latency():
    cfg = parse_config({
        "d": 3,
        "qubit_grid": [2, 3],
        "topology": {"leaf_grid": [1, 2], "fanout": 4},
        "latency": {"t_link_ns": 200},
    })
    assert cfg.d == 3
    assert cfg.qubit_grid == (2, 3)
    assert cfg.leaf_grid == (1, 2)
    assert cfg.fanout == 4
    assert cfg.latency.t_link_ns == 200
    assert cfg.latency.t_round_ns == 1000  # untouched defaults stay


def test_unknown_keys_rejected():
    with pytest.raises(ValueError):
        parse_config({"dee": 3})
    with pytest.raises(ValueError):
        parse_config({"topology": {"depth": 2}})
    with pytest.raises(ValueError):
        parse_config({"latency": {"t_round": 1000}})
    with pytest.raises(ValueError):
        parse_config({"extended_ids": True})


def test_load_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"epochs": 8, "seed": 42}))
    cfg = load_config(str(path))
    assert cfg.epochs == 8
    assert cfg.seed == 42
