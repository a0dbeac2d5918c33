"""JSON run configuration for the command line tools."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .netsim import LatencyModel


@dataclass(frozen=True)
class RunConfig:
    d: int = 5
    epochs: int = 100
    qubit_grid: tuple = (10, 10)
    merge_prob: float = 0.5
    seed: int = 7
    trials: int = 1
    fanout: int = 25
    leaf_grid: tuple = (2, 2)
    latency: LatencyModel = LatencyModel()


_TOP_KEYS = {"d", "epochs", "qubit_grid", "merge_prob", "seed", "trials",
             "topology", "latency"}
_TOPO_KEYS = {"fanout", "leaf_grid"}
_LAT_KEYS = {f.name for f in dataclasses.fields(LatencyModel)}


def _grid_shape(value, key: str) -> tuple:
    """(rows, cols) of a grid given as two positive integers; anything
    else raises ValueError naming key."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(x) is int and x >= 1 for x in value)):
        raise ValueError(f"{key} must be two positive integers, got {value!r}")
    return tuple(value)


def parse_config(data: dict) -> RunConfig:
    bad = set(data) - _TOP_KEYS
    if bad:
        raise ValueError(f"unknown config keys {sorted(bad)}")
    kwargs = {}
    for key in ("d", "epochs", "merge_prob", "seed", "trials"):
        if key in data:
            kwargs[key] = data[key]
    if "qubit_grid" in data:
        kwargs["qubit_grid"] = _grid_shape(data["qubit_grid"], "qubit_grid")
    topo = data.get("topology", {})
    bad = set(topo) - _TOPO_KEYS
    if bad:
        raise ValueError(f"unknown topology keys {sorted(bad)}")
    if "fanout" in topo:
        kwargs["fanout"] = topo["fanout"]
    if "leaf_grid" in topo:
        kwargs["leaf_grid"] = _grid_shape(topo["leaf_grid"], "topology.leaf_grid")
    lat = data.get("latency", {})
    bad = set(lat) - _LAT_KEYS
    if bad:
        raise ValueError(f"unknown latency keys {sorted(bad)}")
    kwargs["latency"] = dataclasses.replace(LatencyModel(), **lat)
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))
