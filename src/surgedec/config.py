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


def parse_config(data: dict) -> RunConfig:
    bad = set(data) - _TOP_KEYS
    if bad:
        raise ValueError(f"unknown config keys {sorted(bad)}")
    kwargs = {}
    for key in ("d", "epochs", "merge_prob", "seed", "trials"):
        if key in data:
            kwargs[key] = data[key]
    if "qubit_grid" in data:
        kwargs["qubit_grid"] = tuple(data["qubit_grid"])
        if min(kwargs["qubit_grid"]) < 1:
            raise ValueError(f"qubit_grid dimensions must be at least 1, got {data['qubit_grid']}")
    topo = data.get("topology", {})
    bad = set(topo) - _TOPO_KEYS
    if bad:
        raise ValueError(f"unknown topology keys {sorted(bad)}")
    if "fanout" in topo:
        kwargs["fanout"] = topo["fanout"]
    if "leaf_grid" in topo:
        kwargs["leaf_grid"] = tuple(topo["leaf_grid"])
    lat = data.get("latency", {})
    bad = set(lat) - _LAT_KEYS
    if bad:
        raise ValueError(f"unknown latency keys {sorted(bad)}")
    kwargs["latency"] = dataclasses.replace(LatencyModel(), **lat)
    return RunConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))
