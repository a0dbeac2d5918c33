"""Block-parallel union-find decoding for lattice-surgery surface codes."""

from .graph import DecodingGraph, Layout, Seam, carve_blocks, face_edges, merge_patches
from .fusion import FusionPlan, fuse
from .netsim import Instruction, LatencyModel, MetricsReport, Replayer, simulate
from .noise import EdgeTable, derived_rng, random_merge_schedule
from .topology import Topology, build_topology, route
from .uf import UfState, cut_parities, decode_region
from .windows import BoundaryInfo, Pipeline, PipelineStallError, assign_groups
from .wire import Message, decode_message, encode_message

__version__ = "0.1.0"

__all__ = [
    "BoundaryInfo", "DecodingGraph", "EdgeTable", "FusionPlan", "Instruction",
    "LatencyModel", "Layout", "Message", "MetricsReport", "Pipeline",
    "PipelineStallError", "Replayer", "Seam", "Topology", "UfState",
    "assign_groups", "build_topology", "carve_blocks", "cut_parities",
    "decode_message", "decode_region", "derived_rng", "encode_message",
    "face_edges", "fuse", "merge_patches", "random_merge_schedule", "route",
    "simulate",
]
