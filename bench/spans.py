"""In-memory span tracing of surgedec's public calls, installed at run time.

The tracer wraps public functions and methods of the library from outside
it and restores the originals afterwards; nothing under src/ changes.  A
module-level function is patched in every loaded surgedec module that
holds the same object, because fusion.py and windows.py import names such
as fuse and region_vids directly.  Methods are patched on their class.

Per-vertex hot calls (DecodingGraph.neighbors, UfState.grow_round) are
deliberately not wrapped: they run millions of times per trial and the
wrapper would dominate what it measures.

A span is (name, start, end, parent index, phase, trial, n), where n is a
work count read from the call's result (growth rounds, words, events).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from time import perf_counter

from surgedec import fusion, graph, netsim, noise, uf, windows, wire

# (span name, owner, attribute, work count taken from the result)
TARGETS = (
    ("graph.carve", graph, "carve_blocks", None),
    ("graph.face_edges", graph, "face_edges", None),
    ("uf.region_vids", uf, "region_vids", None),
    ("uf.settle", uf.UfState, "settle", lambda rounds: rounds),
    ("uf.peel", uf.UfState, "peel_resolved", None),
    ("uf.absorb_face", uf.UfState, "absorb_face", None),
    ("uf.decode_region", uf, "decode_region", None),
    ("fusion.fuse", fusion, "fuse", None),
    ("fusion.plan_init", fusion.FusionPlan, "__init__", None),
    ("fusion.plan_decode", fusion.FusionPlan, "decode", None),
    ("windows.pipeline_init", windows.Pipeline, "__init__", None),
    ("windows.run", windows.Pipeline, "run", lambda res: len(res.sends)),
    ("noise.edge_table", noise.EdgeTable, "__init__", None),
    ("noise.sample", noise.EdgeTable, "sample", lambda s: len(s.defects)),
    ("netsim.replayer_init", netsim.Replayer, "__init__", None),
    ("netsim.trace", netsim.Replayer, "trace", lambda tr: tr.events),
    ("wire.pack_boundary_indices", wire, "pack_boundary_indices", len),
)

# fields of one row of Tracer.summary()
CALLS, TOTAL, SELF, WORK = range(4)


class Tracer:
    """Records nested spans; install() patches the library, restore() undoes it."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.trial = -1
        self._stack = []
        self._saved = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, n):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.phase, self.trial, n)

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        idx, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0, 0)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            n = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(out)
                return out
            finally:
                self._close(idx, parent, name, t0, n)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "surgedec" or k.startswith("surgedec."))]
        for name, owner, attr, count in TARGETS:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, count)
            homes = [owner] if isinstance(owner, type) else \
                [m for m in mods if m.__dict__.get(attr) is orig]
            for home in homes:
                self._saved.append((home, attr, orig))
                setattr(home, attr, wrapped)

    def restore(self):
        while self._saved:
            home, attr, orig = self._saved.pop()
            setattr(home, attr, orig)

    def summary(self, phase) -> dict:
        """name -> [calls, total s, self s, work count] over one phase.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out = {}
        for i, (name, t0, t1, _, ph, _, n) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[CALLS] += 1
            row[TOTAL] += t1 - t0
            row[SELF] += t1 - t0 - child[i]
            row[WORK] += n
        return out

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
