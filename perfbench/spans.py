"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` rebinds the module attributes through which the program
calls its layers (``scribsup.cli``'s imported names and each layer module's
public functions), so calls between layers, such as ``slic3d`` into
``enforce_connectivity`` or ``total_loss`` into its three terms, become
child spans. Spans are kept in memory and only recorded while a unit is
open; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import opcounts

MIB = float(1 << 20)

# (module, attribute) pairs the tracer rebinds; the span is named after the
# function's home module, so ``scribsup.cli.read_nifti`` is volume_io.read_nifti.
TRACED = [
    ("cli", "run_pipeline"),
    ("cli", "read_nifti"),
    ("cli", "write_nifti"),
    ("cli", "crop_or_pad"),
    ("volume_io", "read_nifti"),
    ("volume_io", "write_nifti"),
    ("volume_io", "crop_or_pad"),
    ("scribble_sim", "simulate_foreground_scribbles"),
    ("scribble_sim", "simulate_background_scribble"),
    ("supervoxel", "slic3d"),
    ("supervoxel", "enforce_connectivity"),
    ("label_propagation", "propagate"),
    ("label_propagation", "static_boundary"),
    ("refnet", "build"),
    ("refnet", "forward"),
    ("losses", "total_loss"),
    ("losses", "boundary_loss"),
    ("losses", "partial_ce"),
    ("losses", "active_boundary_loss"),
    ("metrics", "evaluate"),
    ("metrics", "hd95"),
]

# Functions whose Python-heap peak is taken with tracemalloc around the call.
ALLOC_TRACED = ("refnet.forward", "losses.total_loss")


def _fg_slices(scribbles):
    idx, cls = scribbles.indices, scribbles.classes.astype(np.int64)
    return len(np.unique(cls * (1 << 20) + idx[:, 2])) if len(cls) else 0


# Counters read off a call's arguments (by parameter name) and result:
# span name -> fn(arguments, result).
COUNTERS = {
    "volume_io.read_nifti": lambda a, r: {"volume_io.read_nifti.mib": os.path.getsize(a["path"]) / MIB},
    "volume_io.write_nifti": lambda a, r: {"volume_io.write_nifti.mib": os.path.getsize(a["path"]) / MIB},
    "scribble_sim.simulate_foreground_scribbles": lambda a, r: {
        "scribble_sim.scribble_voxels": len(r),
        "scribble_sim.fg_slices": _fg_slices(r),
    },
    "scribble_sim.simulate_background_scribble": lambda a, r: {"scribble_sim.scribble_voxels": len(r)},
    "supervoxel.slic3d": lambda a, r: {
        "supervoxel.count": r.count,
        "supervoxel.window_evals": opcounts.slic_window_evals(
            a["vol"].shape, a["vol"].spacing, a["params"]),
    },
    "label_propagation.propagate": lambda a, r: {
        "label_propagation.confident_frac": float(r.confident.data.mean())
    },
    "label_propagation.static_boundary": lambda a, r: {
        "label_propagation.edge_density": float(r.data.mean())
    },
    "refnet.forward": lambda a, r: {
        "refnet.forward.gmacs": opcounts.refnet_gmacs(a["net"], a["patch"].shape)
    },
    "cli.run_pipeline": lambda a, r: {
        "cli.hashed_mib": sum(os.path.getsize(x["path"]) for x in r["artifacts"]) / MIB
    },
}


class Tracer:
    """Records spans ``(unit, name, start, end, parent)`` and per-unit counters."""

    def __init__(self):
        self.spans = []  # [unit, name, start, end, parent index or None]
        self.counters = defaultdict(float)  # (unit, metric) -> value
        self.alloc_peak = defaultdict(float)  # name -> MiB, max over units
        self.unit = None
        self._stack = []
        self._saved = []

    def install(self):
        for mod_name, attr in TRACED:
            mod = importlib.import_module(f"scribsup.{mod_name}")
            fn = getattr(mod, attr)
            home = fn.__module__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{home}.{attr}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [self.unit, name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if alloc:
                tracemalloc.start()
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                    self.alloc_peak[name] = max(self.alloc_peak[name], peak)
                self._stack.pop()
            self.counters[(self.unit, f"{name}.calls")] += 1
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                for key, value in counter(arguments, result).items():
                    self.counters[(self.unit, key)] += value
            return result

        return traced

    def per_unit(self, units):
        """Per-unit means of busy and self time and of every counter."""
        busy = defaultdict(float)
        child = defaultdict(float)
        for unit, name, start, end, parent in self.spans:
            if unit not in units:
                continue
            busy[name] += end - start
            if parent is not None:
                child[self.spans[parent][1]] += end - start
        n = len(units)
        out = {f"{k}.busy_s": v / n for k, v in busy.items()}
        out.update({f"{k}.self_s": (busy[k] - child[k]) / n for k in busy})
        totals = defaultdict(float)
        for (unit, key), value in self.counters.items():
            if unit in units:
                totals[key] += value
        out.update({k: v / n for k, v in totals.items()})
        out.update({f"{k}.alloc_peak_mib": v for k, v in self.alloc_peak.items()})
        return out

    def dump(self):
        return [
            {"unit": u, "name": n, "start": s, "end": e, "parent": p}
            for u, n, s, e, p in self.spans
        ]
