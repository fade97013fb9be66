"""Per-layer tracing from outside the program.

`install()` wraps the public functions of the layer modules (plus the
`PointSet` constructor hook and `GridSpec.points`) in timing spans, and
rebinds each wrapper in every `ssdkit` module that imported the function by
name. A layer's self time is its span time minus the time of the spans it
caused. Work counts come from argument and result shapes only, so they
repeat exactly from run to run.

`pairwise_p` is never wrapped: `min_values_plus_gauge` tests
`gauge is pairwise_p` to pick the quadratic collapse, and a wrapper would
silently send quadratic-norm calls down the split-norm path. Its children
`pairwise_g` and `pairwise_q` are wrapped instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("spaces", "grids", "gridfn", "positivity", "fitzpatrick", "duality",
          "monotone", "suites", "cli")
NOT_WRAPPED = {"spaces.pairwise_p"}
METHODS = {"positivity.PointSet.__post_init__": "positivity.dedup",
           "grids.GridSpec.points": "grids"}
GROUPS = {
    "spaces.pairwise_sq_dists": "spaces.pairwise",
    "spaces.pairwise_q": "spaces.pairwise",
    "spaces.pairwise_g": "spaces.pairwise",
    "spaces.pairwise_norm": "spaces.pairwise",
    "gridfn.min_values_plus_gauge": "gridfn.inf",
    "gridfn.inf_conv": "gridfn.inf",
    "gridfn.sup_linear_minus": "gridfn.sup",
    "gridfn.convexity_defect": "gridfn.convexity",
    "duality.numerical_dual_norm": "duality.dual_norm_scan",
}
GRID_CONJUGATES = {"gridfn.conjugate", "gridfn.intrinsic_conjugate",
                   "gridfn.lsc_biconjugate_envelope"}

# every per-layer metric, in report order
METRICS = {
    "spaces.self_s": "s", "spaces.pairwise.calls": "count",
    "spaces.pairwise.self_s": "s", "spaces.pairwise.entries": "count",
    "grids.self_s": "s",
    "gridfn.self_s": "s",
    "gridfn.inf.calls": "count", "gridfn.inf.self_s": "s", "gridfn.inf.quad_share": "ratio",
    "gridfn.sup.calls": "count", "gridfn.sup.self_s": "s", "gridfn.sup.entries": "count",
    "gridfn.sup.finite_share": "ratio",
    "gridfn.sup_grid.self_s": "s", "gridfn.sup_grid.entries": "count",
    "gridfn.convexity.self_s": "s",
    "positivity.checks.self_s": "s",
    "positivity.dedup.self_s": "s", "positivity.dedup.rows_in": "count",
    "positivity.dedup.kept_share": "ratio",
    "fitzpatrick.self_s": "s",
    "duality.self_s": "s", "duality.dual_norm_scan.calls": "count",
    "duality.dual_norm_scan.self_s": "s",
    "monotone.self_s": "s",
    "suites.self_s": "s",
    "cli.self_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _group(key):
    if key in GROUPS:
        return GROUPS[key]
    if key in METHODS:
        return METHODS[key]
    module = key.split(".")[0]
    return "positivity.checks" if module == "positivity" else module


def _rows(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    """Span stack plus per-function and per-edge aggregates, kept in memory."""

    def __init__(self):
        self.stack = []                       # [key, time of child spans]
        self.self_s = defaultdict(float)      # function key -> self seconds
        self.calls = defaultdict(int)
        self.edges = defaultdict(lambda: [0, 0.0])   # (parent, child) -> [calls, s]
        self.counts = defaultdict(float)
        self.sup_grid_self = 0.0
        self.pairwise_p = None                # the unwrapped default gauge

    # -- work counts, from argument and result shapes -------------------------

    def _count(self, key, parent, bound):
        c = self.counts
        group = _group(key)
        if group == "spaces.pairwise":
            if parent is None or _group(parent) != "spaces.pairwise":
                c["pairwise.calls"] += 1
                c["pairwise.entries"] += _rows(bound["x_rows"]) * _rows(bound["y_rows"])
        elif key == "gridfn.sup_linear_minus":
            offsets = np.asarray(bound["offsets"], dtype=float).ravel()
            finite = int(np.count_nonzero(np.isfinite(offsets)))
            entries = _rows(bound["targets"]) * finite
            c["sup.entries"] += entries
            c["sup.finite"] += finite
            c["sup.offsets"] += offsets.size
            if parent in GRID_CONJUGATES:
                c["sup_grid.entries"] += entries
        elif key == "gridfn.min_values_plus_gauge":
            space = bound["space"]
            default = bound.get("gauge", self.pairwise_p) is self.pairwise_p
            c["inf.mvpg_calls"] += 1
            c["inf.quad_calls"] += bool(default and space.norm.quadratic_weight(space.dim)
                                        is not None)
        elif key == "positivity.PointSet.__post_init__":
            c["dedup.kept"] += len(bound["self"])

    def wrap(self, key, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            bound = sig.bind(*args, **kwargs)
            if key == "positivity.PointSet.__post_init__":
                pts = np.asarray(bound.arguments["self"].points)
                self.counts["dedup.rows_in"] += _rows(pts) if pts.size else 0
            frame = [key, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dt
                own = dt - frame[1]
                self.self_s[key] += own
                self.calls[key] += 1
                edge = self.edges[(parent, key)]
                edge[0] += 1
                edge[1] += dt
                if key == "gridfn.sup_linear_minus" and parent in GRID_CONJUGATES:
                    self.sup_grid_self += own
            self._count(key, parent, bound.arguments)
            return result

        return span

    # -- results ----------------------------------------------------------------

    def metrics(self, traced_pass_s, untraced_pass_s):
        by_group = defaultdict(float)
        calls = defaultdict(int)
        for key, s in self.self_s.items():
            by_group[_group(key)] += s
            calls[_group(key)] += self.calls[key]
        c = self.counts
        share = lambda a, b: a / b if b else 0.0
        values = {
            "spaces.pairwise.calls": c["pairwise.calls"],
            "spaces.pairwise.entries": c["pairwise.entries"],
            "gridfn.inf.calls": calls["gridfn.inf"],
            "gridfn.inf.quad_share": share(c["inf.quad_calls"], c["inf.mvpg_calls"]),
            "gridfn.sup.calls": calls["gridfn.sup"],
            "gridfn.sup.entries": c["sup.entries"],
            "gridfn.sup.finite_share": share(c["sup.finite"], c["sup.offsets"]),
            "gridfn.sup_grid.self_s": self.sup_grid_self,
            "gridfn.sup_grid.entries": c["sup_grid.entries"],
            "positivity.dedup.rows_in": c["dedup.rows_in"],
            "positivity.dedup.kept_share": share(c["dedup.kept"], c["dedup.rows_in"]),
            "duality.dual_norm_scan.calls": calls["duality.dual_norm_scan"],
            "unattributed_s": traced_pass_s - sum(by_group.values()),
            "trace.overhead_s": traced_pass_s - untraced_pass_s,
        }
        for name in METRICS:
            if name.endswith(".self_s") and name not in values:
                values[name] = by_group[name[: -len(".self_s")]]
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in METRICS.items()}

    def spans(self):
        """Aggregated spans: per function, and per (caller, callee) edge."""
        return {
            "functions": {k: {"calls": self.calls[k], "self_s": s}
                          for k, s in sorted(self.self_s.items(), key=lambda e: -e[1])},
            "edges": [{"parent": p, "span": k, "calls": n, "total_s": s}
                      for (p, k), (n, s) in sorted(self.edges.items(),
                                                   key=lambda e: -e[1][1])],
        }


def _targets():
    """(key, owner, attribute name, function) for every span to install."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ssdkit.{layer}")
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and key not in NOT_WRAPPED):
                out.append((key, mod, name, obj))
    for key in METHODS:
        layer, cls_name, name = key.split(".")
        cls = getattr(importlib.import_module(f"ssdkit.{layer}"), cls_name)
        out.append((key, cls, name, vars(cls)[name]))
    return out


def install(tracer: Tracer):
    """Wrap every layer function and rebind it wherever ssdkit imported it."""
    tracer.pairwise_p = importlib.import_module("ssdkit.spaces").pairwise_p
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "ssdkit" or n.startswith("ssdkit."))]
    for key, owner, name, fn in _targets():
        wrapper = tracer.wrap(key, fn)
        setattr(owner, name, wrapper)
        if inspect.isclass(owner):
            continue
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
