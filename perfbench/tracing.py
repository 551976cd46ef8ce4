"""Spans around the calls ``hybridbec.cli`` makes into each module.

The program is not modified: while a case runs traced, the names the
``cli`` namespace calls (``solve_coupled_gpe``, ``write_csv``, ...) are
replaced by wrappers that record a span - name, start, end, parent span,
case - plus the counts the layer reports (iterations, skipped modes,
bytes written).  Spans stay in memory and are written when the benchmark
ends.  A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# cli attribute -> (span name, counts taken from the result or the error)
LAYERS = {
    "main": ("cli", None),
    "load_config": ("config.load", None),
    "solve_coupled_gpe": ("gpe.solve", lambda out, args: {"iterations": out.iterations}),
    "direct_grid_spectrum": ("bdg.grid", lambda out, args: {
        "n": args[2].n_points, "skipped": sum(ms.skipped for ms in out)}),
    "block_2x2_spectrum": ("bdg.block", None),
    "paper_literal_spectrum": ("bdg.paper", None),
    "density_profile": ("thermal.profile", lambda out, args: {
        "excluded": out.excluded_nonpositive + out.excluded_undefined}),
    "total_numbers": ("thermal.totals", None),
    "minimize_mode": ("variational.minimize", None),
    "figure3_curve": ("uniform.figure3", lambda out, args: {"points": len(out)}),
    "write_csv": ("csvio.write", lambda out, args: {"bytes": out.stat().st_size}),
}

GRID_SIZES = (200, 400, 800, 1600)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.case = None

    def _wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "case": self.case,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "start": time.perf_counter()}
            self.spans.append(span)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
                if counts:
                    span.update(counts(out, args))
                return out
            except Exception as exc:
                # solver errors carry the iterations they spent
                if getattr(exc, "iterations", None) is not None:
                    span["iterations"] = exc.iterations
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self, module):
        saved = {attr: getattr(module, attr) for attr in LAYERS}
        for attr, (name, counts) in LAYERS.items():
            setattr(module, attr, self._wrap(name, saved[attr], counts))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)


def self_times(spans):
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def layer_metrics(spans, loop_cases, cycles):
    """Per-layer metrics.

    Times are medians of self time per call over every traced call (the
    workload loop and the layer record, so each layer has calls on every
    workload).  Counts are per cycle of the workload loop only, so they
    show what the workload asks of each layer and repeat exactly.
    """
    own = self_times(spans)

    def calls(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def median_self(name, **match):
        picked = calls(name, **match)
        return statistics.median(own[s["id"]] for s in picked) if picked else 0.0

    def per_cycle(name, key=None):
        picked = [s for s in calls(name) if s["case"] in loop_cases]
        return sum(s.get(key, 0) if key else 1 for s in picked) / cycles

    gpe = calls("gpe.solve")
    iterations = sum(s.get("iterations", 0) for s in gpe)
    m = {
        "gpe.solve_s": (median_self("gpe.solve"), "s"),
        "gpe.solve_calls": (per_cycle("gpe.solve"), "count"),
        "gpe.iterations": (per_cycle("gpe.solve", "iterations"), "count"),
        "gpe.us_per_iteration": (
            1e6 * sum(own[s["id"]] for s in gpe) / max(iterations, 1), "us"),
    }
    for n in GRID_SIZES:
        m[f"bdg.grid_s.n{n}"] = (median_self("bdg.grid", n=n), "s")
    m.update({
        "bdg.grid_calls": (per_cycle("bdg.grid"), "count"),
        "bdg.grid_skipped_modes": (per_cycle("bdg.grid", "skipped"), "count"),
        "bdg.block_s": (median_self("bdg.block"), "s"),
        "bdg.block_calls": (per_cycle("bdg.block"), "count"),
        "bdg.paper_s": (median_self("bdg.paper"), "s"),
        "thermal.profile_s": (median_self("thermal.profile"), "s"),
        "thermal.profile_calls": (per_cycle("thermal.profile"), "count"),
        "thermal.modes_excluded": (per_cycle("thermal.profile", "excluded"), "count"),
        "variational.minimize_s": (median_self("variational.minimize"), "s"),
        "variational.minimize_calls": (per_cycle("variational.minimize"), "count"),
        "uniform.figure3_s": (median_self("uniform.figure3"), "s"),
        "uniform.points": (per_cycle("uniform.figure3", "points"), "count"),
        "csvio.write_s": (median_self("csvio.write"), "s"),
        "csvio.files": (per_cycle("csvio.write"), "count"),
        "csvio.bytes": (per_cycle("csvio.write", "bytes"), "B"),
        "config.load_s": (median_self("config.load"), "s"),
        "cli.self_s": (median_self("cli"), "s"),
    })
    return m
