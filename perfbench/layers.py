"""Per-layer metrics from the traced run, named ``<module>.<function>_<what>``.

Which end-to-end metric each layer should move, on which workload, is
tabulated in README.md in this directory.
"""

import statistics

import numpy as np

import tracer as tr
import workloads

# Layers reported with calls, inclusive seconds and self seconds.
LAYERS = (
    "projections.project_H_columns",
    "projections.project_nonneg",
    "linalg.spectral_norm",
    "linalg.cholesky",
    "linalg.logdet_spd",
    "linalg.as_matrix",
    "initialization.snpa",
    "fgm.minimize_fgm",
    "baseline.minvol",
    "baseline.update_W",
    "baseline.update_H",
    "solver.sqrt_minvol",
    "metrics.rel_rmse_W",
    "metrics.rel_rmse_X",
    "datagen.make_instance",
)
# Hot kernels also reported as microseconds per call.
PER_CALL = ("projections.project_H_columns", "linalg.spectral_norm")
# Rounding allowed below zero in a self time or the un-spanned rest, in seconds.
ROUNDING_S = 1e-9
# Largest share of a traced call that no top-level span may cover.
UNSPANNED_MAX_SHARE = 0.01
# Largest share of a cell's span that its own ``wall_ms`` may leave out.
CELL_OUTSIDE_MAX_SHARE = 0.01


def _overfull(args, kwargs, result):
    H = np.asarray(args[0] if args else kwargs["H"], dtype=np.float64)
    over = np.maximum(H, 0.0).sum(axis=0) > 1.0
    return {"overfull_cols": int(np.count_nonzero(over)), "projected_cols": int(over.size)}


def _minvol(args, kwargs, state):
    """Sweeps of a baseline solve, and its outputs checked where they are made."""
    problems = (workloads.factor_problems(state.W, state.H)
                + workloads.descent_problems(state.objective_history, "baseline objective"))
    return {"sweeps": len(state.objective_history) - 1, "bad_results": len(problems)}


def _sqrt_minvol(args, kwargs, out):
    """Outer iterations of a solve, and its outputs checked where they are made."""
    pair, trace = out
    problems = (workloads.factor_problems(pair.W, pair.H)
                + workloads.descent_problems([row.f_eps for row in trace.rows], "f_eps"))
    return {"outer_iters": trace.rows[-1].k, "bad_results": len(problems)}


PROBES = {
    "projections.project_H_columns": _overfull,
    "baseline.minvol": _minvol,
    "solver.sqrt_minvol": _sqrt_minvol,
}


def names():
    """Every per-layer metric name with its unit, in output order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}_calls", "count"), (f"{layer}_s", "s"), (f"{layer}_self_s", "s")]
        if layer in PER_CALL:
            out.append((f"{layer}_us_per_call", "us"))
    out += [
        ("projections.overfull_col_frac", "frac"),
        ("fgm.projections_per_call", "count"),
        ("baseline.sweeps", "count"),
        ("solver.outer_iters", "count"),
        ("sweep.cells", "count"),
        ("sweep.faults", "count"),
        ("sweep.cell_s_p50", "s"),
        ("sweep.cell_s_max", "s"),
        ("sweep.worker_idle_s", "s"),
        ("trace.solve_s", "s"),
        ("trace.untraced_solve_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.probe_s", "s"),
        ("trace.unspanned_s", "s"),
    ]
    return out


def unspanned(stats, solve_s):
    """Part of a traced call that no top-level span or probe covers."""
    covered = sum(rec[1] for (parent, _), rec in stats.items() if parent == tr.ROOT)
    return solve_s - covered


def trace_problems(tracer, solve_s, records):
    """Checks of one traced call that fail when the spans do not account for it.

    Every edge's self time is non-negative, the top-level spans cover all
    but a small rest of the timed call, a sweep's cell spans agree with
    the ``wall_ms`` the program measures itself, and no probed result
    (checked inside the pool workers too) failed its checks.
    """
    problems = []
    for stats in (tracer.stats, tracer.worker_stats):
        for (parent, name), (calls, incl, self_s) in stats.items():
            if self_s < -ROUNDING_S:
                problems.append(f"{parent} -> {name}: self time {self_s!r} s over {calls} calls")
    rest = unspanned(tracer.stats, solve_s)
    if not -ROUNDING_S <= rest <= UNSPANNED_MAX_SHARE * solve_s:
        problems.append(f"{rest!r} s of the {solve_s!r} s call is outside the top-level spans")
    if records:
        cells = [0, 0.0]
        for stats in (tracer.stats, tracer.worker_stats):
            calls, incl, _ = tr.by_name(stats).get("sweep.run_cell", (0, 0.0, 0.0))
            cells[0] += calls
            cells[1] += incl
        wall = sum(r.wall_ms for r in records) / 1000.0
        if cells[0] != len(records):
            problems.append(f"spans of {cells[0]} cells collected for {len(records)} cells")
        elif not wall - ROUNDING_S <= cells[1] <= wall / (1.0 - CELL_OUTSIDE_MAX_SHARE):
            problems.append(f"cell spans add up to {cells[1]!r} s, cell wall_ms to {wall!r} s")
    bad = tracer.counters.get("bad_results", 0) + tracer.worker_counters.get("bad_results", 0)
    if bad:
        problems.append(f"{bad} probed solver results failed their checks")
    return problems


class Totals:
    """Traced totals over the calls of one run, parent and workers together."""

    def __init__(self):
        self.stats = {}
        self.setup_stats = {}
        self.counters = {}
        self.records = []
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.unspanned_s = 0.0

    def add_call(self, tracer, untraced_s, traced_s, records):
        tr.merge(self.stats, tracer.stats)
        tr.merge(self.stats, tracer.worker_stats)
        for counters in (tracer.counters, tracer.worker_counters):
            for key, inc in counters.items():
                self.counters[key] = self.counters.get(key, 0) + inc
        self.records.extend(records)
        self.untraced_s += untraced_s
        self.traced_s += traced_s
        self.unspanned_s += unspanned(tracer.stats, traced_s)

    def metrics(self, jobs):
        by = tr.by_name(self.stats)
        setup = tr.by_name(self.setup_stats)
        out = {}

        def put(name, value):
            out[name] = value

        for layer in LAYERS:
            calls, incl, self_s = by.get(layer, (0, 0.0, 0.0))
            if layer == "datagen.make_instance":
                s_calls, s_incl, s_self = setup.get(layer, (0, 0.0, 0.0))
                calls, incl, self_s = calls + s_calls, incl + s_incl, self_s + s_self
            put(f"{layer}_calls", calls)
            put(f"{layer}_s", incl)
            put(f"{layer}_self_s", self_s)
            if layer in PER_CALL:
                put(f"{layer}_us_per_call", 1e6 * incl / calls if calls else 0.0)
        projected = self.counters.get("projected_cols", 0)
        put("projections.overfull_col_frac",
            self.counters.get("overfull_cols", 0) / projected if projected else 0.0)
        fgm_calls = by.get("fgm.minimize_fgm", (0,))[0]
        put("fgm.projections_per_call",
            tr.child_calls(self.stats, "fgm.minimize_fgm", "projections.") / fgm_calls
            if fgm_calls else 0.0)
        put("baseline.sweeps", self.counters.get("sweeps", 0))
        put("solver.outer_iters", self.counters.get("outer_iters", 0))
        cell_s = [r.wall_ms / 1000.0 for r in self.records]
        put("sweep.cells", len(cell_s))
        put("sweep.faults", sum(r.status != "ok" for r in self.records))
        put("sweep.cell_s_p50", statistics.median(cell_s) if cell_s else 0.0)
        put("sweep.cell_s_max", max(cell_s, default=0.0))
        put("sweep.worker_idle_s", jobs * self.traced_s - sum(cell_s) if cell_s else 0.0)
        put("trace.solve_s", self.traced_s)
        put("trace.untraced_solve_s", self.untraced_s)
        put("trace.overhead_s", self.traced_s - self.untraced_s)
        put("trace.probe_s", by.get(tr.PROBE, (0, 0.0))[1])
        put("trace.unspanned_s", self.unspanned_s)
        return {name: {"value": out[name], "unit": unit} for name, unit in names()}

    def table(self):
        """Layer lines sorted by self time, with shares of the traced calls."""
        by = tr.by_name(self.stats)
        lines = [f"{'layer':34s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s} {'self%':>7s}"]
        total = self.traced_s or 1.0
        for name, (calls, incl, self_s) in sorted(by.items(), key=lambda kv: -kv[1][2]):
            lines.append(
                f"{name:34s} {calls:9d} {incl:10.4f} {self_s:10.4f} {100 * self_s / total:6.2f}%"
            )
        lines.append(f"{'(un-spanned)':34s} {'':9s} {'':10s} {self.unspanned_s:10.4f}")
        return lines
