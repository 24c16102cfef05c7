"""Span tracing of the ``sqrtminvol`` layers, installed from outside the package.

Every public function of every submodule (the functions a module
defines and lists in ``__all__``) is wrapped, and the wrapper is patched
into each module of the package that holds the original, so calls the
package makes internally go through it as well: ``project_H_columns``
is patched in ``projections``, ``baseline`` and ``initialization``,
``snpa`` in ``initialization``, ``solver`` and ``sweep``.  Nothing in the
package itself changes, and uninstalling restores every original.

A span records its name, its duration and the span that was open when it
started.  Spans are folded into per-edge totals as they close, keyed by
``(parent name, name)``: calls, inclusive seconds and self seconds, where
self time is the span's duration minus the time its child spans cover.
Folding keeps memory flat across the ~10^5 projection calls of a solve.

Probes count useful work at a boundary (overfull columns per projection
call, sweeps per ``minvol`` call).  A probe runs after its span has
closed and its time is booked to its own ``trace.probe`` edge, so it
inflates no layer's self time.

Pool workers forked by ``sweep.run_sweep`` inherit the patched modules.
A worker resets its totals before each ``sweep.run_cell`` and attaches
them to the returned record; :meth:`Tracer.collect` moves them into
:attr:`Tracer.worker_stats` in the parent.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time

ROOT = "<root>"
PROBE = "trace.probe"
SHIPPED_ATTR = "_perfbench_trace"
WORKER_ROOTS = ("sweep.run_cell",)


def _add(stats, key, calls, incl, self_s):
    rec = stats.get(key)
    if rec is None:
        stats[key] = [calls, incl, self_s]
    else:
        rec[0] += calls
        rec[1] += incl
        rec[2] += self_s


def merge(into, stats):
    """Add the edge totals of ``stats`` into ``into``."""
    for key, (calls, incl, self_s) in stats.items():
        _add(into, key, calls, incl, self_s)


def public_functions(package):
    """``{"module.name": function}`` for every public function of ``package``."""
    found = {}
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


class Tracer:
    """Per-layer spans and counters for one process and its forked workers.

    ``probes`` maps a qualified name to ``probe(args, kwargs, result)``,
    which returns a dict of counter increments.
    """

    def __init__(self, package, probes=None):
        self.package = package
        self.probes = dict(probes or {})
        self.stats = {}
        self.counters = {}
        self.worker_stats = {}
        self.worker_counters = {}
        self._stack = [[ROOT, 0.0]]
        self._patches = []
        self._pid = os.getpid()

    def reset(self):
        """Drop all totals; the wrappers keep references, so clear in place."""
        self.stats.clear()
        self.counters.clear()
        self.worker_stats.clear()
        self.worker_counters.clear()
        self._stack[:] = [[ROOT, 0.0]]

    def _wrap(self, qname, fn):
        stack, stats, counters = self._stack, self.stats, self.counters
        probe = self.probes.get(qname)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [qname, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                _add(stats, (parent[0], qname), 1, dur, dur - frame[1])
            if probe is not None:
                t1 = clock()
                for key, inc in probe(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + inc
                pdur = clock() - t1
                parent[1] += pdur
                _add(stats, (parent[0], PROBE), 1, pdur, pdur)
            return result

        functools.update_wrapper(traced, fn)
        if qname not in WORKER_ROOTS:
            return traced

        def shipped(*args, **kwargs):
            if os.getpid() == self._pid:
                return traced(*args, **kwargs)
            # In a forked worker: report this cell's totals with its record.
            self.reset()
            result = traced(*args, **kwargs)
            setattr(result, SHIPPED_ATTR, (dict(stats), dict(counters)))
            self.reset()
            return result

        return functools.update_wrapper(shipped, fn)

    def install(self):
        """Patch a wrapper over every reference the package holds."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._pid = os.getpid()
        wrappers = {
            id(fn): (fn, self._wrap(qname, fn))
            for qname, fn in public_functions(self.package).items()
        }
        prefix = self.package.__name__ + "."
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package.__name__ or name.startswith(prefix))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def collect(self, records):
        """Move the totals that forked workers attached to ``records``."""
        for rec in records:
            shipped = rec.__dict__.pop(SHIPPED_ATTR, None)
            if shipped is not None:
                stats, counters = shipped
                merge(self.worker_stats, stats)
                for key, inc in counters.items():
                    self.worker_counters[key] = self.worker_counters.get(key, 0) + inc

    def patched_count(self):
        return len(self._patches)


def by_name(stats):
    """Fold edge totals to ``{name: [calls, inclusive_s, self_s]}``."""
    out = {}
    for (_, name), (calls, incl, self_s) in stats.items():
        _add(out, name, calls, incl, self_s)
    return out


def child_calls(stats, parent, prefix):
    """Calls of spans named ``prefix*`` whose parent span is ``parent``."""
    return sum(
        rec[0] for (p, name), rec in stats.items() if p == parent and name.startswith(prefix)
    )
