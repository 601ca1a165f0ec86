"""Spans around the boundary callables of ``nhcomp``, installed from outside.

The program is not changed. :func:`installed` replaces module attributes
(``nhcomp.homsolve.solve``, ``nhcomp._kernels.residual_scan``, ...) with
wrappers that record one span per call, and restores them on exit. Callers
look these names up at call time (``hs.sweep``, ``_k.residual_scan``, a
module-global ``solve``), so the wrappers see every call. A function that
another module imported by name is wrapped under that module too, with the
same span name.

The per-point scalars ``_kernels.transverse_residual`` and ``h_tuple`` are
deliberately not wrapped: they run 2001 times per scan, and a wrapper there
would swamp the run. Residual-evaluation counts come from the ``n``
argument of ``residual_scan`` and the iteration count ``bisect_log``
returns instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time


class Span:
    """One call of a wrapped callable: name, interval, parent and counts."""

    __slots__ = ("name", "t0", "t1", "parent", "work", "flags")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.work = 0  # layer-specific count: scan points, iterations, states
        self.flags = ()  # layer-specific outcomes: "error", "converged", ...


class Tracer:
    """Keeps a span stack per thread and every finished span in memory."""

    def __init__(self):
        self._local = threading.local()
        self._main_stack = None
        self.spans = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread's outermost span was caused by whatever the main
        # thread has open (``cli.main`` waiting on the pool).
        main = self._main_stack
        if main is not None and stack is not main and main:
            return main[-1]
        return None

    def wrap(self, name, fn, measure=None):
        """``fn`` wrapped to record a span named ``name``.

        ``measure(args, result)`` returns ``(work, flags)`` for the span; it
        runs after the clock stops. A raised exception adds the flag
        ``error`` (plus the exception's class name) and propagates.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self._parent(stack))
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.flags = ("error", type(exc).__name__)
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                span.work, span.flags = measure(args, result)
            return result

        return wrapper


def _scan_points(args, result):
    return args[10], ()  # residual_scan(kind, family, par, case, lam, mu, lam_e, K, u_lo, u_hi, n, out)


def _bisect_iters(args, result):
    return result[2], ()  # bisect_log returns (u, width, iterations)


def _solve_outcome(args, result):
    flags = ("converged",) if result.converged else ()
    if result.warning:
        flags += ("multi_root",)
    return 0, flags


def _grid_points(args, result):
    return len(args[1]), ()  # evaluate_grid(vf, Js)


def _states(args, result):
    return len(args[3]), ()  # min_coaxial_eig(kind, volfun, params, lams, ...)


# (module, attribute, span name, measure). Each line is one binding a caller
# looks up at call time.
TARGETS = (
    ("nhcomp.cli", "main", "cli.main", None),
    ("nhcomp.homsolve", "sweep", "homsolve.sweep", None),
    ("nhcomp.homsolve", "limit_probe", "homsolve.limit_probe", None),
    ("nhcomp.homsolve", "solve", "homsolve.solve", _solve_outcome),
    ("nhcomp.homsolve", "residual", "homsolve.residual", None),
    ("nhcomp.homsolve", "cauchy_stress", "materials.cauchy_stress", None),
    ("nhcomp.homsolve", "evaluate", "volfun.evaluate", None),
    ("nhcomp._kernels", "residual_scan", "kernels.residual_scan", _scan_points),
    ("nhcomp._kernels", "bisect_log", "kernels.bisect_log", _bisect_iters),
    ("nhcomp.volfun", "evaluate", "volfun.evaluate", None),
    ("nhcomp.volfun", "evaluate_grid", "volfun.evaluate_grid", _grid_points),
    ("nhcomp.materials", "evaluate", "volfun.evaluate", None),
    ("nhcomp.materials", "cauchy_stress", "materials.cauchy_stress", None),
    ("nhcomp.stability", "evaluate", "volfun.evaluate", None),
    ("nhcomp.stability", "evaluate_grid", "volfun.evaluate_grid", _grid_points),
    ("nhcomp.stability", "cauchy_stress", "materials.cauchy_stress", None),
    ("nhcomp.stability", "min_coaxial_eig", "stability.min_coaxial_eig", _states),
    ("nhcomp.stability", "tangent_fd_error", "stability.tangent_fd_error", None),
)


@contextlib.contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, measure in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# aggregation


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_table(spans):
    """Per span name: calls, total and self seconds, work, flag counts, durations."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.t0, s.t1))
    table = {}
    for s in spans:
        row = table.setdefault(
            s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "flags": {}, "durations": []}
        )
        dur = s.t1 - s.t0
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - _covered(children.get(id(s), ()), s.t0, s.t1)
        row["work"] += s.work
        row["durations"].append(dur)
        for flag in s.flags:
            row["flags"][flag] = row["flags"].get(flag, 0) + 1
    return table


def exact_counts(table):
    """The counts that must repeat exactly between two passes of one workload."""
    return {
        "homsolve.solve.calls": _get(table, "homsolve.solve", "calls"),
        "kernels.residual_scan.points": _get(table, "kernels.residual_scan", "work"),
        "kernels.bisect_log.iters": _get(table, "kernels.bisect_log", "work"),
        "volfun.evaluate_grid.points": _get(table, "volfun.evaluate_grid", "work"),
    }


def _get(table, name, key):
    return table.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def per_layer_metrics(table):
    """The per-layer metrics of one traced pass, as ``{name: (value, unit)}``."""

    def g(name, key):
        return _get(table, name, key)

    def flag(name, f):
        return table.get(name, {}).get("flags", {}).get(f, 0)

    solves = g("homsolve.solve", "calls")
    solve_us = sorted(d * 1e6 for d in table.get("homsolve.solve", {}).get("durations", ()))
    scan_calls = g("kernels.residual_scan", "calls")
    scan_points = g("kernels.residual_scan", "work")
    bisect_iters = g("kernels.bisect_log", "work")
    residual_calls = g("homsolve.residual", "calls")
    grid_points = g("volfun.evaluate_grid", "work")
    eig_states = g("stability.min_coaxial_eig", "work")
    eig_s = g("stability.min_coaxial_eig", "s")
    m = {
        "kernels.residual_scan.calls": (scan_calls, "count"),
        "kernels.residual_scan.points": (scan_points, "count"),
        "kernels.residual_scan.s": (g("kernels.residual_scan", "s"), "s"),
        "kernels.bisect_log.calls": (g("kernels.bisect_log", "calls"), "count"),
        "kernels.bisect_log.iters": (bisect_iters, "count"),
        "kernels.bisect_log.s": (g("kernels.bisect_log", "s"), "s"),
        "homsolve.solve.calls": (solves, "count"),
        "homsolve.solve.s": (g("homsolve.solve", "s"), "s"),
        "homsolve.solve.self_s": (g("homsolve.solve", "self_s"), "s"),
        "homsolve.solve.p50_us": (_quantile(solve_us, 50), "us"),
        "homsolve.solve.p99_us": (_quantile(solve_us, 99), "us"),
        "homsolve.solve.converged_ratio": (_ratio(flag("homsolve.solve", "converged"), solves), "ratio"),
        "homsolve.solve.multi_root_share": (_ratio(flag("homsolve.solve", "multi_root"), solves), "ratio"),
        "homsolve.solve.errors": (flag("homsolve.solve", "SolveError"), "count"),
        "homsolve.residual.calls": (residual_calls, "count"),
        "homsolve.residual.s": (g("homsolve.residual", "s"), "s"),
        "homsolve.sweep.calls": (g("homsolve.sweep", "calls"), "count"),
        "homsolve.sweep.s": (g("homsolve.sweep", "s"), "s"),
        "homsolve.limit_probe.calls": (g("homsolve.limit_probe", "calls"), "count"),
        "homsolve.limit_probe.s": (g("homsolve.limit_probe", "s"), "s"),
        "solver.scans_per_solve": (_ratio(scan_calls, solves), "ratio"),
        "solver.residual_evals_per_solve": (
            _ratio(scan_points + bisect_iters + residual_calls, solves),
            "ratio",
        ),
        "volfun.evaluate.calls": (g("volfun.evaluate", "calls"), "count"),
        "volfun.evaluate.s": (g("volfun.evaluate", "s"), "s"),
        "volfun.evaluate_grid.calls": (g("volfun.evaluate_grid", "calls"), "count"),
        "volfun.evaluate_grid.points": (grid_points, "count"),
        "volfun.evaluate_grid.s": (g("volfun.evaluate_grid", "s"), "s"),
        "volfun.evaluate_grid.ns_per_point": (
            _ratio(g("volfun.evaluate_grid", "s") * 1e9, grid_points),
            "ns",
        ),
        "materials.cauchy_stress.calls": (g("materials.cauchy_stress", "calls"), "count"),
        "materials.cauchy_stress.s": (g("materials.cauchy_stress", "s"), "s"),
        "stability.min_coaxial_eig.calls": (g("stability.min_coaxial_eig", "calls"), "count"),
        "stability.min_coaxial_eig.states": (eig_states, "count"),
        "stability.min_coaxial_eig.s": (eig_s, "s"),
        "stability.min_coaxial_eig.self_s": (g("stability.min_coaxial_eig", "self_s"), "s"),
        "stability.states_per_s": (_ratio(eig_states, eig_s), "1/s"),
        "stability.tangent_fd_error.calls": (g("stability.tangent_fd_error", "calls"), "count"),
        "stability.tangent_fd_error.s": (g("stability.tangent_fd_error", "s"), "s"),
        "cli.main.calls": (g("cli.main", "calls"), "count"),
        "cli.main.self_s": (g("cli.main", "self_s"), "s"),
    }
    return m
