"""In-memory spans around the library's module boundaries, and the per-layer metrics.

A :class:`Tracer` wraps the public functions that one layer of ``susy_ces``
calls in the next, under the name the *caller* looks the function up by:
``specfun.chf_series_dd`` is the ``chf_series_dd`` that
:mod:`susy_ces.specfun` calls, ``scattering.integrate`` the integrator that
:mod:`susy_ces.scattering` calls.  Patching happens only inside
``with tracer:``, so an untraced run executes the library unmodified, and
nothing under ``src/`` knows it is being traced.

The benchmark opens one span per operation itself (``cli.table``,
``closedform.solution_Z``, ``scattering.phase_difference``); every span
opened while it runs carries that operation's index.  A span's self time is
its duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    op: int
    parent: int          # index into Tracer.spans, -1 for an operation's root
    start: float
    end: float
    self_s: float
    work: dict


def _size(v) -> int:
    return int(np.size(v))


def _z_work(args) -> dict:
    # solution_Z(p, branch, sector, x): points, and the largest |y| = 2 omega x
    x = args[3]
    return {"points": _size(x), "y": 2.0 * args[0].omega * float(np.max(x))}


# (module, attribute, work recorded from (args, result)).  The span is named
# "<module>.<attribute>", the lookup that is intercepted.
_BOUNDARIES: tuple[tuple[str, str, Callable], ...] = (
    ("specfun", "chf_series_dd", lambda a, r: {"points": _size(a[2])}),
    ("specfun", "chf_series_fixed", lambda a, r: {"points": 1}),
    ("specfun", "chf_1f1", lambda a, r: {"points": _size(a[1])}),
    ("closedform", "chf_1f1", lambda a, r: {"points": _size(a[1])}),
    ("closedform", "chf_1f1_deriv", lambda a, r: {"points": _size(a[1])}),
    ("scattering", "solution_Z", lambda a, r: _z_work(a)),
    ("scattering", "susy_map", lambda a, r: {}),
    ("scattering", "integrate", lambda a, r: {
        "steps": r.n_steps, "rejected": r.n_rejected,
        "wx": a[0].omega * abs(float(a[2]) - float(a[1]))}),
    ("cli", "solution_Z", lambda a, r: _z_work(a)),
    ("cli", "V", lambda a, r: {}),
)


class Tracer:
    """Records spans while active (``with tracer:``); inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []   # [index, name, start, child_s, work]
        self._op = -1
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> list:
        self.spans.append(None)  # placeholder keeps indices in opening order
        frame = [len(self.spans) - 1, name, time.perf_counter(), 0.0, {}]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, name, start, child_s, work = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[index] = Span(name, self._op, parent[0] if parent else -1,
                                 start, end, dur - child_s, work)

    def operation(self, op: int, name: str, fn: Callable, arg):
        """Run one benchmark operation as a root span; ``fn(arg).work`` is its work."""
        self._op = op
        frame = self._open(name)
        try:
            out = fn(arg)
            frame[4].update(out.work)
            return out
        finally:
            self._close(frame)

    def _wrap(self, name: str, fn: Callable, work_of: Callable) -> Callable:
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
                frame[4].update(work_of(args, result))
                return result
            finally:
                self._close(frame)
        return traced

    # -- patching ---------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for mod_name, attr, work_of in _BOUNDARIES:
            mod = importlib.import_module(f"susy_ces.{mod_name}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", orig, work_of))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

_LAYER = {
    "specfun.chf_series_dd": "highprec.dd",
    "specfun.chf_series_fixed": "highprec.fixed",
    "specfun.chf_1f1": "specfun",
    "closedform.chf_1f1": "specfun",
    "closedform.chf_1f1_deriv": "specfun",
    "closedform.solution_Z": "closedform",
    "scattering.solution_Z": "closedform",
    "scattering.susy_map": "closedform",
    "cli.solution_Z": "closedform",
    "scattering.integrate": "oracle",
    "scattering.phase_difference": "scattering",
    "cli.V": "potential",
    "cli.table": "cli",
}
_ONE_F_ONE = ("specfun.chf_1f1", "closedform.chf_1f1")
_SOLUTION_Z = ("closedform.solution_Z", "scattering.solution_Z", "cli.solution_Z")
_SEED = ("scattering.solution_Z", "scattering.susy_map")

#: per-layer metric names, units, and whether higher is better
PER_LAYER = (
    ("highprec.dd.calls", "count", "lower"),
    ("highprec.dd.points", "count", "lower"),
    ("highprec.dd.busy_s", "s", "lower"),
    ("highprec.dd.us_per_point", "us", "lower"),
    ("highprec.fixed.calls", "count", "lower"),
    ("highprec.fixed.busy_s", "s", "lower"),
    ("highprec.fixed.us_per_call", "us", "lower"),
    ("specfun.chf_1f1.calls", "count", "lower"),
    ("specfun.chf_1f1.points", "count", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("closedform.solution_Z.calls", "count", "lower"),
    ("closedform.solution_Z.points", "count", "lower"),
    ("closedform.self_s", "s", "lower"),
    ("closedform.series_evals_per_point", "count", "lower"),
    ("closedform.solution_Z.ms_per_call_y_le_40", "ms", "lower"),
    ("closedform.solution_Z.ms_per_call_y_gt_40", "ms", "lower"),
    ("oracle.integrate.calls", "count", "lower"),
    ("oracle.steps", "count", "lower"),
    ("oracle.rejected", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.us_per_step", "us", "lower"),
    ("oracle.steps_per_wx", "1/rad", "lower"),
    ("scattering.solves", "count", "higher"),
    ("scattering.rungs_per_solve", "count", "lower"),
    ("scattering.x_end_wx", "rad", "lower"),
    ("scattering.seed_s", "s", "lower"),
    ("scattering.self_s", "s", "lower"),
    ("scattering.within_tol_frac", "fraction", "higher"),
    ("potential.V.busy_s", "s", "lower"),
    ("cli.table.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)

#: the per-layer metrics that are deterministic work counts: they repeat
#: exactly for a given seed and operation count
COUNTS = (
    "highprec.dd.calls", "highprec.dd.points", "highprec.fixed.calls",
    "specfun.chf_1f1.calls", "specfun.chf_1f1.points",
    "closedform.solution_Z.calls", "closedform.solution_Z.points",
    "closedform.series_evals_per_point", "oracle.integrate.calls",
    "oracle.steps", "oracle.rejected", "oracle.steps_per_wx",
    "scattering.solves", "scattering.rungs_per_solve", "scattering.x_end_wx",
    "scattering.within_tol_frac",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the :data:`PER_LAYER` metrics (less the overhead)."""
    def named(*names):
        return [s for s in spans if s.name in names]

    def total(sel, key):
        return sum(s.work.get(key, 0) for s in sel)

    def busy(sel):
        return sum(s.end - s.start for s in sel)

    def self_of(layer):
        return sum(s.self_s for s in spans if _LAYER[s.name] == layer)

    dd = named("specfun.chf_series_dd")
    fixed = named("specfun.chf_series_fixed")
    f11 = named(*_ONE_F_ONE)
    sz = named(*_SOLUTION_Z)
    single = [s for s in sz if s.work.get("points") == 1]
    near = [s for s in single if s.work["y"] <= 40.0]
    far = [s for s in single if s.work["y"] > 40.0]
    ode = named("scattering.integrate")
    solves = named("scattering.phase_difference")
    finished = [s for s in solves if "rungs" in s.work]
    m = {
        "highprec.dd.calls": len(dd),
        "highprec.dd.points": total(dd, "points"),
        "highprec.dd.busy_s": busy(dd),
        "highprec.fixed.calls": len(fixed),
        "highprec.fixed.busy_s": busy(fixed),
        "specfun.chf_1f1.calls": len(f11),
        "specfun.chf_1f1.points": total(f11, "points"),
        "specfun.self_s": self_of("specfun"),
        "closedform.solution_Z.calls": len(sz),
        "closedform.solution_Z.points": total(sz, "points"),
        "closedform.self_s": self_of("closedform"),
        "closedform.solution_Z.ms_per_call_y_le_40": 1e3 * _ratio(busy(near), len(near)),
        "closedform.solution_Z.ms_per_call_y_gt_40": 1e3 * _ratio(busy(far), len(far)),
        "oracle.integrate.calls": len(ode),
        "oracle.steps": total(ode, "steps"),
        "oracle.rejected": total(ode, "rejected"),
        "oracle.busy_s": busy(ode),
        "scattering.solves": len(solves),
        "scattering.rungs_per_solve": _ratio(total(finished, "rungs"), len(finished)),
        "scattering.x_end_wx": _ratio(total(finished, "x_end_wx"), len(finished)),
        "scattering.seed_s": busy(named(*_SEED)),
        "scattering.self_s": self_of("scattering"),
        "scattering.within_tol_frac": _ratio(total(solves, "within_tol"), len(solves)),
        "potential.V.busy_s": busy(named("cli.V")),
        "cli.table.self_s": self_of("cli"),
    }
    m["highprec.dd.us_per_point"] = 1e6 * _ratio(m["highprec.dd.busy_s"], m["highprec.dd.points"])
    m["highprec.fixed.us_per_call"] = 1e6 * _ratio(m["highprec.fixed.busy_s"], len(fixed))
    m["closedform.series_evals_per_point"] = _ratio(
        m["highprec.dd.points"] + len(fixed), m["closedform.solution_Z.points"])
    m["oracle.us_per_step"] = 1e6 * _ratio(m["oracle.busy_s"], m["oracle.steps"])
    m["oracle.steps_per_wx"] = _ratio(m["oracle.steps"], total(ode, "wx"))
    return m
