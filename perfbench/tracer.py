"""Outside-in span tracer for the traced benchmark run.

The engine's modules import names directly (``from .geom3 import exp_so3``),
so a function is wrapped under the name each *caller* looks up, e.g.
``unirigid.integrate.exp_so3`` rather than ``unirigid.geom3.exp_so3``.  The
right-hand-side closure returned by ``integrate.make_rhs`` is wrapped per
formulation, and ``geom3.Rotation`` constructions are counted (not spanned:
there are several per step).

A span is (name, start, end, parent).  Spans stay in flat in-memory arrays
until the run ends; a span's self time is its duration minus the durations of
its children (calls are strictly nested in one thread, so children never
overlap).  ``Tracer.patched()`` restores every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# (module whose global the caller looks up, attribute, span name)
TARGETS = (
    ("unirigid.cli", "main", "cli.main"),
    ("unirigid.cli", "load_scenario", "scenario.load_scenario"),
    ("unirigid.cli", "simulate", "integrate.simulate"),
    ("unirigid.cli", "samples_to_csv", "cli.samples_to_csv"),
    ("unirigid.cli", "geodesic_distance", "geom3.geodesic_distance"),
    ("unirigid.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("unirigid.integrate", "simulate", "integrate.simulate"),
    ("unirigid.integrate", "chart_from_body_twist", "charts.chart_from_body_twist"),
    ("unirigid.integrate", "step", "integrate.step"),
    ("unirigid.integrate", "exp_so3", "geom3.exp_so3"),
    ("unirigid.integrate", "euler_to_rotation", "geom3.euler_to_rotation"),
    ("unirigid.integrate", "rotation_to_euler", "geom3.rotation_to_euler"),
    ("unirigid.integrate", "spd_factor", "dynamics.spd_factor"),
    ("unirigid.integrate", "constrained_accel6", "gauss.constrained_accel6"),
    ("unirigid.charts", "rotation_to_euler", "geom3.rotation_to_euler"),
    ("unirigid.charts", "euler_rate_matrix", "charts.euler_rate_matrix"),
    ("unirigid.dynamics", "euler_rate_matrix", "charts.euler_rate_matrix"),
    ("unirigid.dynamics", "spd_factor", "dynamics.spd_factor"),
)
MAKE_RHS = ("unirigid.integrate", "make_rhs", "integrate.make_rhs")
RHS_SPAN = "dynamics.rhs.{}"
ROTATION_NEW = "geom3.rotation_new"
MARK = "__perfbench_traced__"


def _modules():
    return {name: importlib.import_module(name) for name, _, _ in TARGETS + (MAKE_RHS,)}


def _rotation_class():
    return importlib.import_module("unirigid.geom3").Rotation


def is_pristine() -> bool:
    """True when no traced wrapper is installed on any target."""
    mods = _modules()
    wrapped = [
        f"{mod}.{attr}"
        for mod, attr, _ in TARGETS + (MAKE_RHS,)
        if getattr(getattr(mods[mod], attr), MARK, False)
    ]
    return not wrapped and not getattr(_rotation_class().__post_init__, MARK, False)


class Tracer:
    """Records spans and counts while installed with ``patched()``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str):
        nid = self._id(span)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        setattr(traced, MARK, True)
        return traced

    def _wrap_make_rhs(self, make_rhs):
        wrap = self.wrap

        def make_rhs_traced(formulation, scenario):
            chart, rhs = make_rhs(formulation, scenario)
            return chart, wrap(rhs, RHS_SPAN.format(formulation.value))

        return self.wrap(make_rhs_traced, MAKE_RHS[2])

    def _wrap_post_init(self, post_init):
        counts = self.counts

        def post_init_counted(obj):
            counts[ROTATION_NEW] = counts.get(ROTATION_NEW, 0) + 1
            post_init(obj)

        setattr(post_init_counted, MARK, True)
        return post_init_counted

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals however the block exits."""
        mods = _modules()
        rotation = _rotation_class()
        saved = []
        try:
            for mod, attr, span in TARGETS:
                original = getattr(mods[mod], attr)
                saved.append((mods[mod], attr, original))
                setattr(mods[mod], attr, self.wrap(original, span))
            mod, attr, _ = MAKE_RHS
            original = getattr(mods[mod], attr)
            saved.append((mods[mod], attr, original))
            setattr(mods[mod], attr, self._wrap_make_rhs(original))
            saved.append((rotation, "__post_init__", rotation.__post_init__))
            rotation.__post_init__ = self._wrap_post_init(rotation.__post_init__)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Span table as numpy arrays: name id, parent index, start, end, self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, parent, start, end, dur - child

    def summary(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        name, _, start, end, self_time = self.arrays()
        dur = end - start
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write the span table (compressed) once the run has ended."""
        name, parent, start, end, _ = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, start=start, end=end
        )
