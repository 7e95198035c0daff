"""Span tracer that wraps module-level functions of the package from outside.

Every library caller reaches the traced functions through a module attribute
or a module global, so replacing the attribute catches every call.  Spans are
kept in memory as (name, start, end, parent index) and turned into per-name
call counts and self times once the traced command has finished.
"""

from __future__ import annotations

import importlib
import math
import os
import time

# (layer module, function) pairs traced in every workload.  A function that a
# later refactor removes is skipped and reports 0 calls.
SPANS = (
    ("config", "parse_config"),
    ("config", "build_plan"),
    ("config", "initial_state"),
    ("basis", "build_plan"),
    ("basis", "synthesize"),
    ("basis", "analyze"),
    ("basis", "surface_gradient"),
    ("basis", "gradient_analysis"),
    ("operators", "velocity_grid"),
    ("operators", "leray_project"),
    ("operators", "harmonic_project"),
    ("dynamics", "_remainder_u"),
    ("dynamics", "_remainder_tangent"),
    ("dynamics", "base_grids"),
    ("dynamics", "rhs_u"),
    ("integrate", "run"),
    ("integrate", "step_pair"),
    ("verification", "energy_record"),
    ("verification", "gronwall_envelopes"),
    ("bounds", "forcing_norms"),
    ("bounds", "constants"),
    ("lyapunov", "benettin_run"),
    ("lyapunov", "_orthonormalize_arrays"),
    ("snapshot", "save_snapshot"),
    ("snapshot", "load_snapshot"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_lyapunov"),
    ("cli", "_diag_rows"),
    ("cli", "_write_lines"),
    ("cli", "_write_json"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in SPANS)

def _lead_rows(value, trailing):
    """Fields in an array: the product of its axes before the last `trailing`."""
    shape = getattr(value, "shape", ())
    return math.prod(shape[: max(len(shape) - trailing, 0)])


def _add(extras, key, amount):
    extras[key] = extras.get(key, 0) + amount


def _min(extras, key, value):
    extras[key] = min(extras.get(key, math.inf), value)


# span name -> (extra name, hook(args, result) -> number, combine)
HOOKS = {
    "basis.synthesize": ("basis.synthesize.rows", lambda a, r: _lead_rows(a[1], 1), _add),
    "basis.analyze": ("basis.analyze.rows", lambda a, r: _lead_rows(a[1], 2), _add),
    "basis.surface_gradient": (
        "basis.surface_gradient.rows",
        lambda a, r: _lead_rows(a[1], 1),
        _add,
    ),
    "basis.gradient_analysis": (
        "basis.gradient_analysis.rows",
        lambda a, r: _lead_rows(a[1], 3),
        _add,
    ),
    "dynamics._remainder_tangent": (
        "dynamics._remainder_tangent.rows",
        lambda a, r: _lead_rows(a[1], 1),
        _add,
    ),
    "integrate.run": ("integrate.samples_held", lambda a, r: len(r.samples), _add),
    "lyapunov._orthonormalize_arrays": (
        "lyapunov.gs_min_scale",
        lambda a, r: float(min(r)),
        _min,
    ),
    "snapshot.save_snapshot": ("snapshot.bytes", lambda a, r: os.path.getsize(a[0]), _add),
    "snapshot.load_snapshot": ("snapshot.bytes", lambda a, r: os.path.getsize(a[0]), _add),
    "cli._write_lines": ("cli.bytes_written", lambda a, r: os.path.getsize(a[0]), _add),
    "cli._write_json": ("cli.bytes_written", lambda a, r: os.path.getsize(a[0]), _add),
}

# Extra per-layer figures gathered from the arguments or results of a span.
EXTRA_NAMES = tuple(dict.fromkeys(key for key, _, _ in HOOKS.values()))


class Tracer:
    """Records nested spans around wrapped functions; `restore` undoes every wrap."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.extras = {}
        self._open = []  # indices of spans not yet closed
        self._wrapped = []  # (owner, attribute, original)

    def wrap(self, owner, attr, name, hook=None):
        original = getattr(owner, attr)
        spans, opened, clock, extras = self.spans, self._open, self.clock, self.extras

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, opened[-1] if opened else -1])
            opened.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                opened.pop()
            if hook is not None:
                key, measure, combine = hook
                combine(extras, key, measure(args, result))
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, original))

    def install(self, package="bardina2d", spans=SPANS, hooks=HOOKS):
        """Wrap every listed function that exists; returns the names wrapped."""
        done = []
        for module_name, attr in spans:
            module = importlib.import_module(f"{package}.{module_name}")
            if not callable(getattr(module, attr, None)):
                continue
            name = f"{module_name}.{attr}"
            self.wrap(module, attr, name, hooks.get(name))
            done.append(name)
        return done

    def restore(self):
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def summary(self, names=SPAN_NAMES):
        return aggregate(self.spans, names)


def aggregate(spans, names=()):
    """Per-name call count, total and self time of closed spans.

    Self time is a span's duration minus the time its direct children cover.
    Children of one span run one after another, so their durations add.
    """
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    child_time = [0.0] * len(spans)
    durations = [end - start for _, start, end, _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    for index, (name, _, _, _) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += durations[index]
        rec["self_s"] += durations[index] - child_time[index]
    return out
