"""Spans around quadsuite's public functions, recorded from outside.

:class:`Tracer` replaces each public function of the traced layers by a
wrapper wherever a caller binds it: the module attribute, every copy that
``from .x import y`` made in a sibling module, and the attributes the
package's ``__getattr__`` cached.  ``TruncatedState`` is traced through
its class ``__init__``, which every binding shares.  Spans stay in memory
with their parent's id and are written out when the run ends.  Tracing is
installed only around the traced rounds and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fock", "quadrature", "phase_space", "wigner_radon", "tomography", "moments", "cli")


def _points(name):
    return lambda args, result: {"points": int(np.size(args[name]))}


def _phase_points(args, result):
    q, p = args["pt"]
    return {"points": int(np.broadcast(np.asarray(q), np.asarray(p)).size)}


def _cli_bytes(args, result):
    """Bytes of the files the CLI call wrote through --output/--state-output."""
    argv = list(args["argv"] or [])
    total = 0
    for flag in ("--output", "--state-output"):
        if flag in argv and os.path.exists(argv[argv.index(flag) + 1]):
            total += os.path.getsize(argv[argv.index(flag) + 1])
    return {"bytes_out": total}


COUNTERS = {
    "fock.hermite_basis": lambda args, result: {"values": int(result.size)},
    "quadrature.quadrature_density": _points("x"),
    "phase_space.gk_density": _phase_points,
    "phase_space.rotated_marginal_density": _points("t"),
    "wigner_radon.wigner": _phase_points,
    "wigner_radon.gk_grid": lambda args, result: {"points": int(result.values.size)},
    "wigner_radon.radon": _points("t"),
    "tomography.markov_kernel_number": _points("x"),
    "cli.main": _cli_bytes,
}

# (span name, field): "self_s" is summed self time, anything else a summed count.
REPORTED = (
    ("fock.hermite_basis", "self_s"),
    ("fock.hermite_basis", "values"),
    ("fock.TruncatedState", "self_s"),
    ("fock.TruncatedState", "calls"),
    ("fock.overlap_matrix", "self_s"),
    ("quadrature.quadrature_density", "self_s"),
    ("quadrature.quadrature_density", "points"),
    ("quadrature.complementarity_summary", "self_s"),
    ("phase_space.gk_density", "self_s"),
    ("phase_space.gk_density", "points"),
    ("phase_space.displacement_matrix", "self_s"),
    ("phase_space.rotated_marginal_density", "self_s"),
    ("phase_space.rotated_marginal_density", "points"),
    ("phase_space.strip_probability", "self_s"),
    ("wigner_radon.wigner", "self_s"),
    ("wigner_radon.wigner", "points"),
    ("wigner_radon.gk_grid", "self_s"),
    ("wigner_radon.gk_grid", "points"),
    ("wigner_radon.radon", "self_s"),
    ("wigner_radon.radon", "points"),
    ("tomography.generate_dataset", "self_s"),
    ("tomography.reconstruct_state", "self_s"),
    ("tomography.gk_from_quadrature_data", "self_s"),
    ("tomography.markov_kernel_number", "self_s"),
    ("tomography.markov_kernel_number", "points"),
    ("tomography.save_dataset", "self_s"),
    ("tomography.load_dataset", "self_s"),
    ("moments.sequential_demo", "self_s"),
    ("cli.main", "self_s"),
    ("cli.main", "bytes_out"),
)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, each clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - covered_length(children[sid], t0, t1)
        for sid, _, _, t0, t1, _ in spans
    }


def layer_metrics(spans) -> dict[str, dict]:
    """The REPORTED per-layer metrics, summed over all spans of each name."""
    own = self_times(spans)
    sums: dict[str, float] = defaultdict(float)
    for sid, _, name, _, _, counts in spans:
        sums[f"{name}.self_s"] += own[sid]
        sums[f"{name}.calls"] += 1
        for field, value in (counts or {}).items():
            sums[f"{name}.{field}"] += value
    metrics = {}
    for name, field in REPORTED:
        value = sums.get(f"{name}.{field}", 0)
        if field == "self_s":
            metrics[f"{name}.{field}"] = {"value": float(value), "unit": "s"}
        else:
            metrics[f"{name}.{field}"] = {"value": int(value), "unit": "count"}
    return metrics


class Tracer:
    """Installs span-recording wrappers on quadsuite and removes them again."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent id or -1, name, start, end, counts]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if counter:
                record[5] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        import quadsuite

        for name in quadsuite.__all__:      # let __getattr__ cache every export first
            getattr(quadsuite, name)
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quadsuite.{layer}")
            for name in getattr(module, "__all__", ["main"]):
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [m for key, m in sys.modules.items()
                   if key == "quadsuite" or key.startswith("quadsuite.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        state_cls = sys.modules["quadsuite.fock"].TruncatedState
        init = state_cls.__init__
        state_cls.__init__ = self._wrap("fock.TruncatedState", init)
        self._patched.append((state_cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as [id, parent, name, start_s, end_s, counts]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "counts"],
                       "spans": self.spans}, fh)
            fh.write("\n")
