"""Spans around the public functions of the gaussgeom modules, from outside the library.

:meth:`Tracer.install` replaces every public function of the traced modules
with a timing wrapper, in every ``gaussgeom`` namespace that holds it:
``typicality`` imports ``delta_bounds_batch``, ``log_negativity`` and
``energy_weight`` by name, and patching only their home module would miss
those calls.  Private helpers are not wrapped, so their time counts as
self time of the public function that calls them (for instance
``typicality._geometry`` inside ``mcint.vegas_integrate``).

A span's self time is its duration minus the durations of the wrapped
spans it directly contains.  Aggregates are kept per layer name
(``<module>.<function>``); individual spans are kept only when asked for.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("cli", "typicality", "mcint", "correlations", "core", "measures")

_SAMPLER = "typicality.sample_energy_constrained"


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    op: str | None
    name: str
    start: float
    end: float


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


# Work counters read from a wrapped call's result (None when it raised).
def _count_bounds_batch(tracer, result):
    if result is not None:
        tracer.stats["correlations.delta_bounds_batch"].add("points", result[2].size)


def _count_energy_weight(tracer, result):
    if result is None:
        return
    tracer.stats["typicality.energy_weight"].add("points", np.size(result))
    if tracer.inside(_SAMPLER):
        tracer.stats[_SAMPLER].add("proposals", np.size(result))


def _count_vegas(tracer, result):
    if result is not None:
        estimate = result[0] if isinstance(result, tuple) else result  # (estimate, grid)
        tracer.stats["mcint.vegas_integrate"].add("n_evals", estimate.n_evals)


def _count_grid_samples(tracer, result):
    if result is not None:
        tracer.stats["mcint.sample_from_grid"].add("points", len(result[0]))


def _count_states(tracer, result):
    if result is not None:
        tracer.stats[_SAMPLER].add("states", len(result))


COUNTERS = {
    "correlations.delta_bounds_batch": _count_bounds_batch,
    "typicality.energy_weight": _count_energy_weight,
    "mcint.vegas_integrate": _count_vegas,
    "mcint.sample_from_grid": _count_grid_samples,
    _SAMPLER: _count_states,
}


class Tracer:
    """Per-layer call counts, self times and work counters of one traced run."""

    def __init__(self, record_spans: bool = False):
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[Span] | None = [] if record_spans else None
        self.op: str | None = None
        self._stack: list[list] = []  # [span_id, name, child_seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the aggregates and spans gathered so far (wrappers stay installed)."""
        for name in self.stats:
            self.stats[name] = LayerStats()
        if self.spans is not None:
            self.spans.clear()

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def _wrap(self, name: str, fn):
        stack = self._stack
        self.stats.setdefault(name, LayerStats())
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st = self.stats[name]
                st.calls += 1
                st.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if count is not None:
                    count(self, result)
                if self.spans is not None:
                    parent = stack[-1][0] if stack else None
                    self.spans.append(Span(span_id, parent, self.op, name, start, end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES in every gaussgeom namespace."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"gaussgeom.{short}"]
            for fname, fn in _public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{short}.{fname}", fn))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "gaussgeom" or n.startswith("gaussgeom.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def patched(self, namespace: str, attr: str) -> bool:
        return any(ns.__name__ == namespace and a == attr for ns, a, _ in self._patches)

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.<counter>`` values."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            for key, value in st.counters.items():
                out[f"{name}.{key}"] = value
        sampler = self.stats.get(_SAMPLER)
        if sampler is not None and sampler.counters.get("proposals"):
            out[f"{_SAMPLER}.acceptance"] = (
                sampler.counters.get("states", 0.0) / sampler.counters["proposals"]
            )
        return out

    def total_self_s(self) -> float:
        return sum(st.self_s for st in self.stats.values())
