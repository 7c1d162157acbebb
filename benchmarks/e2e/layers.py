"""Span recorder and layer ledger, applied from outside ``src/repro``.

``install`` wraps, for every layer in :data:`metrics.LAYERS`, each
public function of the module and, on each of its classes, ``__init__``,
the public methods, and the private hooks that override a method of a
base class from another layer (a Salamander ``_handle_worn_page`` is
entered from FTL code, so it is a layer boundary even though it is not
public). A wrapped callable records one span — name, start, end, parent
— unless the innermost open span already belongs to the same layer:
calls that stay inside a layer are not boundaries, and skipping them
keeps the recorder off most of the hot path. Properties are left alone.

Spans live in flat arrays until the run ends; :func:`ledger` then
derives self time (a span's duration minus the time its direct children
cover) per layer. The process is single-threaded and spans nest, so the
self times of all spans sum to the duration of the root spans, and what
is left of the traced wall is the harness's own ``unattributed`` time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from benchmarks.e2e.metrics import LAYERS

#: Work counted from call arguments at the boundary, by span name.
_MEASURES = {
    "difs.placement.place_replicas":
        lambda policy, volumes, *args, **kwargs: len(volumes),
}


class Recorder:
    """In-memory span store: one row per call that entered a layer."""

    def __init__(self) -> None:
        self.names: list[str] = []          # span name per name id
        self.name_layer: list[int] = []     # layer index per name id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []          # rows of the open spans
        self._open_layer: list[int] = []    # their layers
        self.measured: dict[str, int] = dict.fromkeys(_MEASURES, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _traced(self, fn, name: str, layer: int):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        measure = _MEASURES.get(name)
        if measure is not None:
            fn = self._measured(fn, name, measure)
        names, starts, ends, parents = (self.name, self.start, self.end,
                                        self.parent)
        open_rows, open_layers = self._open, self._open_layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_layers and open_layers[-1] == layer:
                return fn(*args, **kwargs)
            row = len(starts)
            names.append(name_id)
            parents.append(open_rows[-1] if open_rows else -1)
            ends.append(0.0)
            open_rows.append(row)
            open_layers.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[row] = clock()
                open_rows.pop()
                open_layers.pop()

        return wrapper

    def _measured(self, fn, name: str, measure):
        measured = self.measured

        def counted(*args, **kwargs):
            measured[name] += measure(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def _traced_iterator(self, fn, name: str, layer: int):
        """A generator function does its work in ``next()``: time each."""
        step = self._traced(next, name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        return wrapper

    def _wrap(self, fn, name: str, layer: int):
        if inspect.isgeneratorfunction(fn):
            return self._traced_iterator(fn, name, layer)
        return self._traced(fn, name, layer)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the boundary callables of every layer."""
        modules = {layer: importlib.import_module(f"repro.{layer}")
                   for layer in LAYERS}
        loaded = [module for name, module in list(sys.modules.items())
                  if name == "repro" or name.startswith("repro.")]
        for index, (layer, module) in enumerate(modules.items()):
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_")
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", index)
                    # ``from m import f`` copies: rebind every importer.
                    for importer in loaded:
                        for alias, value in list(vars(importer).items()):
                            if value is obj:
                                self._patch(importer, alias, wrapped)
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if (inspect.isfunction(fn)
                                and _is_boundary(obj, method)):
                            self._patch(obj, method, self._wrap(
                                fn, f"{layer}.{attr}.{method}", index))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the ledger --------------------------------------------------------

    def ledger(self, wall_s: float, dispatched: float
               ) -> tuple[dict[str, float], dict[str, float]]:
        """The traced run's per-layer metrics, as (counts, times).

        Counts repeat exactly for a seed: calls per layer and the work
        read off span names. Times do not: self time per layer, its
        share of ``wall_s``, and the unattributed remainder.
        ``dispatched`` is the queue's own request count, the numerator
        of members-per-call.
        """
        if self._open:
            raise RuntimeError("ledger() with spans still open")
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        layer = np.asarray(self.name_layer, dtype=np.int64)[name]
        self_s = np.bincount(layer, weights=duration - covered,
                             minlength=len(LAYERS))
        calls = np.bincount(layer, minlength=len(LAYERS))
        by_name = dict(zip(self.names, np.bincount(
            name, minlength=len(self.names)).tolist()))

        counts: dict[str, float] = {"trace.spans": int(len(duration))}
        times: dict[str, float] = {
            "trace.unattributed_share": float(1.0 - self_s.sum() / wall_s)}
        for index, layer_name in enumerate(LAYERS):
            counts[f"{layer_name}.calls"] = int(calls[index])
            times[f"{layer_name}.self_s"] = float(self_s[index])
            times[f"{layer_name}.self_share"] = float(self_s[index] / wall_s)
        counts["workloads.arrivals.draws"] = sum(
            count for span, count in by_name.items()
            if span.endswith(".next_after"))
        counts["flash.chip.level_ups"] = by_name.get(
            "flash.chip.FlashChip.set_level", 0)
        queue_calls = sum(
            by_name.get(f"io.queue.DeviceQueue.{entry}", 0)
            for entry in ("execute", "submit", "execute_vector",
                          "submit_vector"))
        counts["io.queue.members_per_call"] = (
            dispatched / queue_calls if queue_calls else 0.0)
        placements = by_name.get("difs.placement.place_replicas", 0)
        counts["difs.placement.candidates_per_call"] = (
            self.measured["difs.placement.place_replicas"] / placements
            if placements else 0.0)
        return counts, times


def _is_boundary(cls: type, method: str) -> bool:
    """Public, the constructor, or a hook a base class in another module
    calls into."""
    if method == "__init__" or not method.startswith("_"):
        return True
    if method.startswith("__"):
        return False
    return any(method in vars(base) and base.__module__ != cls.__module__
               for base in cls.__mro__[1:])
