"""Spans recorded from outside the library, around the calls the benchmark makes.

The traced run hands the workloads a `Library` whose modules are wrapped by
`TracedModule`: every call to a public function opens a span named
`<module>.<function>`.  The untraced run hands them the plain modules, so it
carries no tracing at all.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from contextlib import contextmanager

LAYERS = ("erasure", "construction", "codec", "criterion", "frontier")


class Tracer:
    """Spans kept in memory: id, name, parent id, pass id, start and end.

    Times are seconds since the tracer was created.  Spans of one pass share
    its pass id; the benchmark sets it before each pass.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def layer_busy(self) -> dict[str, float]:
        """Seconds spent inside each layer's spans, summed over all passes.

        Library spans never nest (the library itself is not instrumented), so
        a span's self time is its duration.
        """
        busy: dict[str, float] = {}
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            if layer in LAYERS or layer == "cli":
                busy[layer] = busy.get(layer, 0.0) + s["end"] - s["start"]
        return busy

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class TracedModule:
    """Attribute proxy that wraps each public function of a module in a span."""

    def __init__(self, module: types.ModuleType, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if name.startswith("_") or not isinstance(attr, types.FunctionType):
            return attr
        span = self._tracer.span
        qualname = f"{self._layer}.{name}"

        @functools.wraps(attr)
        def traced(*args, **kwargs):
            with span(qualname):
                return attr(*args, **kwargs)

        return traced


def library(tracer: Tracer | None) -> types.SimpleNamespace:
    """The library modules the workloads call, wrapped when a tracer is given."""
    modules = {name: importlib.import_module(f"polarbec.{name}") for name in LAYERS}
    if tracer is not None:
        modules = {name: TracedModule(mod, tracer) for name, mod in modules.items()}
    return types.SimpleNamespace(**modules)
