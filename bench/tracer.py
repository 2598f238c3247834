"""In-memory spans recorded around the benchmark's calls into confdec.

A span has a name (``layer.function`` with an optional ``[qualifier]``),
start and end times from ``time.perf_counter``, the id of the span that
was open when it started, and the request id of the pass or probe round it
belongs to.  Counts measured at a boundary go into the span's ``attrs``.
Nothing is written until ``dump`` is called at the end of the run.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    """Records every span opened through ``span``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._requests = 0
        self.request = None

    def new_request(self) -> int:
        self._requests += 1
        self.request = self._requests
        return self.request

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "request": self.request, "start": time.perf_counter(),
               "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def median(self, name: str) -> float:
        """Median duration in seconds of the spans called ``name``."""
        values = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def attrs(self, name: str) -> list:
        return [s["attrs"] for s in self.spans if s["name"] == name]

    def self_time_by_layer(self) -> dict:
        """Seconds each layer spent outside its child spans, over the run."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = {}
        for s, children in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s["end"] - s["start"]) - children
        return totals

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "self_time_s": self.self_time_by_layer()}, fh, indent=1)
            fh.write("\n")


class NullTracer:
    """Same ``span`` interface, records nothing: used for the end-to-end runs."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({"attrs": {}})
