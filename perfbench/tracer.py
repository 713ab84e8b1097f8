"""In-memory span tracer for the traced benchmark run.

A span is recorded around every call of a wrapped function: its name, the
request (benchmark iteration) it belongs to, start and end on the
`perf_counter` clock, and the span that was open when it started. Spans stay
in memory until the benchmark writes them out. A span's self time is its
duration minus the time its direct children cover; calls in one thread nest,
so children never overlap and that coverage is the sum of their durations.

Wrapping replaces a module or class attribute, so a function is traced only
where its caller looks it up by that attribute: patch every name the program
calls it through.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording one span per call.

        `count(args, kwargs, result)` returns a dict of counters to add for
        the current request; it runs after the span closes, so its cost is
        not charged to the layer.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
                "name": name,
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[self.request, key] += value
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None, around=None) -> None:
        """Replace `owner.attr` by a traced wrapper until `restore`.

        `around(fn)`, when given, returns the function the span times in
        place of `fn`, for a measurement that must enclose the call.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        inner = original if around is None else around(original)
        setattr(owner, attr, self.wrap(name, inner, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, request) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = [s for s in self.spans if s["request"] == request]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            entry = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[s["id"]]
        return out

    def request_counts(self, request) -> dict[str, float]:
        return {key: v for (req, key), v in self.counts.items() if req == request}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
