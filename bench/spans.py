"""In-memory spans recorded around calls into the program's modules.

A ``Tracer`` replaces chosen module attributes with wrappers that record a
span (name, start, end, parent) and the process's peak RSS when the call
returns, and puts the originals back on ``uninstall``.  Spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import resource
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, module, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of module.attr."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, name: str, under: str | None = None) -> list[dict]:
        """Spans called ``name``, optionally only those with an ancestor
        called ``under``."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            if under is None or self._has_ancestor(s, under):
                out.append(s)
        return out

    def total_s(self, name: str, under: str | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, under))

    def self_s(self, span: dict) -> float:
        """Duration of ``span`` minus the time its direct children cover."""
        children = [s for s in self.spans if s["parent"] == span["id"]]
        return (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in children)

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            p = self.spans[parent]
            if p["name"] == name:
                return True
            parent = p["parent"]
        return False


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.record = {
            "id": len(t.spans),
            "name": self.name,
            "parent": t._stack[-1] if t._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "rss_mb": None,
        }
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.tracer._stack.pop()
        return False
