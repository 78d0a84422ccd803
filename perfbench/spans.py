"""In-memory spans recorded around calls into the program's public functions.

A span holds a name, start and end (``time.perf_counter`` seconds), the id of
the enclosing span, the process's peak RSS when the call returned and any
counts an ``after`` hook derives from the call's arguments and result.  The
hook runs after the span has closed and its own time is kept as ``after_s``,
so it shows in the traced run's wall time (``trace.overhead_s``) but never in
a stage's time.
"""

from __future__ import annotations

import functools
import json
import resource
import time


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so each call records one span named ``name``.

        ``after(result, *args, **kwargs)`` may return a dict of counts to
        attach to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_mb"] = peak_rss_mb()
                self._stack.pop()
            if after is not None:
                began = time.perf_counter()
                span["counts"] = after(result, *args, **kwargs)
                span["after_s"] = time.perf_counter() - began
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
