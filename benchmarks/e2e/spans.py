"""Benchmark-side spans: name, start, end, parent — kept in memory.

The tracer lives in the benchmark, not in ``src/``: the traced pass
wraps its calls into each layer's public functions and the spans are
written out (Chrome trace-event JSON, loadable in Perfetto) only when
the pass has finished, so recording never touches the disk while a
layer is being timed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """Single-threaded span recorder.

    A span is ``[name, start, end, parent]``; its id is its index in
    :attr:`spans` and ``parent`` is the id of the span that was open
    when it started (``-1`` at top level).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        """Open a span that may have children; yields its id."""
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1]])
        self._open.append(sid)
        self.spans[sid][1] = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a leaf span (cheap enough for per-kernel use)."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append([name, start, end, self._open[-1]])
        return out

    # -- queries -------------------------------------------------------
    def duration(self, sid: int) -> float:
        return self.spans[sid][2] - self.spans[sid][1]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, sid: int) -> float:
        """Duration of ``sid`` minus the part its child spans cover."""
        covered = sum(s[2] - s[1] for s in self.spans if s[3] == sid)
        return self.duration(sid) - covered

    # -- export --------------------------------------------------------
    def write_chrome_trace(self, path) -> None:
        """Write the spans as complete ("X") Chrome trace events."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": sid, "parent": parent},
            }
            for sid, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
