"""In-memory span recorder for the traced runs.

Every wrapper records one span per call: name, start and end on the
calling thread's CPU clock, the index of the enclosing span and a request
key (the CA search id where the call can see it; children inherit their
parent's). Spans stay in memory until the run ends; ``summary`` then folds
them into per-name totals and self times, and ``write`` dumps them as TSV.

Spans use CPU time, not wall time, because the benchmark's gated figures
are CPU per search: on a VM with steal, wall-clock spans would charge the
hypervisor's pauses to whichever layer happened to be running.
"""

from __future__ import annotations

import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        # One row per span, appended when the span closes:
        # (index, name, start_ns, end_ns, parent_index, key).
        self.spans: list[tuple[int, str, int, int, int, object]] = []
        self._stack: list[tuple[int, object]] = []
        self._next = 0
        # Event counts that wrappers keep where a span per call would cost too much.
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, key_of=None):
        """``fn`` wrapped so that each call records a span called ``name``.

        ``key_of(*args)`` gives the request key; without it the span takes
        the key of its parent.
        """
        spans = self.spans
        stack = self._stack
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            if stack:
                parent, inherited = stack[-1]
            else:
                parent, inherited = NO_PARENT, None
            key = inherited if key_of is None else key_of(*args)
            stack.append((index, key))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, name, start, end, parent, key))

        return traced

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, int]]:
        """Per span name over ``spans[first:last]``: calls, total_ns and self_ns.

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly because each process is traced on a
        single thread. Top-level spans are also summed under ``"<top>"``.
        """
        window = self.spans[first:last]
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _ in window:
            if parent != NO_PARENT:
                child_ns[parent] += end - start
        out: dict[str, dict[str, int]] = {}
        for index, name, start, end, parent, _ in window:
            if parent == NO_PARENT:
                top = out.setdefault("<top>", {"calls": 0, "total_ns": 0, "self_ns": 0})
                top["calls"] += 1
                top["total_ns"] += end - start
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns.get(index, 0)
        return out

    def write(self, path, first: int = 0, last: int | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tkey\n")
            for index, name, start, end, parent, key in sorted(self.spans[first:last]):
                fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\t{key}\n")
