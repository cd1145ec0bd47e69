"""In-memory spans and counters recorded around calls into botdna.

Spans are recorded from the benchmark's own code, at the boundary of each
public call, never inside the package.  Each span keeps its name, start and
end (``perf_counter_ns``), the span open around it, and the user it served.
They stay in memory until ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.users: list[str | None] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []

    def begin(self, name: str, user: str | None = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.users.append(user)
        self.ends.append(0)
        self._open.append(i)
        self.starts.append(_now())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = _now()
        self._open.pop()

    def call(self, name: str, fn, *args, user: str | None = None):
        """``fn(*args)`` inside a span."""
        i = self.begin(name, user)
        try:
            return fn(*args)
        finally:
            self.end(i)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def durations_s(self, name: str) -> list[float]:
        return [
            (e - s) / 1e9 for n, s, e in zip(self.names, self.starts, self.ends) if n == name
        ]

    def self_time_s(self) -> dict[str, float]:
        """Per layer (the span name's prefix), span time not covered by child spans."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        layers: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own):
            layers[name.split(".", 1)[0]] += t / 1e9
        return dict(layers)

    def write(self, path) -> None:
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "user"],
                    "names": table,
                    "spans": [
                        [ids[n], s, e, p, u]
                        for n, s, e, p, u in zip(
                            self.names, self.starts, self.ends, self.parents, self.users
                        )
                    ],
                    "counts": self.counts,
                },
                fh,
                separators=(",", ":"),
            )
