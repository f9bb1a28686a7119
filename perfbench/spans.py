"""Spans and call counters for the traced run.

A span wraps one call the benchmark makes into a public function of the
package; its name is "<module>.<function>".  Counters for f, F and f_arr
calls come from a dataclasses.replace copy of the model whose callables
count into the innermost open span, so the package itself is never
patched.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, parent: Optional[int], op: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.counts: Counter = Counter()
        self.start = time.perf_counter()
        self.end = self.start


class NullTracer:
    """Tracer of the untraced passes: spans cost one generator step."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def add(self, key: str, n: float) -> None:
        pass

    def model(self, model):
        return model


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._models: Dict[int, Tuple[object, object]] = {}
        self.op_id = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, parent, self.op_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, n: float) -> None:
        """Add n to a counter of the innermost open span, if any."""
        if self._stack:
            self.spans[self._stack[-1]].counts[key] += n

    def _counted(self, fn, key: str):
        spans, stack = self.spans, self._stack

        def wrapper(x):
            if stack:
                spans[stack[-1]].counts[key] += 1
            return fn(x)
        return wrapper

    def model(self, model):
        """The counting copy of model (one copy per model object)."""
        if id(model) not in self._models:
            f_arr = model.f_arr
            copy = replace(model, f=self._counted(model.f, "f"),
                           F=self._counted(model.F, "F"),
                           f_arr=None if f_arr is None
                           else self._counted(f_arr, "f_arr"))
            # holding the original keeps its id from being reused
            self._models[id(model)] = (model, copy)
        return self._models[id(model)][1]

    # ------------------------------------------------------------ queries

    def ops(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def by_name(self, duration) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration(span) under "time", the number of
        spans under "spans" and the summed counts."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for s in self.spans:
            agg = out[s.name]
            agg["time"] += duration(s)
            agg["spans"] += 1
            for key, n in s.counts.items():
                agg[key] += n
        return out

    def write(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "op": s.op, "counts": dict(s.counts)}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")
