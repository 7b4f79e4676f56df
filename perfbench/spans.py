"""In-memory spans for the benchmark's traced run.

A span is one call into a layer of ``repro``, recorded from the
benchmark's own code around that call: its name, start and end
(``time.perf_counter`` seconds), the index of its parent span and the id
of the pass it belongs to.  Spans stay in memory while the run measures
and are written out once, when it ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover (the union of the children, so overlapping
children are not counted twice).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import time
import typing as _t

__all__ = [
    "Span",
    "Tracer",
    "covered_seconds",
    "no_span",
    "self_times",
]


@dataclasses.dataclass
class Span:
    name: str
    pass_id: int
    parent: _t.Optional[int]
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextlib.contextmanager
def no_span(name: str) -> _t.Iterator[None]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    yield


class Tracer:
    """Records nested spans; children take their parent's pass id."""

    def __init__(self) -> None:
        self.spans: _t.List[Span] = []
        self._open: _t.List[int] = []

    @contextlib.contextmanager
    def span(
        self, name: str, pass_id: _t.Optional[int] = None
    ) -> _t.Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if pass_id is None:
            pass_id = self.spans[parent].pass_id if parent is not None else -1
        index = len(self.spans)
        span = Span(name, pass_id, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n"
        )


def covered_seconds(
    intervals: _t.Iterable[_t.Tuple[float, float]],
    lo: float = float("-inf"),
    hi: float = float("inf"),
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: _t.Sequence[Span]) -> _t.List[float]:
    """Self time of every span, in the order of ``spans``."""
    children: _t.Dict[int, _t.List[_t.Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return [
        span.duration
        - covered_seconds(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]
