"""In-memory span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side only: `Tracer.wrap` replaces a
module or class attribute (for example `oracle.eigvals_complex`) with a
wrapper that opens a span around each call, and `Tracer.restore` puts the
originals back.  Nothing under src/ is edited.  Every span has a name, start,
end and parent id; spans are kept in memory and summarised when the pass ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.sid:
            raise RuntimeError(f"span {span.name} closed out of order")
        if error is not None:
            span.error = type(error).__name__
            # count each exception once, where it first crosses a traced boundary
            if not getattr(error, "_perfbench_counted", False):
                error._perfbench_counted = True
                self.counts["errors.raised"] += 1
                self.counts["errors.raised." + error_category(error)] += 1

    def wrap(self, owner, attr: str, name: str, after=None, span: bool = True) -> None:
        """Replace owner.attr by a traced wrapper.

        `after(tracer, args, result)` runs once the call returns, to record
        counts; with span=False the call is only counted, not timed.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            s = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(s, exc)
                raise
            tracer.close(s)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = original
        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set owner.attr to value until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.sid]
        return dict(out)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


ERROR_CATEGORIES = ("NoRegularBranch", "InvalidSpec", "OSError", "other")


def error_category(exc: BaseException) -> str:
    if isinstance(exc, OSError):
        return "OSError"
    name = type(exc).__name__
    return name if name in ERROR_CATEGORIES else "other"
