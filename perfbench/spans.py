"""In-memory span recorder that wraps functions where their callers bind them.

``from x import y`` copies the name ``y`` into the importing module, so a
function is wrapped on the module (or class) whose code looks it up at call
time, never on the module that defines it. Spans nest on one thread: each
records its parent's id, so a span's self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One call into a wrapped function.

    ``error`` holds the exception class name when the call raised; ``info``
    holds the counts a hook derived from the call's arguments and result.
    """

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)


#: A hook receives the call's arguments, its result (None if it raised) and the
#: exception (None if it returned); it returns counts to store on the span.
Hook = Callable[[tuple, dict, object, BaseException | None], dict]


class Tracer:
    """Records spans around wrapped callables; ``restore`` undoes every wrap."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner: object, attr: str, name: str, hook: Hook | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                self.close(span)
                if hook is not None:
                    span.info = hook(args, kwargs, None, exc)
                raise
            self.close(span)
            if hook is not None:
                span.info = hook(args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []


def children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the durations of its direct children."""
    kids = children(spans)
    return {
        s.id: (s.end - s.start) - sum(c.end - c.start for c in kids.get(s.id, ()))
        for s in spans
    }


def has_descendant(span: Span, kids: dict[int, list[Span]], pred: Callable[[Span], bool]) -> bool:
    stack = list(kids.get(span.id, ()))
    while stack:
        s = stack.pop()
        if pred(s):
            return True
        stack.extend(kids.get(s.id, ()))
    return False
