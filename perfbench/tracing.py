"""In-memory spans recorded from the benchmark's own files.

The benchmark times calls into each layer's public functions by
wrapping them for the length of a traced pass (:meth:`Tracer.patch`);
nothing inside ``src/`` is instrumented.  Spans nest through a stack,
carry the trace id of the job or request that caused them, stay in
memory, and are written out once when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    trace: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent].trace
        index = len(self.spans)
        span = Span(name, self.clock(), parent=parent, trace=trace, attrs=attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def enclosing(self, name: str) -> Optional[Span]:
        """Innermost open span called ``name``."""
        for index in reversed(self._stack):
            if self.spans[index].name == name:
                return self.spans[index]
        return None

    @contextlib.contextmanager
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_exit: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
        trace: Optional[Callable[[tuple, dict], str]] = None,
        on_enter: Optional[Callable[[Span, tuple, dict], None]] = None,
    ) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span for the duration of the block.

        Works for module functions, methods, classmethods and
        staticmethods.  ``on_enter(span, args, kwargs)`` and
        ``on_exit(span, args, kwargs, result)`` may add attributes before
        and after the call; ``trace(args, kwargs)`` names a new trace id.
        """
        own = not isinstance(owner, type) or attr in owner.__dict__
        if isinstance(owner, type):
            # The raw descriptor, from the class that defines it.
            original = next(c.__dict__[attr] for c in owner.__mro__ if attr in c.__dict__)
        else:
            original = getattr(owner, attr)
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind is not None else original

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tid = trace(args, kwargs) if trace is not None else None
            with self.span(name, trace=tid) as span:
                if on_enter is not None:
                    on_enter(span, args, kwargs)
                result = func(*args, **kwargs)
                if on_exit is not None:
                    on_exit(span, args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ---------------------------------------------------------

    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(i)
        return kids

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            intervals = [(self.spans[k].start, self.spans[k].end) for k in kids.get(i, [])]
            out.append(s.duration - covered(intervals, s.start, s.end))
        return out

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.by_name(name))

    def self_by_name(self) -> Dict[str, float]:
        """Self time summed per span name."""
        out: Dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh, separators=(",", ":"), default=str)
