"""In-memory span recorder that wraps public calls from outside the program.

The benchmark measures the layers of ``repro`` without editing them: for a
traced run, :class:`Tracer` replaces chosen public methods and functions
with thin wrappers that record a span (name, start, end, parent) around the
original call, and puts the originals back when the run ends.  Spans stay
in memory; the workloads turn them into per-layer numbers after the run.

A layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer"]


class Span:
    """One timed call: ``name``, ``start``/``end`` in ns, ``parent`` index."""

    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: int, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Span stack for one single-threaded traced run.

    ``patch(owner, attr, name)`` swaps ``owner.attr`` for a recording
    wrapper; ``restore()`` undoes every patch in reverse order.  The
    tracer is also a context manager that restores on exit, so a failing
    run never leaves the program patched.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @property
    def current(self) -> int:
        """Index of the innermost open span, -1 at top level."""
        return self._stack[-1] if self._stack else -1

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def open(self, name: str, start: int | None = None) -> int:
        """Open a span (optionally back-dated to ``start``) and push it."""
        index = len(self.spans)
        self.spans.append(
            Span(name, time.perf_counter_ns() if start is None else start, self.current)
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        """Close the innermost span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        return span

    def record(self, name: str, start: int, end: int, parent: int) -> Span:
        """Add an already-finished span under ``parent``."""
        span = Span(name, start, parent)
        span.end = end
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name) -> None:
        """Wrap ``owner.attr`` so every call records a span.

        ``name`` is a span name or a callable ``(args) -> name`` (used to
        name module spans by class).
        """
        original = getattr(owner, attr)
        tracer = self
        namer = name if callable(name) else (lambda args, _n=name: _n)

        def wrapper(*args, **kwargs):
            index = tracer.open(namer(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            return result

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        # An attribute a class inherits is deleted again on restore rather
        # than copied down from its base.
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner)[attr] if own else None))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_ns(self) -> list[int]:
        """Per span: its duration minus its children's durations."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration_ns
        return own

    def ancestor_named(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return parent
            parent = self.spans[parent].parent
        return -1
