"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Recorder.wrap` replaces
a callable at the attribute its caller resolves (a module global imported
by name, or a class attribute for methods) with a wrapper that opens a span
around the call.  Nothing under ``src/`` is modified on disk; every wrapper
is removed again by :meth:`Recorder.unwrap_all`.

Each span stores ``(id, parent, name, start_ns, end_ns)``.  The parent is
the innermost span open in the calling context (a :mod:`contextvars`
variable), so a layer's self time is its duration minus the durations of
its direct children.  Spans are kept in memory and summarised or written
out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """Collects spans and counters while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._wrapped: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _open(self) -> tuple[int, int | None, contextvars.Token]:
        self._next_id += 1
        span_id = self._next_id
        return span_id, _current.get(), _current.set(span_id)

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id, parent, token = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _current.reset(token)
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_call(*args, **kwargs)`` runs before the wrapped call and may
        record counters from the arguments (for example LP sizes).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return recorder.call(name, original, *args, **kwargs)

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span and counter as JSON (done once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def summarize(
    spans: list[tuple[int, int | None, str, int, int]], root: str
) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, total ``dur_s`` and total ``self_s``.

    Only spans under a ``root`` span (and the roots themselves) count, so
    work outside the timed operations never leaks in.
    """
    parents = {span_id: parent for span_id, parent, *_ in spans}
    names = {span_id: name for span_id, _, name, *_ in spans}

    def under_root(span_id: int | None) -> bool:
        while span_id is not None:
            if names.get(span_id) == root:
                return True
            span_id = parents.get(span_id)
        return False

    child_ns: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        if not under_root(span_id):
            continue
        row = out.setdefault(name, {"count": 0, "dur_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["dur_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[span_id]) / 1e9
    return out
