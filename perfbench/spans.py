"""In-memory span recorder for the traced run.

A span is one call of a wrapped function: name, start, end, parent span
and request id.  Spans stay in memory and are written out when the run
ends.  Wrapping happens from the benchmark's side only: a function is
replaced under the name its caller resolves (a module attribute for a
function imported by name, a class attribute for a method), and
:meth:`SpanRecorder.uninstall` puts every original back.

Parentage follows the asyncio task that makes the call (a
:class:`contextvars.ContextVar`), so interleaved requests never adopt
each other's spans.  Work handed to a shard's apply task is re-parented
explicitly (see :meth:`SpanRecorder.wrap_submit`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Span:
    """One recorded call (times in nanoseconds, ``perf_counter_ns``)."""

    span_id: int
    name: str
    start: int
    end: int
    parent: int | None
    request: int | None

    @property
    def duration(self) -> int:
        return self.end - self.start


def covered(intervals: Iterable[tuple[int, int]], start: int,
            end: int) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - covered(
                children.get(span.span_id, ()), span.start, span.end)
            for span in spans}


class SpanRecorder:
    """Collects spans; installs and removes the wrappers that make them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Apply-queue waits (submit call to start of apply), in ns.
        self.queue_waits: list[int] = []
        #: Extra per-name tallies (accesses, lines, bytes).
        self.tallies: dict[str, float] = {}
        self.enabled = False
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int | None, int | None]] \
            = contextvars.ContextVar("perfbench_span", default=(None, None))
        self._roots: dict[int, int] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def tally(self, name: str, amount: float) -> None:
        self.tallies[name] = self.tallies.get(name, 0.0) + amount

    def _record(self, span_id: int, name: str, start: int,
                parent: int | None, request: int | None) -> None:
        self.spans.append(Span(span_id, name, start, _now(), parent,
                               request))

    def root(self, name: str, request: int | None = None) -> "_Root":
        """Context manager for a request's (or a pass's) root span."""
        return _Root(self, name, request)

    def span_sync(self, name: str, fn: Callable,
                  naming: Callable[..., str] | None = None,
                  after: Callable[..., None] | None = None,
                  delta: tuple[str, Callable[..., float]] | None = None,
                  ) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``naming(*args)`` may pick the span name per call;
        ``after(result, *args)`` may tally the call's output; ``delta =
        (tally, probe)`` tallies how much ``probe(*args)`` grew across
        the call (a program counter read around it).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span_name = naming(*args) if naming is not None else name
            parent, request = recorder._current.get()
            span_id = next(recorder._ids)
            before = delta[1](*args) if delta is not None else 0.0
            token = recorder._current.set((span_id, request))
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._current.reset(token)
                recorder._record(span_id, span_name, start, parent,
                                 request)
            if after is not None:
                after(result, *args, **kwargs)
            if delta is not None:
                recorder.tally(delta[0], delta[1](*args) - before)
            return result

        return wrapper

    def span_async(self, name: str, fn: Callable) -> Callable:
        """Coroutine-function counterpart of :meth:`span_sync`."""
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            parent, request = recorder._current.get()
            span_id = next(recorder._ids)
            token = recorder._current.set((span_id, request))
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder._current.reset(token)
                recorder._record(span_id, name, start, parent, request)

        return wrapper

    def wrap_submit(self, name: str, submit: Callable) -> Callable:
        """Wrap ``ControllerShard.submit``: a span for the caller's wait,
        plus re-parenting of the applied function onto that span and a
        queue-wait sample (submit call to start of apply)."""
        recorder = self

        @functools.wraps(submit)
        async def wrapper(shard: Any, fn: Callable, *args: Any) -> Any:
            if not recorder.enabled:
                return await submit(shard, fn, *args)
            parent, request = recorder._current.get()
            span_id = next(recorder._ids)
            start = _now()

            def apply(*apply_args: Any) -> Any:
                recorder.queue_waits.append(_now() - start)
                token = recorder._current.set((span_id, request))
                try:
                    return fn(*apply_args)
                finally:
                    recorder._current.reset(token)

            try:
                return await submit(shard, apply, *args)
            finally:
                recorder._record(span_id, name, start, parent, request)

        return wrapper

    def wrap_decode(self, name: str, decode: Callable,
                    size_tally: str) -> Callable:
        """Wrap the server's frame decoder: the decoded request's ``id``
        names the client root span, which then parents everything the
        connection task does for that request."""
        recorder = self

        @functools.wraps(decode)
        def wrapper(line: Any) -> Any:
            if not recorder.enabled:
                return decode(line)
            span_id = next(recorder._ids)
            start = _now()
            message = decode(line)
            request = message.get("id") if isinstance(message, dict) \
                else None
            parent = recorder._roots.get(request)
            recorder._record(span_id, name, start, parent, request)
            recorder.tally(size_tally, len(line))
            recorder._current.set((parent, request))
            return message

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner: Any, attribute: str, make: Callable[[Any], Any],
              ) -> bool:
        """Replace ``owner.attribute`` with ``make(original)``.

        Returns False (and patches nothing) when the attribute is gone,
        so a refactor that removes a wrapped function loses that layer's
        numbers instead of breaking the run.
        """
        original = owner.__dict__.get(attribute) if isinstance(owner, type) \
            else getattr(owner, attribute, None)
        if original is None:
            return False
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, make(original))
        return True

    def wrap(self, owner: Any, attribute: str, name: str,
             **options: Any) -> bool:
        """:meth:`patch` with the sync or async span wrapper."""
        def make(original: Any) -> Any:
            if inspect.iscoroutinefunction(original):
                return self.span_async(name, original)
            return self.span_sync(name, original, **options)
        return self.patch(owner, attribute, make)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
        self.enabled = False

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (called when the run ends)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


class _Root:
    """A root span; a request id also registers it for the server side."""

    def __init__(self, recorder: SpanRecorder, name: str,
                 request: int | None):
        self._recorder = recorder
        self._name = name
        self._request = request

    def __enter__(self) -> "_Root":
        recorder = self._recorder
        self.span_id = next(recorder._ids)
        if self._request is not None:
            recorder._roots[self._request] = self.span_id
        self._token = recorder._current.set((self.span_id, self._request))
        self.start = _now()
        return self

    def __exit__(self, *exc: Any) -> None:
        recorder = self._recorder
        recorder._current.reset(self._token)
        recorder._record(self.span_id, self._name, self.start, None,
                         self._request)
        recorder._roots.pop(self._request, None)
