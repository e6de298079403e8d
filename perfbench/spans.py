"""Span tracing for the traced benchmark run, installed from outside ``src/``.

:class:`Tracer` replaces public entry points of ``repro.core``,
``repro.serialization``, ``repro.jxta``, ``repro.net`` and ``repro.storage``
with timing wrappers.  Each call becomes a span ``[name, start_ns, end_ns,
parent, request]``: the parent is the span open in the calling task (a
``ContextVar``, so coroutines interleaving on one event loop keep separate
stacks) and the request is the index of the publish being served.  Spans stay
in memory until :meth:`Tracer.rollup` folds them into per-name totals and
:meth:`Tracer.write` dumps them.

Wrappers must be installed before a workload builds its engines: ``LocalBus``
and ``AsyncLocalBus`` cache the bound ``engine._received.append`` in their
route rows and ``TPSSubscriberManager`` caches bound ``handle`` methods, so a
wrapper installed later is never called.
"""

from __future__ import annotations

import contextvars
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    """Records spans around wrapped entry points; see the module docstring.

    Spans live in flat integer arrays (name id, start, end, parent,
    request) rather than one object per span: the garbage collector never
    traverses them, so a long traced run does not slow down as it grows.
    """

    def __init__(self, max_spans: int) -> None:
        #: Soft cap: workloads end their traced phase at the next round
        #: boundary once this many spans were recorded (see :attr:`full`).
        self.max_spans = max_spans
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        #: Index of the publish being served (set by the publish wrappers).
        self.request = -1
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, float] = defaultdict(float)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        """Whether the soft span cap has been reached."""
        return len(self.start) >= self.max_spans

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # ------------------------------------------------------------ recording

    def open(self, name_id: int) -> Tuple[int, Any]:
        """Start a span; returns its index and the context token to close it."""
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._current.get())
        self.request_of.append(self.request)
        self.end.append(0)
        self.start.append(_now())
        return index, self._current.set(index)

    def close(self, span: Tuple[int, Any]) -> None:
        index, token = span
        self.end[index] = _now()
        self._current.reset(token)

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (for the benchmark's own steps)."""
        return _SpanContext(self, self.name_id(name))

    def _wrapper(
        self,
        function: Callable[..., Any],
        name: str,
        before: Optional[Callable[..., Any]],
        after: Optional[Callable[..., None]],
    ) -> Callable[..., Any]:
        """A timing wrapper around ``function``.

        ``before(*args, **kwargs)`` runs ahead of the span and its value is
        handed to ``after(result, value, *args, **kwargs)``, which runs once
        the span closed: counting costs nothing inside the measured time.
        """
        tracer = self
        name_id = self.name_id(name)
        if inspect.iscoroutinefunction(function):

            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                value = before(*args, **kwargs) if before is not None else None
                span = tracer.open(name_id)
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    after(result, value, *args, **kwargs)
                return result

            return traced_async

        def traced(*args: Any, **kwargs: Any) -> Any:
            value = before(*args, **kwargs) if before is not None else None
            span = tracer.open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(result, value, *args, **kwargs)
            return result

        return traced

    # ----------------------------------------------------------- installing

    def wrap_method(
        self,
        owner: type,
        attribute: str,
        name: str,
        *,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` (plain or class method) with a wrapper."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self._wrapper(original.__func__, name, before, after)
            )
        else:
            replacement = self._wrapper(original, name, before, after)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def wrap_function(
        self,
        module: Any,
        attribute: str,
        name: str,
        *,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace a module function everywhere it was imported by name.

        ``from repro.serialization.xml_codec import parse_xml`` binds the
        function into the importing module, so every loaded ``repro`` module
        (and ``module`` itself) that holds the original gets the wrapper.
        """
        original = getattr(module, attribute)
        replacement = self._wrapper(original, name, before, after)
        holders = [module] + [
            loaded
            for key, loaded in list(sys.modules.items())
            if key.startswith("repro") and loaded is not module
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------ reporting

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_ns`` and ``self_ns``.

        A span's self time is its duration minus the part of its interval
        that its child spans cover (children are clipped to the parent and
        overlapping children are counted once).  Spans still open when the
        run ended are left out.
        """
        start, end, parent = self.start, self.end, self.parent
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for index in range(len(start)):
            if parent[index] >= 0 and end[index]:
                children[parent[index]].append((start[index], end[index]))
        totals = [{"calls": 0, "total_ns": 0, "self_ns": 0} for _ in self.names]
        for index in range(len(start)):
            begin, finish = start[index], end[index]
            if not finish:
                continue
            covered = 0
            cursor = begin
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, finish)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            entry = totals[self.name_of[index]]
            entry["calls"] += 1
            entry["total_ns"] += finish - begin
            entry["self_ns"] += finish - begin - covered
        return dict(zip(self.names, totals))

    def parented_total_ns(self, names: Tuple[str, ...], parents: Tuple[str, ...]) -> int:
        """Total duration of ``names`` spans whose direct parent is a ``parents`` span."""
        wanted = {self._name_ids[name] for name in names if name in self._name_ids}
        under = {self._name_ids[name] for name in parents if name in self._name_ids}
        total = 0
        for index in range(len(self.start)):
            parent = self.parent[index]
            if (
                self.name_of[index] in wanted
                and parent >= 0
                and self.name_of[parent] in under
                and self.end[index]
            ):
                total += self.end[index] - self.start[index]
        return total

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line: name, start, end, parent, request."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self.start)):
                out.write(
                    json.dumps(
                        [
                            self.names[self.name_of[index]],
                            self.start[index],
                            self.end[index],
                            self.parent[index],
                            self.request_of[index],
                        ]
                    )
                )
                out.write("\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name = name_id

    def __enter__(self) -> None:
        self._span = self._tracer.open(self._name)

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer.close(self._span)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    full = False

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()
