"""The ``"ASYNC"`` binding: an asyncio-native TPS engine.

The PR 5 JXTA binding *guards* against cross-thread misuse: it records its
owner thread and raises when another thread calls in.  This binding replaces
the guard with a design where the misuse has no correct spelling at all --
**the loop is the thread**:

* an :class:`AsyncLocalBus` is owned by the event loop that created it;
  every route-table mutation and every delivery runs on that loop, so the
  bus needs *no locks* -- loop confinement gives the same exclusion the
  sync buses buy with ``threading.Lock``, and the PR 1/PR 4 snapshot
  template carries over unchanged: route rows and handler tuples are
  immutable tuples, rebound atomically, read straight off the attribute by
  the delivery loop;
* :class:`AsyncTPSEngine` is the asyncio front-end of the shared
  :class:`~repro.core.interface.TPSInterfaceCore`: the subscription
  surface, the fluent builder (``.where()`` push-down), predicate/error
  routing, circuit breakers and the idempotent close template are the very
  same objects the sync bindings use -- only publishing and waiting are
  expressed as awaitables (``await tps.publish(...)``,
  ``await tps.publish_many(...)``, ``await tps.close()``,
  ``async with tps:``);
* coroutine subscribers are first-class: subscribe an ``async def`` and the
  delivery loop awaits it (the :class:`~repro.core.callbacks.FunctionCallback`
  adapter passes the coroutine through); plain callables are still accepted
  and dispatched inline, exactly like on the sync bindings.  With
  ``dispatch="serial"`` (default) subscribers are awaited in row order --
  per-subscriber delivery order equals publish order; ``"concurrent"``
  gathers each event's subscriber coroutines so their I/O waits overlap,
  still with a per-event barrier (``await publish`` returns only when every
  subscriber finished, so order across events is preserved either way);
* :class:`AsyncEventStream` keeps the ``maxsize``/``policy="block"|
  "drop_oldest"`` contract of the threaded stream, but *backpressure is an
  awaitable*: a full ``"block"`` stream suspends the publishing coroutine
  on a future until a consumer makes room, instead of blocking a thread.
  ``async for event in stream`` consumes until the stream closes.

Every mutating or delivering operation checks the running loop first and
raises a :class:`PSException` -- never a bare ``RuntimeError`` -- when
called from a foreign thread, a foreign loop, or no loop at all.  History
queries (``objects_received``/``objects_sent``) stay callable from
anywhere, like on every other binding.

Determinism note: this binding runs on real asyncio loops and is therefore
outside the simulated-network replay domain; it imports no entropy sources
(RL004 covers this module -- the one clock read, stream ``get`` timeouts,
uses the owning loop's own ``loop.time()``), and how it composes with the
simulated wire bindings is documented in ``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import weakref
from collections import deque
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.core.bindings import BindingParam, BindingRequest, register_binding
from repro.core.exceptions import PSException
from repro.core.history import (
    DEFAULT_HISTORY_SIZE,
    HISTORY_BINDING_PARAMS,
    make_history_pair,
)
from repro.core.interface import PublishReceipt, Subscription, TPSInterfaceCore
from repro.core.subscriber import TPSSubscriberManager
from repro.core.subscriptions import _DONE, _FULL, StreamCore
from repro.core.type_registry import Criteria, TypeRegistry, type_name
from repro.serialization.object_codec import ObjectCodec

#: How the bus drives one event's subscriber coroutines (see module docs).
ASYNC_DISPATCH_MODES = ("serial", "concurrent")


def _task_ident() -> int:
    """Identity of the running task (0 outside a task), for the re-entrant
    backpressure heuristic -- the async analogue of a thread ident."""
    task = asyncio.current_task()
    return id(task) if task is not None else 0


class _Done:
    """An already-completed awaitable: ``await`` returns immediately.

    :meth:`AsyncTPSEngine.close` returns one so both spellings work --
    plain ``tps.close()`` (e.g. from the generic
    :meth:`~repro.core.engine.TPSEngine.close` loop) and the async-aware
    ``await tps.close()``.  Teardown itself ran synchronously before this
    object is returned (see :meth:`TPSInterfaceCore._close_impl
    <repro.core.interface.TPSInterfaceCore._close_impl>`).
    """

    __slots__ = ()

    def __await__(self):
        return iter(())


class AsyncLocalBus:
    """An event-loop-owned bus connecting :class:`AsyncTPSEngine` instances.

    Structurally the asyncio twin of :class:`~repro.core.local_engine.LocalBus`:
    engines attach under their hierarchy root, publishing resolves a
    type-indexed route row -- ``(engine, manager, criteria, record)`` tuples
    -- and dispatches against the subscriber manager's immutable
    ``_handlers`` snapshot.  The difference is the exclusion mechanism:
    where ``LocalBus`` serialises mutations on a per-bus lock, this bus is
    *loop-confined* -- construction captures the running loop, every
    mutating or delivering call checks it is running on that loop
    (:meth:`check_loop`), and single-threaded loop execution makes the
    mutations atomic with respect to each other with no lock at all.  The
    snapshots still matter: a coroutine suspended mid-delivery (awaiting a
    subscriber) observes the route row and handler tuple it loaded, never a
    half-rebuilt hybrid, even if another task attaches or subscribes during
    the await.
    """

    def __init__(
        self,
        *,
        dispatch: str = "serial",
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if dispatch not in ASYNC_DISPATCH_MODES:
            raise PSException(
                f"unknown async dispatch mode {dispatch!r}; "
                f"expected one of {ASYNC_DISPATCH_MODES}"
            )
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise PSException(
                    "an AsyncLocalBus is owned by the event loop that creates "
                    "it ('the loop is the thread'); construct it inside a "
                    "running loop, e.g. from a coroutine"
                ) from None
        self.dispatch = dispatch
        self._loop = loop
        self._engines: Dict[str, Tuple["AsyncTPSEngine", ...]] = {}
        self._routes: Dict[str, Dict[Type[Any], Tuple[Tuple[Any, ...], ...]]] = {}

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop that owns this bus."""
        return self._loop

    def check_loop(self, operation: str) -> None:
        """Raise :class:`PSException` unless the owning loop is running us.

        The async analogue of the JXTA binding's thread-affinity guard --
        except here the owning "thread" is the loop itself, so the check is
        also what makes cross-thread calls fail *before* any state mutates
        (there is no half-registered subscription to roll back).  Both
        failure shapes -- no running loop (plain call from a foreign thread
        or after the loop closed) and a *different* running loop -- raise
        :class:`PSException`, never a bare ``RuntimeError``.
        """
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            raise PSException(
                f"{operation} called with no running event loop: ASYNC "
                "interfaces are owned by their event loop ('the loop is the "
                "thread'); call from a coroutine on the owning loop, or "
                "marshal with asyncio.run_coroutine_threadsafe / "
                "loop.call_soon_threadsafe"
            ) from None
        if running is not self._loop:
            raise PSException(
                f"{operation} called on a foreign event loop: this ASYNC "
                f"interface is owned by loop {self._loop!r} but the running "
                f"loop is {running!r} ('the loop is the thread'); marshal "
                "onto the owning loop with asyncio.run_coroutine_threadsafe"
            )

    # ------------------------------------------------------------- topology

    def attach(self, engine: "AsyncTPSEngine") -> None:
        """Attach an engine to its hierarchy's topic (loop-confined)."""
        self.check_loop("attach")
        root = engine.registry.advertised_name
        self._engines[root] = self._engines.get(root, ()) + (engine,)
        self._routes.pop(root, None)

    def detach(self, engine: "AsyncTPSEngine") -> None:
        """Detach an engine (missing engines are ignored; loop-confined)."""
        self.check_loop("detach")
        root = engine.registry.advertised_name
        engines = self._engines.get(root, ())
        if engine in engines:
            self._engines[root] = tuple(e for e in engines if e is not engine)
            self._routes.pop(root, None)

    def engines_for(self, root: Type[Any]) -> Tuple["AsyncTPSEngine", ...]:
        """Every engine attached to the hierarchy rooted at ``root``."""
        return self._engines.get(type_name(root), ())

    def _route(self, root: str, event_class: Type[Any]) -> Tuple[Tuple[Any, ...], ...]:
        """The delivery rows for one (root, concrete event class) pair.

        Same shape and caching discipline as ``LocalBus._route``, minus the
        lock: the double-checked rebuild is unnecessary because only the
        owning loop ever gets here.
        """
        routes = self._routes.get(root)
        if routes is None:
            routes = self._routes[root] = {}
        targets = routes.get(event_class)
        if targets is None:
            targets = routes[event_class] = tuple(
                (engine, engine.subscriber_manager, engine.criteria, engine._received.append)
                for engine in self._engines.get(root, ())
                if issubclass(event_class, engine.registry.event_type)
            )
        return targets

    # ------------------------------------------------------------- delivery

    async def publish(self, publisher: "AsyncTPSEngine", event: Any) -> int:
        """Deliver ``event`` to every conforming engine except the publisher.

        Returns the number of engines delivered to.  The loop body mirrors
        ``LocalBus.publish`` row for row (skip publisher/closed/empty,
        criteria, record, per-row predicate + breaker + error routing); the
        async difference is that a subscriber returning an awaitable -- a
        coroutine callback, or a ``"block"``-policy stream applying
        backpressure -- suspends *this coroutine* rather than blocking a
        thread.  ``dispatch="serial"`` awaits rows in order;
        ``"concurrent"`` collects each row's guarded dispatch and gathers
        them once, so subscriber waits overlap within the event.
        """
        self.check_loop("publish")
        targets = self._route(publisher.registry.advertised_name, type(event))
        concurrent: Optional[List[Awaitable[None]]] = (
            [] if self.dispatch == "concurrent" else None
        )
        delivered = 0
        for engine, manager, criteria, record in targets:
            if engine is publisher or engine._tps_closed:
                continue
            handlers = manager._handlers
            if not handlers:
                continue
            if criteria is not None and not criteria.matches_event(event):
                continue
            record(event)
            for row in handlers:
                if concurrent is None:
                    await self._dispatch_row(row, event)
                else:
                    concurrent.append(self._dispatch_row(row, event))
            delivered += 1
        if concurrent:
            await asyncio.gather(*concurrent)
        return delivered

    async def _dispatch_row(self, row: Tuple[Any, ...], event: Any) -> None:
        """Dispatch one handler row, routing errors to its paired handler.

        Identical semantics to the sync buses' inner loop: a rejected
        predicate skips the row, a breaker in quarantine skips it, a raising
        predicate/callback records the failure and routes to the exception
        handler.  A coroutine callback (or coroutine error handler) is
        awaited; its exceptions surface here exactly like a sync raise.
        Control-flow exceptions (``CancelledError``, ``KeyboardInterrupt``,
        ``SystemExit``) are not subscriber errors: they reach the publisher
        uncharged to the breaker.
        """
        handle, handle_error, predicate, breaker = row
        try:
            if predicate is not None and not predicate(event):
                return
            if breaker is not None and not breaker.allow():
                return
            result = handle(event)
            if inspect.isawaitable(result):
                await result
            if breaker is not None:
                breaker.record_success()
        except Exception as error:  # noqa: BLE001 - routed to the handler
            if breaker is not None:
                breaker.record_failure()
            try:
                routed = handle_error(error)
                if inspect.isawaitable(routed):
                    await routed
            except Exception:  # noqa: BLE001  # repro-lint: disable=RL005 - a broken error handler must not stop dispatch
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        attached = sum(len(engines) for engines in self._engines.values())
        return (
            f"AsyncLocalBus(dispatch={self.dispatch!r}, engines={attached}, "
            f"loop={self._loop!r})"
        )


class _Waiters:
    """Tasks parked on one condition of a loop-confined stream.

    The loop-bound counterpart of a ``threading.Condition``: ``notify``
    wakes the longest-parked waiter, ``notify_all`` every waiter, and
    ``await wait(timeout)`` parks the calling task until it is woken or
    ``timeout`` seconds pass.  A waiter leaves the queue however its wait
    ends: a wake-up takes it off, and one that times out or is cancelled
    removes itself.  One cancelled after being woken hands the wake-up on,
    so no waiter is left parked and no wake-up is lost.
    """

    __slots__ = ("_loop", "_futures")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._futures: "deque[asyncio.Future]" = deque()

    def __len__(self) -> int:
        """How many tasks are parked right now."""
        return len(self._futures)

    def notify(self) -> None:
        futures = self._futures
        while futures:
            future = futures.popleft()
            if not future.done():
                future.set_result(None)
                return

    def notify_all(self) -> None:
        futures = self._futures
        while futures:
            future = futures.popleft()
            if not future.done():
                future.set_result(None)

    async def wait(self, timeout: Optional[float] = None) -> None:
        future = self._loop.create_future()
        self._futures.append(future)
        try:
            if timeout is None:
                await future
            else:
                await asyncio.wait((future,), timeout=timeout)
        except BaseException:
            if future.done() and not future.cancelled():
                self.notify()  # woken, then cancelled: pass the wake-up on
            raise
        finally:
            if future in self._futures:
                # Timed out or cancelled while parked; a wake-up already
                # took the waiter off the queue.
                self._futures.remove(future)


class AsyncEventStream(StreamCore):
    """Pull-style consumption over the ASYNC binding: ``async for``-able.

    The same :class:`~repro.core.subscriptions.StreamCore` state machine as
    the threaded :class:`~repro.core.subscriptions.EventStream` --
    arrival-order buffer, ``maxsize``, ``policy="block"|"drop_oldest"``,
    :attr:`dropped` counter, close-wakes-everyone -- with every step confined
    to the owning loop instead of run under a lock, and waiting expressed as
    parked tasks instead of condition variables:

    * ``async for event in stream`` (or ``await stream.get(timeout=...)``)
      suspends the consuming task until an event arrives or the stream
      closes;
    * a full ``"block"`` stream suspends the *publishing coroutine* -- the
      awaitable-backpressure half of the contract -- until a consumer makes
      room; the re-entrant case (the publishing task is the stream's only
      consumer, so nobody can ever make room) raises :class:`PSException`
      into the subscription's error route, mirroring the threaded
      heuristic;
    * :meth:`drain` stays synchronous (the buffer is loop-confined) and
      wakes blocked producers.

    Both ``with stream:`` (from loop context) and ``async with stream:``
    scope the stream.
    """

    _ident = staticmethod(_task_ident)

    def _init_waiters(self) -> None:
        self._loop = self._interface.bus.loop
        self._not_empty = _Waiters(self._loop)
        self._not_full = _Waiters(self._loop)

    # ------------------------------------------------------------- producer

    async def _on_event(self, event: Any) -> None:
        if self._source is not None:
            # Cursor mode: the pushed event is only a wake signal; deliver
            # whatever the history store holds past the cursor instead.
            await self._pump()
            return
        await self._enqueue(event)

    async def _pump(self) -> None:
        """Publisher-side pull: a full ``"block"`` buffer suspends the caller.

        A suspended publisher holds no entry (``_claim`` stops *before*
        claiming one), so whatever ran meanwhile -- consumer pulls, a
        ``resume`` -- it simply refills from the current cursor on waking.
        """
        try:
            while self._fill():
                if self._only_consumer():
                    # Suspending could never be woken; the rest stays held
                    # for this task's next get()/drain().
                    return
                await self._not_full.wait()
        finally:
            if self._held:
                # Left entries behind (a raising predicate, cancellation):
                # let sleeping consumers pull them.
                self._not_empty.notify_all()

    def _fill(self) -> bool:
        """Move entries past the cursor into the buffer until it is full.

        Synchronous, so it runs atomically on the loop: publishers and
        consumers may all call it, and entries still enter the buffer in
        offset order.  Returns True when entries are left over because a
        ``"block"`` buffer filled up.
        """
        predicate = self._pull_predicate
        while True:
            event = self._claim()
            if event is _FULL or event is _DONE:
                return event is _FULL
            if predicate is None or predicate(event):
                self._admit(event)

    _replay = _fill

    async def resume(self, offset: int) -> "AsyncEventStream":
        """Reposition a resumable stream's cursor and pull immediately.

        The awaitable twin of :meth:`EventStream.resume
        <repro.core.subscriptions.EventStream.resume>`: buffered events are
        discarded, the cursor moves to ``offset`` and the stream then yields
        exactly the retained history from there, in order.  Never suspends:
        a publisher parked on a full ``"block"`` buffer holds no entry and
        refills from the new cursor when it wakes, and a backlog larger than
        ``maxsize`` is pulled as the consumer makes room.
        """
        self._interface._check_loop("stream resume")
        self._rewind(offset)
        self._fill()
        return self

    async def _enqueue(self, event: Any) -> None:
        while self._full() and not self._closed:
            if self._only_consumer():
                raise self._deadlock("task")
            await self._not_full.wait()
        if not self._closed:
            self._admit(event)

    # ------------------------------------------------------------- consumer

    async def get(self, timeout: Optional[float] = None) -> Any:
        """Remove and return the next event, awaiting one if necessary.

        Raises :class:`PSException` when the stream is closed and empty, or
        when ``timeout`` (seconds, on the owning loop's clock) elapses
        without an event.
        """
        self._interface._check_loop("stream get")
        self._consumers.add(_task_ident())
        deadline = None if timeout is None else self._loop.time() + timeout
        while True:
            if self._buffer:
                event = self._buffer.popleft()
                self._not_full.notify()
                return event
            if self._closed:
                raise PSException("the event stream is closed and empty")
            if self._held:
                # Cursor mode: take what a full buffer left behind (after
                # which the buffer holds something or nothing is held).
                self._fill()
                continue
            remaining = None if deadline is None else deadline - self._loop.time()
            if remaining is not None and remaining <= 0:
                raise PSException(f"no event arrived within {timeout} seconds")
            await self._not_empty.wait(remaining)

    def drain(self) -> List[Any]:
        """Remove and return everything currently buffered (never suspends)."""
        self._interface._check_loop("stream drain")
        self._consumers.add(_task_ident())
        if self._held:
            self._fill()
        return self._take_all()

    def __aiter__(self) -> "AsyncEventStream":
        return self

    async def __anext__(self) -> Any:
        """Yield events until the stream is closed and drained."""
        try:
            return await self.get()
        except PSException:
            raise StopAsyncIteration from None

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Close the stream (loop-confined; see :meth:`StreamCore.close`)."""
        self._interface._check_loop("stream close")
        super().close()

    async def __aenter__(self) -> "AsyncEventStream":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncTPSEngine(TPSInterfaceCore):
    """The asyncio front-end of the TPS interface (the ``"ASYNC"`` binding).

    Shares the whole subscription surface --
    ``subscribe``/``unsubscribe``/``subscription()`` builder with ``.where``
    push-down/handles/streams/breakers -- with the sync bindings through
    :class:`~repro.core.interface.TPSInterfaceCore`; only publishing,
    streaming and lifecycle are async-flavoured:

    * ``await tps.publish(event)`` / ``await tps.publish_many(events)``
      return :class:`PublishReceipt` objects once every subscriber (and any
      stream backpressure) settled;
    * ``tps.stream(...)`` returns an :class:`AsyncEventStream`;
    * ``await tps.close()`` (or ``async with tps:``) tears down; plain
      ``tps.close()`` works too -- teardown is synchronous on the loop and
      the returned awaitable is already complete;
    * every mutating operation is loop-confined: calls from foreign
      threads/loops raise :class:`PSException` before any state changes
      (see :meth:`AsyncLocalBus.check_loop`); after close they raise the
      uniform post-close :class:`PSException`, never ``RuntimeError``.
    """

    def __init__(
        self,
        event_type: Type[Any],
        *,
        bus: Optional[AsyncLocalBus] = None,
        criteria: Optional[Criteria] = None,
        codec: Optional[ObjectCodec] = None,
        history: str = "ring",
        history_size: int = DEFAULT_HISTORY_SIZE,
        history_path: Optional[str] = None,
        breaker_threshold: int = 0,
        breaker_cooldown: float = 30.0,
    ) -> None:
        # Instance slot shadowing the class attribute, same rationale as
        # LocalTPSEngine: the delivery loop reads it once per row.
        self._tps_closed = False
        self.registry = TypeRegistry(event_type, codec=codec)
        self.criteria = criteria
        if bus is None:
            bus = AsyncLocalBus()
        elif not isinstance(bus, AsyncLocalBus):
            raise PSException(
                "the ASYNC binding needs an AsyncLocalBus (or no bus at "
                f"all); got {type(bus).__name__}"
            )
        self.bus = bus
        # Constructing from a foreign thread/loop must fail before attach.
        self.bus.check_loop("ASYNC interface construction")
        self.subscriber_manager = TPSSubscriberManager()
        self._received, self._sent = make_history_pair(
            history, history_size, history_path, codec=self.registry.codec
        )
        if breaker_threshold > 0:
            # The breaker clock is the owning loop's own clock ('the loop is
            # the thread'): cooldowns expire on loop time, which tests drive
            # deterministically by substituting loop.time.
            self.subscriber_manager.set_breaker_policy(
                breaker_threshold,
                breaker_cooldown,
                clock=self.bus.loop.time,
            )
        self.bus.attach(self)

    def _check_loop(self, operation: str) -> None:
        self.bus.check_loop(operation)

    # ------------------------------------------------------------ publishing

    async def publish(self, event: Any) -> PublishReceipt:
        """Publish to every conforming subscriber on the owning loop.

        Suspends while coroutine subscribers run (and while a full
        ``"block"`` stream applies backpressure); returns once delivery
        settled.
        """
        self._check_open()
        self._check_loop("publish")
        self.registry.check_publishable(event)
        # Codec round-trip for the same reason as the sync bindings: local
        # and wire deliveries agree on serialisability, subscribers get an
        # isolated copy.
        copy = self.registry.decode(self.registry.encode(event))
        delivered = await self.bus.publish(self, copy)
        self._sent.append(event)
        return PublishReceipt(
            cpu_time=0.0, completion_time=0.0, pipes=1, wire_receipts=[delivered]
        )

    async def publish_many(self, events: Iterable[Any]) -> List[PublishReceipt]:
        """Publish a batch in per-source order; one receipt per event.

        Validation and codec round-trips run up front (a bad event fails the
        batch before anything is delivered), then events are awaited through
        the bus sequentially -- per-subscriber order across the batch equals
        batch order, the same guarantee the sync bindings give.
        """
        self._check_open()
        self._check_loop("publish_many")
        batch = list(events)
        copies = []
        for event in batch:
            self.registry.check_publishable(event)
            copies.append(self.registry.decode(self.registry.encode(event)))
        receipts = []
        for copy in copies:
            delivered = await self.bus.publish(self, copy)
            receipts.append(
                PublishReceipt(
                    cpu_time=0.0,
                    completion_time=0.0,
                    pipes=1,
                    wire_receipts=[delivered],
                )
            )
        record_sent = self._sent.append
        for event in batch:
            record_sent(event)
        return receipts

    # ----------------------------------------------------------- subscribing

    # The loop checks live in the three mutation hooks -- the narrowest
    # shared funnel under subscribe()/unsubscribe()/handle.cancel()/stream
    # teardown -- so a foreign-thread call fails before the subscriber
    # manager mutates and leaves nothing half-registered.

    def _add_subscription(self, subscription: Subscription) -> None:
        self._check_loop("subscribe")
        self.subscriber_manager.add(subscription)

    def _remove_subscriptions(
        self, callback: Optional[Any] = None, handler: Optional[Any] = None
    ) -> int:
        self._check_loop("unsubscribe")
        return self.subscriber_manager.remove(callback, handler)

    def _discard_subscription(self, subscription: Subscription) -> int:
        self._check_loop("subscription cancel")
        return self.subscriber_manager.discard(subscription)

    # --------------------------------------------------------------- streams

    def _make_stream(
        self,
        maxsize: int,
        policy: str,
        predicate: Optional[Callable[[Any], bool]] = None,
        exception_handler: Optional[Any] = None,
        from_offset: Optional[int] = None,
    ) -> AsyncEventStream:
        self._check_loop("stream")
        return AsyncEventStream(
            self,
            maxsize=maxsize,
            policy=policy,
            predicate=predicate,
            exception_handler=exception_handler,
            source=self._history_store() if from_offset is not None else None,
            from_offset=from_offset,
        )

    # objects_received / objects_sent come from TPSInterfaceCore, answered
    # by the engine's history stores (loop-confined appends, thread-safe
    # reads -- history queries stay callable from anywhere).

    # ------------------------------------------------------------- lifecycle

    def close(self) -> Awaitable[None]:
        """End this interface's life; idempotent, loop-confined.

        Teardown (detach from the bus, drop subscriptions, close streams,
        waking their waiters) completes synchronously on the owning loop;
        the returned awaitable is already done, so ``await tps.close()`` and
        plain ``tps.close()`` are equivalent.  A second close returns
        immediately without the loop check, so generic teardown loops (e.g.
        ``TPSEngine.close``) stay safe to re-run.
        """
        if not self._tps_closed:
            self._check_loop("close")
            self._close_impl()
        return _Done()

    def _do_close(self) -> None:
        self.bus.detach(self)
        self.subscriber_manager.remove()
        self._received.close()
        self._sent.close()

    async def __aenter__(self) -> "AsyncTPSEngine":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.close()


# --------------------------------------------------------------------------
# The registry spec: validated params and the per-loop shared-bus cache.


def _dispatch_value(value: Any) -> Optional[str]:
    if value in ASYNC_DISPATCH_MODES:
        return None
    return f"must be one of {ASYNC_DISPATCH_MODES}, got {value!r}"


def _not_bool(value: Any) -> Optional[str]:
    # bool subclasses int; reject it explicitly for the numeric params.
    if isinstance(value, bool):
        return f"must be a number, got {value!r}"
    return None


#: The parameter schema of the ``"ASYNC"`` binding.
ASYNC_BINDING_PARAMS = (
    BindingParam(
        "dispatch",
        (str,),
        "'serial' awaits each subscriber in row order; 'concurrent' gathers "
        "one event's subscriber coroutines so their waits overlap",
        _dispatch_value,
        default="serial",
    ),
    BindingParam(
        "group",
        (str,),
        "shared-bus group name: interfaces with equal params in the same "
        "group on one loop share a registry-built bus",
    ),
    BindingParam(
        "breaker_threshold",
        (int,),
        "consecutive callback failures before a subscription's circuit "
        "breaker opens (0 disables breakers); cooldowns run on the owning "
        "loop's clock",
        _not_bool,
        default=0,
    ),
    BindingParam(
        "breaker_cooldown",
        (int, float),
        "seconds (loop time) an open breaker quarantines its callback "
        "before probation",
        _not_bool,
        default=30.0,
    ),
) + HISTORY_BINDING_PARAMS

#: Registry-built buses, keyed per owning loop (held weakly -- caching a bus
#: never pins a finished loop) and, within a loop, by the canonical
#: (dispatch, group) parameter key.  The lock covers the rare cache
#: mutation: distinct threads each running their own loop may resolve
#: concurrently.
_LOOP_BUSES: "weakref.WeakKeyDictionary[Any, Dict[Tuple[Any, ...], AsyncLocalBus]]" = (
    weakref.WeakKeyDictionary()
)
_LOOP_BUSES_LOCK = threading.Lock()


def resolve_async_params(request: BindingRequest) -> Dict[str, Any]:
    """Normalise an ASYNC request's parameters into canonical kwargs."""
    kwargs: Dict[str, Any] = {}
    if "dispatch" in request.params:
        kwargs["dispatch"] = request.param("dispatch")
    if "group" in request.params:
        kwargs["group"] = request.param("group")
    return kwargs


def shared_loop_bus(request: BindingRequest) -> AsyncLocalBus:
    """The bus an ASYNC request resolves to: one per (loop, dispatch, group).

    Unlike SHARDED there is no process-global default bus -- a bus cannot
    outlive loop ownership -- so even a parameter-less request shares the
    *owning loop's* default bus, and interfaces on different loops never
    share one (they could not talk safely anyway).
    """
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        raise PSException(
            "new_interface('ASYNC') must run inside the event loop that "
            "will own the interface ('the loop is the thread'); call it "
            "from a coroutine running on that loop"
        ) from None
    kwargs = resolve_async_params(request)
    key = (kwargs.get("dispatch", "serial"), kwargs.get("group"))
    with _LOOP_BUSES_LOCK:
        cache = _LOOP_BUSES.setdefault(loop, {})
        bus = cache.get(key)
        if bus is None:
            bus = cache[key] = AsyncLocalBus(dispatch=key[0], loop=loop)
        return bus


def request_async_bus(request: BindingRequest) -> AsyncLocalBus:
    """Resolve the bus of an ASYNC request: explicit or registry-built."""
    bus = request.local_bus
    if bus is None:
        return shared_loop_bus(request)
    if not isinstance(bus, AsyncLocalBus):
        raise PSException(
            "the ASYNC binding needs an AsyncLocalBus (or no bus at all); "
            f"got {type(bus).__name__}: construct the engine with "
            "TPSEngine(EventType, local_bus=AsyncLocalBus()) from inside "
            "the owning loop"
        )
    if resolve_async_params(request):
        raise PSException(
            "ASYNC parameters describe a registry-built shared bus; pass "
            "either binding params (dispatch/group) or an explicit "
            "local_bus, not both"
        )
    return bus


def reset_loop_buses() -> None:
    """Drop the registry-built per-loop bus cache.

    Registered as the ASYNC ``on_unregister`` hook: an
    ``unregister_binding("ASYNC")``/re-register cycle must not resolve new
    interfaces onto buses cached under the previous registration (the same
    stale-spec leak as the sharded param-bus cache; see
    :func:`repro.core.sharded_engine.reset_param_buses`).  Live interfaces
    keep the bus they hold; only the cache is cleared.
    """
    with _LOOP_BUSES_LOCK:
        _LOOP_BUSES.clear()


def _async_binding(request: BindingRequest) -> AsyncTPSEngine:
    """The ``"ASYNC"`` binding factory: an asyncio-native interface."""
    return AsyncTPSEngine(
        request.event_type,
        bus=request_async_bus(request),
        criteria=request.criteria,
        codec=request.codec,
        history=request.param("history", "ring"),
        history_size=request.param("history_size", DEFAULT_HISTORY_SIZE),
        history_path=request.param("history_path", "") or None,
        breaker_threshold=request.param("breaker_threshold", 0),
        breaker_cooldown=request.param("breaker_cooldown", 30.0),
    )


def register_async_binding() -> None:
    """(Re-)register the ``"ASYNC"`` binding with its canonical spec.

    Module import calls this once; tests exercising the
    ``unregister_binding`` cache-reset path call it again to restore the
    built-in registration.
    """
    register_binding(
        "ASYNC",
        _async_binding,
        capabilities=("in-process", "asynchronous", "event-loop"),
        params=ASYNC_BINDING_PARAMS,
        replace=True,
        on_unregister=reset_loop_buses,
    )


register_async_binding()


__all__ = [
    "ASYNC_BINDING_PARAMS",
    "ASYNC_DISPATCH_MODES",
    "AsyncEventStream",
    "AsyncLocalBus",
    "AsyncTPSEngine",
    "register_async_binding",
    "request_async_bus",
    "reset_loop_buses",
    "resolve_async_params",
    "shared_loop_bus",
]
