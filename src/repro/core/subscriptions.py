"""v2 subscription ergonomics: handles, the fluent builder, event streams.

The paper's Figure 8 ``subscribe`` returns ``void``: cancelling requires the
application to re-present the very callback/handler objects it registered.
The v2 API keeps that surface working (and byte-for-byte pinned by
``tests/test_api_surface.py``) while layering three consumption styles on
top of any :class:`~repro.core.interface.TPSInterface` binding:

* :class:`SubscriptionHandle` -- returned by ``subscribe()`` and
  ``builder.start()``; ``cancel()`` removes exactly the subscriptions the
  call created (object identity, not callback matching) and the handle is a
  context manager for scoped subscriptions.
* :class:`SubscriptionBuilder` -- the fluent form
  ``tps.subscription(cb).where(pred).on_error(h).start()``.  Every
  ``where`` predicate is ANDed and *pushed down* into the binding's
  dispatch rows (:class:`~repro.core.subscriber.TPSSubscriberManager`
  handler snapshots, and through them the
  :class:`~repro.core.local_engine.LocalBus` delivery loop), so events a
  subscription filters out never reach its callback dispatch -- no wrapper
  callable, no swallowed exception frame.
* :class:`CircuitBreaker` -- subscriber crash containment: a callback that
  raises ``threshold`` consecutive times is quarantined (``closed`` ->
  ``open``), skipped for a ``cooldown`` period, then given one probational
  event (``half_open``) that either resets it or re-opens the quarantine.
  Attached per subscription by
  :meth:`~repro.core.subscriber.TPSSubscriberManager.set_breaker_policy`
  (the JXTA/SHARDED bindings wire it to ``TPSConfig.breaker_threshold`` /
  ``breaker_cooldown``); both dispatch paths -- the manager's and the
  :class:`~repro.core.local_engine.LocalBus` inline loop -- honour it.
* :class:`EventStream` -- pull-style consumption:
  ``tps.stream(maxsize=..., policy=...)`` subscribes an internal enqueue
  callback and hands the application an iterator/queue hybrid with explicit
  backpressure: policy ``"block"`` makes the *publisher* wait for a slow
  consumer (threaded pipelines), ``"drop_oldest"`` bounds memory by
  discarding the stalest events (monitoring dashboards); ``dropped`` counts
  the discards.

Locking model: a handle's ``cancel()`` flips its ``_active`` flag under the
handle's own lock (exactly-once semantics under concurrent cancellation)
and runs the discards outside it; a threaded stream runs every
:class:`StreamCore` step under one lock, flips ``_closed`` and wakes all
waiters *before*
cancelling its subscription, and refuses a ``policy="block"`` wait that the
waiting thread itself would have to service (the re-entrant
publisher-is-the-only-consumer deadlock) by raising :class:`PSException`
into the subscription's normal error route.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Tuple

from repro.core.exceptions import PSException
from repro.net.entropy import monotonic_clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.interface import Subscription, TPSInterface


#: Circuit-breaker states (see :class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Crash containment for one subscription's callback.

    A callback that raises on every event does not just lose its own events:
    in a fan-out dispatch it burns CPU (and error-handler churn) on every
    single publish.  The breaker quarantines such a callback the way a
    service-mesh breaker quarantines a failing endpoint:

    * ``closed`` (normal): events flow; ``threshold`` *consecutive* failures
      trip the breaker;
    * ``open`` (quarantined): events are skipped -- counted in ``skipped`` --
      until ``cooldown`` seconds pass on the supplied clock;
    * ``half_open`` (probation): after the cool-down, events are let through
      again; the first success resets to ``closed``, the first failure
      re-opens for another cool-down.

    The clock is injectable so engines bind it to the simulated network's
    virtual clock while plain LOCAL deployments default to
    ``time.monotonic``.  Trip/reset transitions are observable through the
    optional ``listener`` (called with ``(state, breaker)`` *outside* the
    breaker's lock) and the ``events`` log of ``(state, timestamp)`` pairs.
    """

    __slots__ = (
        "threshold",
        "cooldown",
        "state",
        "failures",
        "trips",
        "resets",
        "skipped",
        "events",
        "_open_until",
        "_clock",
        "_listener",
        "_lock",
    )

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        *,
        clock: Optional[Callable[[], float]] = None,
        listener: Optional[Callable[[str, "CircuitBreaker"], None]] = None,
    ) -> None:
        if threshold < 1:
            raise PSException(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise PSException(f"breaker cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.trips = 0
        self.resets = 0
        self.skipped = 0
        #: (state, clock timestamp) transition log, oldest first.
        self.events: List[Tuple[str, float]] = []
        self._open_until = 0.0
        self._clock = clock if clock is not None else monotonic_clock
        self._listener = listener
        self._lock = threading.Lock()

    def _transition(self, state: str) -> Tuple[str, "CircuitBreaker"]:
        """Record a state change; caller holds the lock, returns the event."""
        self.state = state
        self.events.append((state, self._clock()))
        return (state, self)

    def _notify(self, event: Optional[Tuple[str, "CircuitBreaker"]]) -> None:
        if event is not None and self._listener is not None:
            try:
                self._listener(*event)
            except Exception:  # noqa: BLE001  # repro-lint: disable=RL005 - observers must not break dispatch
                pass

    def allow(self) -> bool:
        """Whether the next event may reach the callback (may move to half-open)."""
        event = None
        with self._lock:
            if self.state == BREAKER_CLOSED:
                return True
            if self.state == BREAKER_OPEN:
                if self._clock() < self._open_until:
                    self.skipped += 1
                    return False
                event = self._transition(BREAKER_HALF_OPEN)
        self._notify(event)
        return True

    def record_success(self) -> None:
        """Note a clean callback invocation (resets failures, closes from probation)."""
        event = None
        with self._lock:
            self.failures = 0
            if self.state != BREAKER_CLOSED:
                self.resets += 1
                event = self._transition(BREAKER_CLOSED)
        self._notify(event)

    def record_failure(self) -> None:
        """Note a raising callback invocation (may trip the breaker open)."""
        event = None
        with self._lock:
            self.failures += 1
            should_trip = self.state == BREAKER_HALF_OPEN or (
                self.state == BREAKER_CLOSED and self.failures >= self.threshold
            )
            if should_trip:
                self.trips += 1
                self._open_until = self._clock() + self.cooldown
                event = self._transition(BREAKER_OPEN)
        self._notify(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CircuitBreaker({self.state}, failures={self.failures}, "
            f"trips={self.trips}, skipped={self.skipped})"
        )


def combine_predicates(
    predicates: "Tuple[Callable[[Any], bool], ...]",
) -> Optional[Callable[[Any], bool]]:
    """AND-combine event predicates; None when there is nothing to check.

    A single predicate is returned as-is so the pushed-down row pays exactly
    one call per event in the common case.
    """
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]

    def combined(event: Any) -> bool:
        for predicate in predicates:
            if not predicate(event):
                return False
        return True

    return combined


class SubscriptionHandle:
    """The result of a ``subscribe()`` call: cancellable, scoped, inspectable.

    Holds the exact :class:`~repro.core.interface.Subscription` objects the
    call created.  ``cancel()`` removes those objects (and only those) from
    the binding, so two subscriptions sharing one callback no longer have to
    be torn down together.  Using the handle as a context manager cancels on
    exit; cancelling twice is a no-op -- including from two racing threads:
    the ``_active`` flip is atomic (under the handle's lock), so exactly one
    caller runs the discards and every other caller gets 0.
    """

    __slots__ = ("_interface", "_subscriptions", "_active", "_lock")

    def __init__(
        self, interface: "TPSInterface[Any]", subscriptions: List["Subscription"]
    ) -> None:
        self._interface = interface
        self._subscriptions = tuple(subscriptions)
        self._active = True
        self._lock = threading.Lock()

    @property
    def interface(self) -> "TPSInterface[Any]":
        """The interface the subscriptions are registered with."""
        return self._interface

    @property
    def subscriptions(self) -> Tuple["Subscription", ...]:
        """The subscription objects this handle controls."""
        return self._subscriptions

    @property
    def active(self) -> bool:
        """False once :meth:`cancel` has run (regardless of what it removed)."""
        return self._active

    def cancel(self) -> int:
        """Remove this handle's subscriptions; returns how many were removed.

        Subscriptions already gone (e.g. after a blanket ``unsubscribe()`` or
        ``close()``) simply do not count, so cancel is always safe to call.
        """
        # Atomic check-then-flip: without the lock two threads could both
        # pass the guard and each run the discards.  The discards themselves
        # run outside the lock (they take the binding's own locks).
        with self._lock:
            if not self._active:
                return 0
            self._active = False
        return sum(
            self._interface._discard_subscription(subscription)
            for subscription in self._subscriptions
        )

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __enter__(self) -> "SubscriptionHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self._active else "cancelled"
        return f"SubscriptionHandle({len(self._subscriptions)} subscription(s), {state})"


class SubscriptionBuilder:
    """Fluent construction of one filtered subscription.

    ``tps.subscription(cb).where(pred).on_error(handler).start()`` -- or
    ``.stream(...)`` instead of ``.start()`` for pull-style consumption.
    Builders are single-use: ``start``/``stream`` consume the builder.
    """

    def __init__(
        self,
        interface: "TPSInterface[Any]",
        callback: Optional[Any] = None,
    ) -> None:
        self._interface = interface
        self._callback = callback
        self._handler: Optional[Any] = None
        self._predicates: Tuple[Callable[[Any], bool], ...] = ()
        self._started = False

    def callback(self, callback: Any) -> "SubscriptionBuilder":
        """Set (or replace) the callback the subscription dispatches to."""
        self._callback = callback
        return self

    def where(self, predicate: Callable[[Any], bool]) -> "SubscriptionBuilder":
        """Add an event predicate; several ``where`` calls are ANDed.

        The combined predicate is pushed down into the binding's dispatch
        rows: events it rejects never reach the callback (and never pay the
        dispatch try/except), unlike filtering inside the callback itself.
        """
        if not callable(predicate):
            raise PSException(f"where() needs a callable predicate, got {predicate!r}")
        self._predicates = self._predicates + (predicate,)
        return self

    def on_error(self, handler: Any) -> "SubscriptionBuilder":
        """Set the exception handler paired with the callback."""
        self._handler = handler
        return self

    def _consume(self) -> None:
        if self._started:
            raise PSException("this subscription builder was already started")
        self._started = True

    def start(self) -> SubscriptionHandle:
        """Register the subscription; returns its :class:`SubscriptionHandle`."""
        self._consume()
        if self._callback is None:
            raise PSException(
                "subscription builder has no callback: pass one to subscription() "
                "or call .callback(cb) before .start()"
            )
        subscription = self._interface._subscribe_one(
            self._callback, self._handler, predicate=combine_predicates(self._predicates)
        )
        return SubscriptionHandle(self._interface, [subscription])

    def stream(
        self,
        maxsize: int = 0,
        policy: str = "block",
        from_offset: Optional[int] = None,
    ) -> "StreamCore":
        """Consume the (filtered) subscription as an event stream.

        The builder must have no callback -- a stream *is* the consumer.
        The stream flavour is the interface's choice (``_make_stream``):
        sync front-ends return the threaded :class:`EventStream`, the ASYNC
        binding an :class:`~repro.core.async_engine.AsyncEventStream` -- the
        builder itself (predicate push-down, error routing) is shared.
        ``from_offset`` resumes from the interface's received history (see
        :meth:`TPSInterfaceCore.stream
        <repro.core.interface.TPSInterfaceCore.stream>`); the ``where``
        predicates then filter at replay time instead of being pushed down.
        """
        self._consume()
        if self._callback is not None:
            raise PSException(
                "a stream is the subscription's consumer; build it without a callback"
            )
        return self._interface._make_stream(
            maxsize,
            policy,
            predicate=combine_predicates(self._predicates),
            exception_handler=self._handler,
            from_offset=from_offset,
        )


#: Backpressure policies accepted by every stream flavour.
STREAM_POLICIES = ("block", "drop_oldest")

#: What :meth:`StreamCore._claim` returns instead of an event: a ``"block"``
#: buffer has no room (nothing was claimed), or there is nothing to claim
#: (the stream is closed or has caught up with its history store).
_FULL = object()
_DONE = object()


class StreamCore:
    """The stream state machine shared by every front-end.

    One state machine, two drivers.  The core owns the stream's state --
    the ``maxsize``/``policy`` contract and its validation, the
    arrival-order buffer and :attr:`dropped` counter, the history cursor
    of a resumable stream, the internal subscription (predicate pushed
    down, errors routed to the paired handler, exactly like any
    application subscription) -- and every step that changes it:
    :meth:`_claim` (pull one entry past the cursor), :meth:`_admit`
    (buffer one event under the policy), :meth:`_rewind` (``resume``),
    :meth:`_take_all` (``drain``), :meth:`_close_waiters` (the closed flag)
    and the re-entrant deadlock heuristic (:meth:`_only_consumer`,
    :meth:`_deadlock`).  It never waits and takes no lock: its steps run
    under the driver's exclusion and wake waiters through the driver's
    ``_not_empty.notify()`` and ``_not_full.notify_all()``.

    The drivers keep only their waiting.  The threaded :class:`EventStream`
    runs each step under its lock on ``threading.Condition`` waiters,
    serialises pulls with ``_pulling`` and re-checks ``_epoch`` after
    running a pull predicate outside the lock.  The asyncio
    :class:`~repro.core.async_engine.AsyncEventStream` runs each step
    confined to its loop, where no two steps can interleave, and parks
    tasks on loop-bound waiters that leave the queue however their wait
    ends.  Drivers supply ``_init_waiters`` (the waiters, created before
    the subscription can deliver), ``_ident`` (who is consuming: a thread
    or task id), ``_on_event`` (the producer side) and ``_replay`` (the
    first pull of a resumable stream).
    """

    def __init__(
        self,
        interface: "TPSInterface[Any]",
        *,
        maxsize: int = 0,
        policy: str = "block",
        predicate: Optional[Callable[[Any], bool]] = None,
        exception_handler: Optional[Any] = None,
        source: Optional[Any] = None,
        from_offset: Optional[int] = None,
    ) -> None:
        if policy not in STREAM_POLICIES:
            raise PSException(
                f"unknown stream policy {policy!r}; expected one of {STREAM_POLICIES}"
            )
        if maxsize < 0:
            raise PSException(f"stream maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.policy = policy
        self._interface = interface
        self._buffer: "deque[Any]" = deque()
        self._closed = False
        self._dropped = 0
        # Cursor mode (``from_offset``): the stream pulls entries from the
        # interface's history store instead of buffering pushed events.  The
        # live subscription below degrades to a pure wake signal -- every
        # wake follows the event's history append, so pulling ``since``
        # delivers each offset exactly once and in order no matter how
        # replay and live publishes interleave.  The predicate then cannot
        # be pushed down (a filtered-out event must still wake the pull);
        # it filters at replay time instead.
        self._source = source
        self._cursor = max(0, from_offset or 0)
        self._pull_predicate = predicate if source is not None else None
        #: Entries read from the store but not yet buffered (a pull stopped
        #: on a full ``"block"`` buffer, or ``resume`` rewound the cursor);
        #: the next pull starts with them, so a backlog is read once however
        #: many pulls it takes to buffer.  Everything else past the cursor
        #: is pulled by the wake its own append triggers, so consumers pull
        #: only while this is non-empty.
        self._held: "deque[Tuple[int, Any, Any]]" = deque()
        #: Bumped by ``resume``, so a driver that ran the pull predicate
        #: outside its exclusion can tell the entry was claimed before it.
        self._epoch = 0
        #: Idents (``_ident``) of everyone who has consumed (get/drain).
        self._consumers: "set[int]" = set()
        self._init_waiters()
        subscription = interface._subscribe_one(
            self._on_event,
            exception_handler,
            predicate=None if source is not None else predicate,
        )
        self._handle = SubscriptionHandle(interface, [subscription])
        interface._register_stream(self)
        if source is not None:
            self._replay()

    # ------------------------------------------------------ driver hooks

    def _init_waiters(self) -> None:
        """Create ``_not_empty`` and ``_not_full``; runs before subscribing."""
        raise NotImplementedError

    def _ident(self) -> int:
        """Identity of the calling consumer or producer (thread or task)."""
        raise NotImplementedError

    def _on_event(self, event: Any) -> Any:
        """The internal subscription's callback (the producer side)."""
        raise NotImplementedError

    def _replay(self) -> Any:
        """Pull the backlog of a cursor-mode stream at construction."""
        raise NotImplementedError

    # ---------------------------------------------------------------- steps

    def _full(self) -> bool:
        """Whether a ``"block"`` buffer is at ``maxsize`` (``"drop_oldest"``
        never is: it makes room by dropping)."""
        return self.policy == "block" and 0 < self.maxsize <= len(self._buffer)

    def _claim(self) -> Any:
        """Claim the next entry past the cursor and return its event.

        Refills ``_held`` from the history store when it is empty.  Returns
        ``_FULL`` without claiming anything when a ``"block"`` buffer has no
        room, and ``_DONE`` when the stream is closed or caught up.  The
        cursor moves before the caller filters or buffers the event, so a
        raising predicate consumes its entry instead of wedging the cursor.
        """
        if self._closed:
            return _DONE
        held = self._held
        if not held:
            held.extend(self._source.since(self._cursor))
            if not held:
                return _DONE
        if self.policy == "block" and 0 < self.maxsize <= len(self._buffer):
            return _FULL  # _full(), inlined: this runs once per pulled entry
        offset, event, _ = held.popleft()
        self._cursor = offset + 1
        return event

    def _admit(self, event: Any) -> None:
        """Buffer one event, dropping the oldest when a ``"drop_oldest"``
        buffer is full (a full ``"block"`` buffer was waited on before)."""
        if self.maxsize and len(self._buffer) >= self.maxsize:
            self._buffer.popleft()
            self._dropped += 1
        self._buffer.append(event)
        self._not_empty.notify()

    def _rewind(self, offset: int) -> None:
        """``resume``'s state change: discard the buffer, move the cursor.

        Anything buffered would replay on top of the re-pulled entries and
        duplicate them.  ``_held`` is reloaded here, not left to whichever
        pull runs next: a pull already past its last ``since`` would
        otherwise miss the range.  Parked publishers wake and pull again
        from the new cursor.
        """
        if self._source is None:
            raise PSException(
                "only streams created with from_offset= are resumable; "
                "use tps.stream(from_offset=...) to make one"
            )
        if self._closed:
            raise PSException("the event stream is closed")
        self._buffer.clear()
        self._epoch += 1
        self._cursor = max(0, offset)
        self._held = deque(self._source.since(self._cursor))
        self._not_full.notify_all()

    def _take_all(self) -> List[Any]:
        """``drain``'s hand-out: everything buffered, waking producers."""
        events = list(self._buffer)
        self._buffer.clear()
        self._not_full.notify_all()
        return events

    def _close_waiters(self) -> bool:
        """Flip the closed flag and wake every waiter; False when already
        closed."""
        if self._closed:
            return False
        self._closed = True
        self._not_empty.notify_all()
        self._not_full.notify_all()
        return True

    def _only_consumer(self) -> bool:
        """Whether the caller is the only one that has ever consumed.

        A publisher for which this holds must not wait for room in a full
        ``"block"`` buffer: the one that would make room is the one about
        to wait.  This is deliberately a *heuristic* on observed consumers:
        a stream nobody has consumed yet still blocks (a consumer may be
        about to start, and refusing would break that legitimate pattern),
        and a past consumer publishing while a brand-new consumer has not
        reached its first get() is refused spuriously -- the undecidable
        trade-off is resolved toward the re-entrant case that is a
        deadlock for certain.
        """
        return self._consumers == {self._ident()}

    def _deadlock(self, actor: str) -> PSException:
        """The error a re-entrant ``"block"`` publish raises instead of
        waiting forever; like any callback error it is routed to the
        subscription's exception handler."""
        return PSException(
            f"{type(self).__name__} deadlock: the publishing {actor} is this "
            "stream's only consumer and the buffer is full; drain the stream "
            f"first, consume from another {actor}, or choose "
            "policy='drop_oldest'"
        )

    # ------------------------------------------------------------- resuming

    @property
    def resumable(self) -> bool:
        """Whether this stream was created with ``from_offset`` (cursor mode)."""
        return self._source is not None

    @property
    def offset(self) -> int:
        """The next history offset a cursor-mode stream will pull (0 when live)."""
        return self._cursor

    # ------------------------------------------------------------ inspection

    @property
    def pending(self) -> int:
        """How many events are buffered right now."""
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """How many events the ``drop_oldest`` policy has discarded."""
        return self._dropped

    # ------------------------------------------------------------ lifecycle

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def _shutdown(self) -> bool:
        """Run :meth:`_close_waiters` under the driver's exclusion."""
        return self._close_waiters()

    def close(self) -> None:
        """Cancel the subscription and wake all blocked producers/consumers.

        Buffered events stay readable through ``get``/``drain``; iteration
        ends once they are consumed.  Idempotent.  The interface itself
        calls this for every open stream when it closes (or on a blanket
        ``unsubscribe()``), so consumers never block on a subscription that
        no longer exists.  The flag flip and the wake-ups (``_shutdown``)
        happen *first*, then exactly one caller -- the one that flipped the
        flag -- cancels the subscription and unregisters the stream; see
        :meth:`EventStream._shutdown` for the races the order forecloses.
        """
        if not self._shutdown():
            return
        self._handle.cancel()
        self._interface._unregister_stream(self)

    def __enter__(self) -> "StreamCore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"{type(self).__name__}({state}, pending={len(self._buffer)}, "
            f"maxsize={self.maxsize}, policy={self.policy!r})"
        )


class EventStream(StreamCore):
    """Pull-style consumption of one interface's events, with backpressure.

    The stream subscribes an internal enqueue callback (honouring any
    pushed-down predicate) and buffers events in arrival order:

    * iterate (``for event in stream``) or call :meth:`get` to consume,
      blocking until an event arrives or the stream is closed;
    * :meth:`drain` grabs everything currently buffered without blocking --
      the natural form inside the single-threaded simulator, where publish
      delivers synchronously;
    * a bounded stream (``maxsize > 0``) applies ``policy`` when full:
      ``"block"`` suspends the *publisher's* delivery until the consumer
      catches up (only meaningful with a consumer on another thread),
      ``"drop_oldest"`` discards the stalest buffered event and counts it in
      :attr:`dropped`.

    Closing (or leaving the ``with`` block) cancels the subscription and
    wakes every blocked producer and consumer.  Every :class:`StreamCore`
    step runs under ``_lock``.
    """

    _ident = staticmethod(threading.get_ident)

    def _init_waiters(self) -> None:
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        #: True while one thread runs a cursor-mode pull: pulls are
        #: serialised end to end, so entries enter the buffer in offset
        #: order.  Publishers wait for ``_pull_done``; consumers only pull
        #: when nobody else is.  Ending a pull broadcasts ``_not_empty``, so
        #: a consumer that found a pull running and went to sleep retries
        #: its own.
        self._pulling = False
        self._pull_done = threading.Condition(self._lock)

    # ------------------------------------------------------------- producer

    def _on_event(self, event: Any) -> None:
        if self._source is not None:
            # Cursor mode: the pushed event is only a wake signal; deliver
            # whatever the history store holds past the cursor instead.
            self._pump()
            return
        with self._lock:
            while self._full() and not self._closed:
                if self._only_consumer():
                    raise self._deadlock("thread")
                self._not_full.wait()
            if not self._closed:
                self._admit(event)

    def _pump(self) -> None:
        """Publisher-side pull: a full ``"block"`` buffer parks the caller."""
        with self._lock:
            while self._pulling and not self._closed:
                self._pull_done.wait()
            if self._closed:
                return
            self._pulling = True
        try:
            while self._fill():
                with self._lock:
                    if self._only_consumer():
                        # Parking could never be woken; the rest stays
                        # held for this thread's next get()/drain().
                        return
                    while self._full() and not self._closed:
                        self._not_full.wait()
        finally:
            self._end_pull()

    def _fill(self) -> bool:
        """Move entries past the cursor into the buffer until it is full.

        The caller set ``_pulling``.  Returns True when entries are
        left over because a ``"block"`` buffer filled up.  The predicate
        runs outside the lock on an entry already claimed, which is dropped,
        not buffered, when ``resume`` bumped the epoch meanwhile.
        """
        predicate = self._pull_predicate
        while True:
            with self._lock:
                event = self._claim()
                if event is _FULL or event is _DONE:
                    return event is _FULL
                if predicate is None:
                    self._admit(event)
                    continue
                epoch = self._epoch
            if predicate(event):
                with self._lock:
                    if self._epoch == epoch and not self._closed:
                        self._admit(event)

    def _end_pull(self) -> None:
        with self._lock:
            self._pulling = False
            self._pull_done.notify()
            self._not_empty.notify_all()

    def _try_fill(self) -> None:
        """Consumer-side pull: top the buffer up unless a pull is running
        (which then delivers ``_held`` and the history past the cursor)."""
        with self._lock:
            if self._pulling:
                return
            self._pulling = True
        try:
            self._fill()
        finally:
            self._end_pull()

    _replay = _try_fill

    def resume(self, offset: int) -> "EventStream":
        """Reposition a resumable stream's cursor and pull immediately.

        Only streams created with ``from_offset=`` are resumable.  Anything
        currently buffered is discarded; the stream then yields exactly the
        retained history at or after ``offset``, in order, and keeps
        following live events from there.  A publisher parked on a full
        ``"block"`` buffer holds no entry and refills from the new cursor;
        one running the pull predicate on an entry claimed before the
        resume drops that entry.  A backlog larger than ``maxsize`` is
        pulled as the consumer makes room, so resuming never waits for the
        publisher.  Returns the stream.
        """
        with self._lock:
            self._rewind(offset)
        self._try_fill()
        return self

    # ------------------------------------------------------------- consumer

    def get(self, timeout: Optional[float] = None) -> Any:
        """Remove and return the next event, waiting for one if necessary.

        Raises :class:`PSException` when the stream is closed and empty, or
        when ``timeout`` (seconds) elapses without an event.  A cursor-mode
        stream with an empty buffer first pulls the entries a full buffer
        left behind (see :meth:`resume`).
        """
        deadline = None if timeout is None else monotonic_clock() + timeout
        while True:
            with self._lock:
                self._consumers.add(threading.get_ident())
                if self._buffer:
                    event = self._buffer.popleft()
                    self._not_full.notify()
                    return event
                if self._closed:
                    raise PSException("the event stream is closed and empty")
                pull = bool(self._held) and not self._pulling
                if pull:
                    self._pulling = True
                else:
                    remaining = None if deadline is None else deadline - monotonic_clock()
                    if remaining is not None and remaining <= 0:
                        raise PSException(f"no event arrived within {timeout} seconds")
                    self._not_empty.wait(remaining)
            if pull:
                try:
                    self._fill()
                finally:
                    self._end_pull()

    def drain(self) -> List[Any]:
        """Remove and return everything currently buffered (never blocks).

        A cursor-mode stream first tops its buffer up with the entries a
        full buffer left behind, so a ``"block"`` stream hands out at most
        ``maxsize`` events per call.
        """
        if self._held:
            self._try_fill()
        with self._lock:
            self._consumers.add(threading.get_ident())
            return self._take_all()

    def __iter__(self) -> Iterator[Any]:
        """Yield events until the stream is closed and drained."""
        while True:
            try:
                yield self.get()
            except PSException:
                return

    # ------------------------------------------------------------- lifecycle

    def _shutdown(self) -> bool:
        """Flip the closed flag and wake all waiters, under the lock.

        The flag flips and the wake-ups happen under the lock *first*, then
        exactly one thread (the one that flipped it) runs the cancel and
        unregister in :meth:`StreamCore.close`.  Doing it in the other
        order had two races: two concurrent closers both ran the
        unregister, and a producer already inside ``_on_event`` could start
        a ``_not_full`` wait after the cancel but before the wake -- and
        then sleep forever.
        """
        with self._lock:
            self._pull_done.notify_all()
            return self._close_waiters()


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "EventStream",
    "STREAM_POLICIES",
    "StreamCore",
    "SubscriptionBuilder",
    "SubscriptionHandle",
    "combine_predicates",
]
