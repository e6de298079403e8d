"""The ASYNC binding's own behavior, beyond the shared conformance matrix.

The conformance suite (``test_binding_conformance.py``) already proves the
ASYNC binding speaks the common TPS surface; this module covers what is
*specifically* asynchronous about it:

* loop ownership ("the loop is the thread"): publish/subscribe/close from a
  foreign thread, a foreign loop, or no loop at all fail with a clear
  :class:`PSException` -- never a bare ``RuntimeError`` -- and fail
  *atomically* (nothing half-registered), the async analogue of the
  composite's thread-affinity tests;
* coroutine subscribers, serial-vs-concurrent dispatch, and awaitable
  backpressure on ``"block"`` streams;
* ``async for``/``async with`` forms and awaitable close;
* the binding registry integration: the validated parameter schema, the
  per-loop shared-bus cache, and the ``unregister_binding`` cache-reset
  regression (for both ASYNC and the PR 5 sharded param-bus cache).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, List

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSEngine
from repro.core.async_engine import (
    AsyncEventStream,
    AsyncLocalBus,
    AsyncTPSEngine,
    register_async_binding,
)
from repro.core.bindings import (
    binding_capabilities,
    registered_bindings,
    unregister_binding,
)
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus
from repro.core.sharded_engine import register_sharded_binding

pytestmark = [pytest.mark.asyncio]


def _offer(shop: str = "shop", price: float = 10.0) -> SkiRental:
    return SkiRental(shop, price, "Salomon", 7)


def _pair(engine: TPSEngine, **params: Any):
    """A (publisher, subscriber) ASYNC pair; call from the owning loop."""
    return engine.new_interface("ASYNC", **params), engine.new_interface(
        "ASYNC", **params
    )


class TestLoopOwnership:
    """'The loop is the thread': misuse fails atomically with PSException."""

    def test_construction_outside_a_loop_raises_psexception(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException, match="loop"):
            engine.new_interface("ASYNC")
        engine.close()

    def test_foreign_loop_publish_raises_psexception(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())

        async def misuse():
            await tps.publish(_offer())

        with pytest.raises(PSException, match="foreign event loop"):
            asyncio.run(misuse())
        # Nothing was published and the interface is still open.
        assert tps.objects_sent() == []
        assert not tps.closed

    def test_no_loop_subscribe_leaves_no_half_registration(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())
        with pytest.raises(PSException, match="no running event loop"):
            tps.subscribe(lambda event: None)
        assert len(tps.subscriber_manager) == 0

    def test_foreign_thread_calls_raise_psexception_not_runtimeerror(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())
        caught: List[BaseException] = []

        def misuse() -> None:
            try:
                tps.subscribe(lambda event: None)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                caught.append(error)

        thread = threading.Thread(target=misuse, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        # The typed API exception, not asyncio's bare "no running event
        # loop" RuntimeError leaking through.
        assert type(caught[0]) is PSException
        assert "the loop is the thread" in str(caught[0])
        assert len(tps.subscriber_manager) == 0

    def test_foreign_loop_close_leaves_interface_open(self):
        async def build():
            engine = TPSEngine(SkiRental)
            return engine, engine.new_interface("ASYNC")

        engine, tps = asyncio.run(build())

        async def misuse():
            await tps.close()

        with pytest.raises(PSException, match="foreign event loop"):
            asyncio.run(misuse())
        assert not tps.closed

    def test_closed_interface_raises_psexception_from_anywhere(self):
        """Post-close failures are the uniform PSException even off-loop:
        the open check runs before the loop check."""

        async def build_and_close():
            engine = TPSEngine(SkiRental)
            tps = engine.new_interface("ASYNC")
            await tps.close()
            return engine, tps

        engine, tps = asyncio.run(build_and_close())
        assert tps.closed
        # The owning loop is gone (asyncio.run closed it), yet every verb
        # still fails with the binding-uniform post-close PSException.
        with pytest.raises(PSException, match="closed"):
            tps.subscribe(lambda event: None)
        with pytest.raises(PSException, match="closed"):
            tps.stream()
        # History queries keep answering, like every other binding.
        assert tps.objects_sent() == []
        assert tps.objects_received() == []


class TestCoroutineSubscribers:
    def test_coroutine_and_plain_subscribers_mix_in_order(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            log: List[Any] = []
            subscriber.subscribe(lambda event: log.append(("plain", event.shop)))

            async def coro(event: Any) -> None:
                await asyncio.sleep(0)
                log.append(("coro", event.shop))

            subscriber.subscribe(coro)
            await publisher.publish(_offer("a"))
            await publisher.publish(_offer("b"))
            engine.close()
            return log

        # Serial dispatch: per-event, rows complete in registration order;
        # across events, publish order -- even though the coroutine
        # subscriber suspends mid-delivery.
        assert asyncio.run(main()) == [
            ("plain", "a"),
            ("coro", "a"),
            ("plain", "b"),
            ("coro", "b"),
        ]

    def test_coroutine_errors_route_to_exception_handler(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            errors: List[BaseException] = []

            async def broken(event: Any) -> None:
                await asyncio.sleep(0)
                raise ValueError("async subscriber bug")

            subscriber.subscribe(broken, errors.append)
            await publisher.publish(_offer())
            engine.close()
            return errors

        errors = asyncio.run(main())
        assert len(errors) == 1 and isinstance(errors[0], ValueError)

    def test_concurrent_dispatch_overlaps_subscriber_waits(self):
        def run(dispatch: str) -> List[str]:
            async def main():
                engine = TPSEngine(SkiRental)
                publisher, subscriber = _pair(engine, dispatch=dispatch)
                log: List[str] = []

                def make(name: str):
                    async def coro(event: Any) -> None:
                        log.append(f"start-{name}")
                        await asyncio.sleep(0)
                        log.append(f"end-{name}")

                    return coro

                subscriber.subscribe([make("a"), make("b")])
                await publisher.publish(_offer())
                engine.close()
                return log

            return asyncio.run(main())

        # serial: a completes before b starts; concurrent: both start
        # before either finishes (their sleeps overlap), but publish still
        # returns only after the per-event gather barrier.
        assert run("serial") == ["start-a", "end-a", "start-b", "end-b"]
        assert run("concurrent") == ["start-a", "start-b", "end-a", "end-b"]


class TestAsyncStreams:
    def test_async_for_consumes_until_close(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            stream = subscriber.stream()

            async def consume() -> List[str]:
                shops = []
                async for event in stream:
                    shops.append(event.shop)
                return shops

            task = asyncio.create_task(consume())
            for shop in ("a", "b", "c"):
                await publisher.publish(_offer(shop))
            await asyncio.sleep(0)
            stream.close()
            shops = await task
            engine.close()
            return shops

        assert asyncio.run(main()) == ["a", "b", "c"]

    def test_block_policy_backpressure_suspends_publisher(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            consumed: List[str] = []
            async with subscriber.stream(maxsize=1, policy="block") as stream:

                async def consume() -> None:
                    for _ in range(3):
                        consumed.append((await stream.get()).shop)

                task = asyncio.create_task(consume())
                # Three events through a one-slot stream: the second and
                # third publishes must suspend until the consumer makes
                # room.  publish_many returning proves backpressure is an
                # awaitable hand-off, not a deadlock.
                receipts = await publisher.publish_many(
                    [_offer("a"), _offer("b"), _offer("c")]
                )
                await task
                assert len(receipts) == 3
            assert stream.dropped == 0
            engine.close()
            return consumed

        assert asyncio.run(main()) == ["a", "b", "c"]

    def test_drop_oldest_policy_counts_drops(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            stream = subscriber.stream(maxsize=2, policy="drop_oldest")
            await publisher.publish_many([_offer(f"s{i}") for i in range(5)])
            kept = [event.shop for event in stream.drain()]
            dropped = stream.dropped
            engine.close()
            return kept, dropped

        kept, dropped = asyncio.run(main())
        assert kept == ["s3", "s4"]
        assert dropped == 3

    def test_reentrant_only_consumer_raises_instead_of_deadlocking(self):
        """The async analogue of the threaded deadlock heuristic: if the
        publishing *task* is the stream's only consumer, a full ``"block"``
        wait could never be woken -- raise into the error route instead."""

        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            errors: List[BaseException] = []
            stream = (
                subscriber.subscription()
                .on_error(errors.append)
                .stream(maxsize=1, policy="block")
            )
            stream.drain()  # registers this task as a consumer
            await publisher.publish(_offer("fits"))
            await publisher.publish(_offer("overflows"))
            engine.close()
            return errors

        errors = asyncio.run(main())
        assert len(errors) == 1
        assert isinstance(errors[0], PSException)
        assert "deadlock" in str(errors[0])

    def test_get_timeout_raises_psexception(self):
        async def main():
            engine = TPSEngine(SkiRental)
            _, subscriber = _pair(engine)
            stream = subscriber.stream()
            with pytest.raises(PSException, match="no event arrived"):
                await stream.get(timeout=0.01)
            engine.close()

        asyncio.run(main())


class TestAsyncStreamWaiters:
    """A parked task leaves its stream's waiter queue however its wait ends."""

    def test_timed_out_gets_leave_no_parked_waiter(self):
        async def main():
            engine = TPSEngine(SkiRental)
            _, subscriber = _pair(engine)
            stream = subscriber.stream()
            for _ in range(5000):
                with pytest.raises(PSException, match="no event arrived"):
                    await stream.get(timeout=0)
            for _ in range(3):
                with pytest.raises(PSException, match="no event arrived"):
                    await stream.get(timeout=0.001)
            parked = len(stream._not_empty)
            engine.close()
            return parked

        assert asyncio.run(main()) == 0

    def test_consumer_cancelled_after_its_wake_up_hands_it_on(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            stream = subscriber.stream()
            first = asyncio.create_task(stream.get())
            second = asyncio.create_task(stream.get())
            await asyncio.sleep(0)
            await publisher.publish(_offer("only"))  # wakes ``first``
            first.cancel()
            event = await asyncio.wait_for(second, 0.5)
            parked = len(stream._not_empty)
            engine.close()
            return first.cancelled(), event.shop, parked

        assert asyncio.run(main()) == (True, "only", 0)

    @pytest.mark.parametrize("from_offset", [None, 0])
    def test_cancelled_block_publisher_propagates_and_leaves_no_waiter(
        self, from_offset
    ):
        """Cancelling a publisher parked on a full ``"block"`` stream is a
        cancellation, not a subscriber error: ``publish`` raises
        ``CancelledError``, the stream's handler is not called, its breaker
        is not charged, and no parked waiter is left behind."""

        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine, breaker_threshold=1)
            errors: List[BaseException] = []
            stream = (
                subscriber.subscription()
                .on_error(errors.append)
                .stream(maxsize=1, policy="block", from_offset=from_offset)
            )
            await publisher.publish(_offer("fits"))
            task = asyncio.create_task(publisher.publish(_offer("parks")))
            for _ in range(3):
                await asyncio.sleep(0)
            assert len(stream._not_full) == 1
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            breakers = [
                subscription.breaker
                for subscription in subscriber.subscriber_manager.subscriptions()
            ]
            outcome = (
                errors,
                len(stream._not_full),
                [(b.state, b.failures) for b in breakers],
                [event.shop for event in stream.drain()],
            )
            engine.close()
            return outcome

        errors, parked, breakers, drained = asyncio.run(main())
        assert errors == []
        assert parked == 0
        assert breakers == [("closed", 0)]
        assert drained == ["fits"]


class TestAsyncLifecycle:
    def test_await_close_and_async_with_are_equivalent(self):
        async def main():
            engine = TPSEngine(SkiRental)
            awaited = engine.new_interface("ASYNC")
            await awaited.close()
            assert awaited.closed
            await awaited.close()  # idempotent, awaitable form
            async with engine.new_interface("ASYNC") as scoped:
                assert not scoped.closed
            assert scoped.closed
            engine.close()

        asyncio.run(main())

    def test_engine_close_tears_down_async_interfaces_on_loop(self):
        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(engine)
            engine.close()  # generic sync teardown, running on the loop
            return publisher.closed and subscriber.closed

        assert asyncio.run(main())


class TestAsyncBindingRegistry:
    def test_registered_with_capabilities_and_param_schema(self):
        assert "ASYNC" in registered_bindings()
        assert "event-loop" in binding_capabilities("ASYNC")
        report = registered_bindings(with_params=True)
        assert report["ASYNC"] == (
            "dispatch",
            "group",
            "breaker_threshold",
            "breaker_cooldown",
            "history",
            "history_size",
            "history_path",
        )

    def test_ill_typed_params_name_the_offending_key(self):
        async def main():
            engine = TPSEngine(SkiRental)
            with pytest.raises(PSException, match="dispatch"):
                engine.new_interface("ASYNC", dispatch=5)
            with pytest.raises(PSException, match="dispatch"):
                engine.new_interface("ASYNC", dispatch="bogus")
            with pytest.raises(PSException, match="group"):
                engine.new_interface("ASYNC", group=7)
            with pytest.raises(PSException, match="ring_size"):
                engine.new_interface("ASYNC", ring_size=4)  # undeclared
            engine.close()

        asyncio.run(main())

    def test_same_loop_same_params_share_one_bus(self):
        async def main():
            engine = TPSEngine(SkiRental)
            a = engine.new_interface("ASYNC", group="g", dispatch="concurrent")
            b = engine.new_interface("ASYNC", group="g", dispatch="concurrent")
            c = engine.new_interface("ASYNC", group="other")
            default = engine.new_interface("ASYNC")
            shared = a.bus is b.bus
            distinct = (
                c.bus is not a.bus
                and default.bus is not a.bus
                and default.bus is not c.bus
            )
            engine.close()
            return shared, distinct

        shared, distinct = asyncio.run(main())
        assert shared
        assert distinct

    def test_explicit_bus_rejects_params_and_wrong_bus_type(self):
        async def main():
            bus = AsyncLocalBus()
            direct = TPSEngine(SkiRental, local_bus=bus)
            tps = direct.new_interface("ASYNC")
            assert tps.bus is bus
            with pytest.raises(PSException, match="not both"):
                direct.new_interface("ASYNC", group="g")
            direct.close()
            wrong = TPSEngine(SkiRental, local_bus=LocalBus())
            with pytest.raises(PSException, match="AsyncLocalBus"):
                wrong.new_interface("ASYNC")
            wrong.close()

        asyncio.run(main())


class TestUnregisterCacheReset:
    """Satellite regression: ``unregister_binding`` then re-register must
    not resolve new interfaces onto buses cached under the old spec."""

    def test_async_reregistration_does_not_leak_loop_bus_cache(self):
        async def main():
            engine = TPSEngine(SkiRental)
            before = engine.new_interface("ASYNC", group="leak")
            try:
                assert unregister_binding("ASYNC")
                register_async_binding()
                after = engine.new_interface("ASYNC", group="leak")
                fresh = after.bus is not before.bus
            finally:
                register_async_binding()
            engine.close()
            return fresh

        assert asyncio.run(main())

    def test_sharded_reregistration_does_not_leak_param_bus_cache(self):
        engine = TPSEngine(SkiRental)
        before = engine.new_interface("SHARDED", shards=5)
        try:
            assert unregister_binding("SHARDED")
            register_sharded_binding()
            after = engine.new_interface("SHARDED", shards=5)
            assert after.bus is not before.bus
        finally:
            register_sharded_binding()
        engine.close()

    def test_parameterless_async_interfaces_still_pair_after_reset(self):
        """The per-loop default bus is re-built after a reset, and new
        interfaces pair up on it as usual."""

        async def main():
            try:
                assert unregister_binding("ASYNC")
                register_async_binding()
                engine = TPSEngine(SkiRental)
                publisher, subscriber = _pair(engine)
                inbox: List[Any] = []
                subscriber.subscribe(inbox.append)
                await publisher.publish(_offer("post-reset"))
                engine.close()
                return [event.shop for event in inbox]
            finally:
                register_async_binding()

        assert asyncio.run(main()) == ["post-reset"]


class TestAsyncEngineDirect:
    """The engine class is usable without the registry, like its siblings."""

    def test_direct_construction_and_fanout(self):
        async def main():
            bus = AsyncLocalBus()
            publisher = AsyncTPSEngine(SkiRental, bus=bus)
            subscriber = AsyncTPSEngine(SkiRental, bus=bus)
            inbox: List[Any] = []
            subscriber.subscribe(inbox.append)
            receipt = await publisher.publish(_offer("direct"))
            assert receipt.wire_receipts == [1]
            stream = subscriber.stream()
            assert isinstance(stream, AsyncEventStream)
            await publisher.publish(_offer("streamed"))
            assert [event.shop for event in stream.drain()] == ["streamed"]
            await subscriber.close()
            await publisher.close()
            return [event.shop for event in inbox]

        assert asyncio.run(main()) == ["direct", "streamed"]


class TestLoopClockBreakers:
    """Satellite: ASYNC breakers tick on ``loop.time``, not wall time."""

    def test_breaker_cooldown_follows_a_manually_advanced_loop_clock(self):
        loop = asyncio.new_event_loop()
        fake = [1_000.0]
        loop.time = lambda: fake[0]  # patched BEFORE the engine captures it

        async def main():
            engine = TPSEngine(SkiRental)
            publisher, subscriber = _pair(
                engine, breaker_threshold=2, breaker_cooldown=5.0
            )
            calls: List[Any] = []
            healthy: List[Any] = []

            def flaky(event: Any) -> None:
                calls.append(event.shop)
                raise RuntimeError("boom")

            subscriber.subscribe(flaky)
            subscriber.subscribe(lambda event: healthy.append(event.shop))
            await publisher.publish(_offer("a"))
            await publisher.publish(_offer("b"))  # second failure trips it
            assert calls == ["a", "b"]
            # Quarantined: deliveries are skipped while the (virtual)
            # cooldown runs, however fast the wall clock moves.
            await publisher.publish(_offer("c"))
            fake[0] += 4.9  # still inside the 5 s cooldown
            await publisher.publish(_offer("d"))
            assert calls == ["a", "b"]
            # Advancing the loop clock past the cooldown opens probation:
            # exactly one delivery gets through (and re-trips on failure).
            fake[0] += 0.2
            await publisher.publish(_offer("e"))
            assert calls == ["a", "b", "e"]
            await publisher.publish(_offer("f"))
            assert calls == ["a", "b", "e"]
            # The healthy subscription on the same interface never skipped.
            assert healthy == ["a", "b", "c", "d", "e", "f"]
            await publisher.close()
            await subscriber.close()
            engine.close()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
