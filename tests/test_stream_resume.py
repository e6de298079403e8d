"""Resuming a cursor stream while its publisher is parked on a full buffer.

A ``"block"`` cursor stream (``tps.stream(from_offset=..., maxsize=...)``)
parks the publisher when the buffer is full.  ``resume(n)`` from the
consumer must then yield exactly offsets ``n, n+1, ...`` in order -- nothing
the parked publisher was about to buffer may leak -- and must not wait for
that publisher, which itself waits for room only the consumer can make.

Two shapes, each on the threaded (LOCAL) and the asyncio (ASYNC) driver:

* **race** -- a long run with ``maxsize=64`` that resumes at ``last + 1``
  every 500 events, each time while the publisher is parked;
* **backlog** -- ``maxsize=4``, ``resume(5)`` after 10 gets, so the resumed
  backlog (15 entries) is larger than the buffer.

A third, threaded-only case resumes while the publisher is inside a pull
predicate (the asyncio driver runs predicates atomically with its pull).
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import TPSEngine
from repro.core.local_engine import LocalBus, LocalTPSEngine

pytestmark = [pytest.mark.durability]

#: Seconds any single wait may take before the test calls it a deadlock.
PATIENCE = 5.0


def _offer(index: int) -> SkiRental:
    return SkiRental(f"shop-{index}", float(index), "Salomon", 7)


def _index(event: SkiRental) -> int:
    return int(event.shop.rsplit("-", 1)[1])


def _run_threaded(events: int, maxsize: int, resume_at) -> list:
    """Publish ``events`` from a thread; consume on this one.

    ``resume_at(got)`` returns the offset to resume at after the consumer
    has taken ``got`` (a list of offsets), or None.  Each resume runs only
    once the publisher is parked on the full buffer.  Returns the offsets
    the consumer saw, up to the last one published; a deadlocked run closes
    the stream and returns short.
    """
    bus = LocalBus()
    publisher = LocalTPSEngine(SkiRental, bus=bus)
    subscriber = LocalTPSEngine(SkiRental, bus=bus)
    stream = subscriber.stream(maxsize=maxsize, policy="block", from_offset=0)
    producer = threading.Thread(
        target=lambda: [publisher.publish(_offer(index)) for index in range(events)],
        daemon=True,
    )
    # A watchdog turns a deadlock into a closed stream (and a short result).
    watchdog = threading.Timer(30.0, stream.close)
    watchdog.start()
    got: list = []
    try:
        stream.drain()  # this thread is the consumer from the start
        producer.start()
        while not got or got[-1] != events - 1:
            try:
                got.append(_index(stream.get(timeout=PATIENCE)))
            except Exception:  # noqa: BLE001 - closed by the watchdog or timed out
                break
            offset = resume_at(got)
            if offset is None:
                continue
            deadline = time.monotonic() + PATIENCE
            while stream.pending < maxsize and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.02)  # the publisher is now parked on the full buffer
            resumer = threading.Thread(target=stream.resume, args=(offset,), daemon=True)
            resumer.start()
            resumer.join(PATIENCE)
            if resumer.is_alive():
                break  # resume deadlocked
    finally:
        watchdog.cancel()
        stream.close()
        producer.join(PATIENCE)
        publisher.close()
        subscriber.close()
    return got


def _run_async(events: int, maxsize: int, resume_at) -> list:
    """The ASYNC twin of :func:`_run_threaded`."""

    async def main() -> list:
        engine = TPSEngine(SkiRental)
        publisher = engine.new_interface("ASYNC")
        subscriber = engine.new_interface("ASYNC")
        stream = subscriber.stream(maxsize=maxsize, policy="block", from_offset=0)
        stream.drain()  # this task is the consumer from the start

        async def produce() -> None:
            for index in range(events):
                await publisher.publish(_offer(index))

        producer = asyncio.get_running_loop().create_task(produce())
        got: list = []
        try:
            while not got or got[-1] != events - 1:
                try:
                    event = await asyncio.wait_for(stream.get(), PATIENCE)
                except Exception:  # noqa: BLE001 - timed out: a lost or stuck pull
                    break
                got.append(_index(event))
                offset = resume_at(got)
                if offset is None:
                    continue
                while stream.pending < maxsize and not producer.done():
                    await asyncio.sleep(0)
                try:
                    await asyncio.wait_for(stream.resume(offset), PATIENCE)
                except Exception:  # noqa: BLE001 - deadlocked or raised
                    break
        finally:
            stream.close()
            await asyncio.wait_for(producer, PATIENCE)
            await publisher.close()
            await subscriber.close()
        return got

    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(main())
    finally:
        loop.close()


DRIVERS = [
    pytest.param(_run_threaded, id="threaded"),
    pytest.param(_run_async, id="async", marks=pytest.mark.asyncio),
]


@pytest.mark.parametrize("run", DRIVERS)
def test_resume_while_publisher_parked_leaks_nothing(run):
    """Resuming at ``last + 1`` every 500 events changes nothing the
    consumer sees: every offset once, in order."""
    got = run(2000, 64, lambda got: got[-1] + 1 if len(got) % 500 == 0 else None)
    assert got == list(range(2000))


@pytest.mark.parametrize("run", DRIVERS)
def test_resume_with_backlog_beyond_maxsize_does_not_deadlock(run):
    """``resume(5)`` after 10 gets on a ``maxsize=4`` stream re-yields
    5..9, then follows on, without waiting for the parked publisher."""
    got = run(20, 4, lambda got: 5 if len(got) == 10 else None)
    assert got == list(range(10)) + list(range(5, 20))


def test_threaded_resume_drops_the_entry_a_running_predicate_claimed():
    """The publisher claimed offset 3 and is running the pull predicate on it
    when the consumer resumes at 0: offset 3 must not slip in first."""
    entered, release = threading.Event(), threading.Event()

    def predicate(offer: SkiRental) -> bool:
        if offer.shop == "shop-3" and not release.is_set():
            entered.set()
            release.wait(PATIENCE)
        return True

    bus = LocalBus()
    publisher = LocalTPSEngine(SkiRental, bus=bus)
    subscriber = LocalTPSEngine(SkiRental, bus=bus)
    stream = subscriber.subscription().where(predicate).stream(from_offset=0)
    producer = threading.Thread(
        target=lambda: [publisher.publish(_offer(index)) for index in range(6)],
        daemon=True,
    )
    got: list = []
    try:
        producer.start()
        assert entered.wait(PATIENCE)
        resumer = threading.Thread(target=stream.resume, args=(0,), daemon=True)
        resumer.start()
        resumer.join(PATIENCE)
        resumed = not resumer.is_alive()
        release.set()
        while not got or got[-1] != 5:
            got.append(_index(stream.get(timeout=PATIENCE)))
    finally:
        release.set()
        stream.close()
        producer.join(PATIENCE)
        publisher.close()
        subscriber.close()
    assert resumed
    assert got == list(range(6))


def test_threaded_backlog_beyond_maxsize_is_pulled_as_the_consumer_makes_room():
    """No publisher runs: opening a ``maxsize=4`` stream on a 10-event
    backlog must not block, and gets/drains pull the rest in order."""
    bus = LocalBus()
    publisher = LocalTPSEngine(SkiRental, bus=bus)
    subscriber = LocalTPSEngine(SkiRental, bus=bus)
    subscriber.subscribe(lambda event: None)
    for index in range(10):
        publisher.publish(_offer(index))
    got: list = []

    def consume() -> None:
        stream = subscriber.stream(maxsize=4, policy="block", from_offset=0)
        got.extend(_index(event) for event in stream.drain())
        while len(got) < 10:
            got.append(_index(stream.get(timeout=PATIENCE)))
        stream.close()

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(PATIENCE)
    alive = consumer.is_alive()
    publisher.close()
    subscriber.close()
    assert not alive
    assert got == list(range(10))


@pytest.mark.asyncio
def test_async_backlog_beyond_maxsize_is_pulled_as_the_consumer_makes_room():
    async def main() -> list:
        engine = TPSEngine(SkiRental)
        publisher = engine.new_interface("ASYNC")
        subscriber = engine.new_interface("ASYNC")
        subscriber.subscribe(lambda event: None)
        for index in range(10):
            await publisher.publish(_offer(index))
        stream = subscriber.stream(maxsize=4, policy="block", from_offset=0)
        got = [_index(event) for event in stream.drain()]
        while len(got) < 10:
            got.append(_index(await asyncio.wait_for(stream.get(), PATIENCE)))
        stream.close()
        await publisher.close()
        await subscriber.close()
        return got

    loop = asyncio.new_event_loop()
    try:
        assert loop.run_until_complete(main()) == list(range(10))
    finally:
        loop.close()
