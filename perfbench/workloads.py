"""The four benchmark workloads, driven through the public TPS API.

Every workload is a closed loop: one publisher in one process and one thread
(one event loop for ASYNC) publishes the next event only after the previous
``publish`` returned and, on the wire path, after the simulator has run every
subscriber's callback for it.  Inputs come from ``random.Random(seed)``; the
program only ever sees the generated events.

A workload returns a :class:`Measured`: set-up times, per-publish latencies,
the deliveries over the timed rounds, resumed-stream replay rates, reconnect
times and the reference-model error count.  The three defects the benchmark
keeps visible are left at their real sizes: the 4096-entry ring (the lock in
every ``RingHistory.append`` and the full-ring ``since`` scan of every cursor
stream) and the 10k-record log (``LogHistory.since`` re-reads the file on
every live event).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Sequence, Tuple

from repro.apps.skirental.tps_app import SkiRentalTPSSubscriber
from repro.apps.skirental.types import PremiumSkiRental, RentalOffer, SkiRental, SnowboardRental
from repro.bench.scenario import ScenarioConfig, build_scenario
from repro.core import AsyncLocalBus, LocalBus, PSException, TPSConfig, TPSEngine
from repro.jxta.ids import seed_ids

from layers import ASYNC_REOPEN

_now = time.perf_counter_ns

#: Concrete classes the publisher draws from, and their weights.
EVENT_CLASSES = (RentalOffer, SkiRental, SnowboardRental, PremiumSkiRental)
CLASS_WEIGHTS = (1, 2, 1, 1)
BRANDS = ("Salomon", "Rossignol", "Atomic", "Burton", "K2")
PRICE_RANGE = (20.0, 220.0)


class _Probe:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 1

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


_TABLE = {index: index * 7 for index in range(64)}

#: Consecutive latencies per p99 window.  Samples are folded into windows as
#: they arrive, so the benchmark's own memory does not grow with throughput.
P99_WINDOW = 1000

#: What :func:`reference_ns` takes on the nominal host every time is scaled
#: to.  A constant of the benchmark: changing it rescales every time metric.
NOMINAL_REFERENCE_NS = 600_000


def reference_ns(loops: int = 4000, reps: int = 3) -> int:
    """Fastest of ``reps`` timings of a fixed Python loop that allocates nothing.

    It runs with the garbage collector off, so the program's heap cannot
    change it; only the host's current speed does.
    """
    best = 0
    gc.disable()
    try:
        for _ in range(reps):
            probe, table, total = _Probe(), _TABLE, 0
            start = _now()
            for step in range(loops):
                total += table[probe.bump(step) & 63]
            elapsed = _now() - start
            best = elapsed if not best or elapsed < best else best
    finally:
        gc.enable()
    return best


@dataclass
class Series:
    """The timed results of one run at one time base: wall time, or scaled."""

    setup_s: List[float] = field(default_factory=list)
    #: Latencies not yet folded into a p99 window.
    latencies_ns: List[float] = field(default_factory=list)
    #: p99 of each window of ``P99_WINDOW`` consecutive latencies (10 beyond it).
    window_p99_ns: List[float] = field(default_factory=list)
    samples: int = 0
    #: Per timed round: (deliveries per second, median latency in ns).
    rounds: List[Tuple[float, float]] = field(default_factory=list)
    replay_per_s: List[float] = field(default_factory=list)
    recovery_s: List[float] = field(default_factory=list)

    def add_round(self, elapsed_ns: int, deliveries: int, latencies: List[int], scale: float) -> None:
        times = [latency * scale for latency in latencies]
        self.samples += len(times)
        self.latencies_ns.extend(times)
        while len(self.latencies_ns) >= P99_WINDOW:
            window = sorted(self.latencies_ns[:P99_WINDOW])
            del self.latencies_ns[:P99_WINDOW]
            self.window_p99_ns.append(window[P99_WINDOW - 11])
        self.rounds.append((deliveries / (elapsed_ns * scale / 1e9), median(times)))


@dataclass
class Measured:
    """What one workload run measured.

    On a shared virtual machine the speed of Python code changes by up to
    1.6x within seconds (measured on a 2-vCPU VM whose cores other tenants
    also load), and that moves every wall-clock number with it.  So every
    timed step is bracketed by two :func:`reference_ns` samples, and
    :attr:`scaled` holds its time scaled by ``NOMINAL_REFERENCE_NS`` over
    their geometric mean: the numbers read as wall time on a host running
    at the nominal speed.  :attr:`raw` holds the same steps in wall time.
    """

    scaled: Series = field(default_factory=Series)
    raw: Series = field(default_factory=Series)
    #: Host slowness (sample / nominal) of each timed step.
    slowness: List[float] = field(default_factory=list)
    #: Deliveries the reference model expects (the error-rate denominator).
    expected: int = 0
    #: Missing + duplicated + out-of-order deliveries + publishes that raised.
    errors: int = 0
    notes: List[str] = field(default_factory=list)
    _before: float = 0.0

    def _slowness(self) -> float:
        return reference_ns() / NOMINAL_REFERENCE_NS

    def _scale(self) -> float:
        """1 / host slowness, averaged over the samples either side of a step."""
        slowness = self._slowness()
        if self._before:
            slowness = (slowness * self._before) ** 0.5
            self._before = 0.0
        self.slowness.append(slowness)
        return 1 / slowness

    def begin(self) -> int:
        """Sample the host speed, then return the start time of a timed step."""
        self._before = self._slowness()
        return _now()

    def add_round(self, elapsed_ns: int, deliveries: int, latencies: List[int]) -> None:
        self.scaled.add_round(elapsed_ns, deliveries, latencies, self._scale())
        self.raw.add_round(elapsed_ns, deliveries, latencies, 1.0)

    def add_setup(self, elapsed_ns: int) -> None:
        scale = self._scale()
        self.scaled.setup_s.append(elapsed_ns * scale / 1e9)
        self.raw.setup_s.append(elapsed_ns / 1e9)

    def add_recovery(self, elapsed_ns: int) -> None:
        scale = self._scale()
        self.scaled.recovery_s.append(elapsed_ns * scale / 1e9)
        self.raw.recovery_s.append(elapsed_ns / 1e9)

    def add_replay(self, items: int, elapsed_ns: int) -> None:
        scale = self._scale()
        self.scaled.replay_per_s.append(items / (elapsed_ns * scale / 1e9))
        self.raw.replay_per_s.append(items / (elapsed_ns / 1e9))

    def fail(self, count: int, note: str) -> None:
        if count:
            self.errors += count
            self.notes.append(note)


def mismatches(expected: Sequence[Any], received: Sequence[Any]) -> int:
    """Missing + duplicated + phantom + out-of-order entries of ``received``."""
    if list(expected) == list(received):
        return 0
    position = {key: index for index, key in enumerate(expected)}
    unique = set(received)
    errors = len(received) - len(unique)  # duplicates
    errors += len(set(expected) - unique)  # missing
    errors += len(unique - set(expected))  # phantoms
    previous = -1
    for key in received:
        index = position.get(key)
        if index is None:
            continue
        if index < previous:
            errors += 1  # out of order
        previous = index
    return errors


def check_in_order(
    events: Sequence[Any], inboxes: Sequence[List[Any]], measured: Measured, who: str
) -> int:
    """Every inbox must hold exactly ``events``, in publish order; empties them.

    Returns how many deliveries the inboxes held.
    """
    delivered = 0
    names = [event.shop for event in events]
    for index, inbox in enumerate(inboxes):
        measured.expected += len(names)
        delivered += len(inbox)
        measured.fail(
            mismatches(names, [event.shop for event in inbox]),
            f"{who} {index} diverged from publish order",
        )
        if inbox != list(events):
            measured.fail(1, f"{who} {index} received altered event contents")
        inbox.clear()
    return delivered


class Offers:
    """Seeded event generator: class mix, prices, brands and durations."""

    def __init__(self, rng: random.Random, classes: Sequence[type] = EVENT_CLASSES) -> None:
        self.rng = rng
        self.classes = classes
        self.weights = CLASS_WEIGHTS[: len(classes)]
        self.seq = 0

    def make(self, count: int) -> List[Any]:
        """The next ``count`` events; ``shop`` carries the unique name ``s<seq>``."""
        rng = self.rng
        kinds = rng.choices(self.classes, self.weights, k=count)
        events = []
        for kind in kinds:
            shop = "s%d" % self.seq
            self.seq += 1
            price = round(rng.uniform(*PRICE_RANGE), 2)
            days = rng.randint(1, 14)
            if kind is RentalOffer:
                event = RentalOffer(shop, price, days)
            elif kind is SnowboardRental:
                event = SnowboardRental(shop, price, rng.choice(BRANDS), days)
            elif kind is PremiumSkiRental:
                event = PremiumSkiRental(shop, price, rng.choice(BRANDS), days, ("helmet",))
            else:
                event = SkiRental(shop, price, rng.choice(BRANDS), days)
            events.append(event)
        return events


def ring(sizes: Dict[str, Any]) -> Dict[str, Any]:
    """Binding parameters for a ring history of the workload's fixed size.

    Passed to every interface, so the program's defaults cannot change
    what a workload retains or scans."""
    return {"history": "ring", "history_size": sizes["history_size"]}


def _deadline(seconds: float) -> int:
    return _now() + int(seconds * 1e9)


def spread_due(total: int, deadline: int, seconds: float) -> float:
    """How many of ``total`` side measurements are due by now.

    Replays run between timed rounds, spread evenly over the run, so they
    sample the host at the same moments as the rounds do.
    """
    left = max(deadline - _now(), 0) / (seconds * 1e9)
    return total * (1 - left)


# ----------------------------------------------------------------- LOCAL fan-out


class _LocalFanout:
    """One built ``local_fanout`` topology."""

    def __init__(self, sizes: Dict[str, Any], rng: random.Random) -> None:
        self.sizes = sizes
        self.bus = LocalBus()
        engine = TPSEngine(RentalOffer, local_bus=self.bus)
        self.publisher = engine.new_interface("LOCAL", **ring(sizes))
        count = sizes["subscribers"]
        types = list(EVENT_CLASSES) * (count // len(EVENT_CLASSES))
        rng.shuffle(types)
        # Subscriber 0 takes every event unfiltered: its copies are checked
        # field by field against what was published.
        types.insert(0, types.pop(types.index(RentalOffer)))
        every = sizes["predicate_every"]
        filtered = [index for index in range(count) if index % every == every - 1]
        # Stratified selectivity: the seed decides which subscription gets
        # which price threshold, not how selective the set is overall.
        low, high = PRICE_RANGE
        thresholds = [low + (high - low) * (k + 0.5) / len(filtered) for k in range(len(filtered))]
        rng.shuffle(thresholds)
        self.rules: List[Tuple[type, Any]] = []
        self.inboxes: List[List[Any]] = []
        self.interfaces: List[Any] = []
        threshold_of = dict(zip(filtered, thresholds))
        for index, kind in enumerate(types):
            self.rules.append((kind, threshold_of.get(index)))
            self.inboxes.append([])
            self.interfaces.append(self._subscribe(index))

    def _subscribe(self, index: int) -> Any:
        kind, threshold = self.rules[index]
        interface = TPSEngine(kind, local_bus=self.bus).new_interface("LOCAL", **ring(self.sizes))
        inbox = self.inboxes[index]
        if threshold is None:
            interface.subscribe(inbox.append)
        else:
            interface.subscription(inbox.append).where(
                lambda event, limit=threshold: event.price < limit
            ).start()
        return interface

    def reopen(self, index: int) -> Any:
        """Close subscriber ``index`` and subscribe it again; returns the closed interface."""
        closed = self.interfaces[index]
        closed.close()
        self.inboxes[index].clear()
        self.interfaces[index] = self._subscribe(index)
        return closed

    def expected(self, index: int, events: Sequence[Any]) -> List[str]:
        kind, threshold = self.rules[index]
        return [
            event.shop
            for event in events
            if isinstance(event, kind) and (threshold is None or event.price < threshold)
        ]

    def check(self, events: Sequence[Any], measured: Measured) -> int:
        """Compare every inbox with the reference model, then empty them."""
        delivered = 0
        for index, inbox in enumerate(self.inboxes):
            expected = self.expected(index, events)
            measured.expected += len(expected)
            delivered += len(inbox)
            measured.fail(
                mismatches(expected, [event.shop for event in inbox]),
                f"subscriber {index} diverged from the reference model",
            )
            if index == 0 and inbox != list(events):
                measured.fail(1, "subscriber 0 received altered event contents")
            inbox.clear()
        return delivered

    def close(self) -> None:
        self.publisher.close()
        for interface in self.interfaces:
            interface.close()


def run_local_fanout(seed: int, seconds: float, sizes: Dict[str, Any], tracer: Any, workdir: str) -> Measured:
    measured = Measured()
    rng = random.Random(seed)
    offers = Offers(rng)
    topology = None
    for _ in range(sizes["setup_reps"]):
        if topology is not None:
            topology.close()
        start = measured.begin()
        topology = _LocalFanout(sizes, rng)
        warmup = offers.make(sizes["warmup_publishes"])
        for event in warmup:
            topology.publisher.publish(event)
        measured.add_setup(_now() - start)
        topology.check(warmup, measured)
    recent = deque((event.shop for event in warmup), maxlen=sizes["replay_catch_up"])
    publish = topology.publisher.publish

    # Replay: a subscriber that takes every event unfiltered resumes a
    # stream some way back in its ring and follows live traffic.  The reps
    # rotate over all such subscribers, so no single ring's memory layout
    # sets the figure.
    replayers = [
        topology.interfaces[index]
        for index, (kind, threshold) in enumerate(topology.rules)
        if kind is RentalOffer and threshold is None
    ]
    backlog = sizes["replay_catch_up"]

    def replay() -> None:
        subscriber = replayers[len(measured.raw.replay_per_s) % len(replayers)]
        live = offers.make(sizes["replay_live"])
        gc.collect()
        start = measured.begin()
        stream = subscriber.stream(from_offset=subscriber.history_offset - backlog)
        yielded = stream.drain()
        for event in live:
            publish(event)
            yielded.extend(stream.drain())
        elapsed = _now() - start
        stream.close()
        measured.add_replay(len(yielded), elapsed)
        expected = list(recent) + [event.shop for event in live]
        measured.expected += len(expected)
        measured.fail(
            mismatches(expected, [event.shop for event in yielded]),
            "resumed stream on an unfiltered subscriber diverged",
        )
        recent.extend(event.shop for event in live)
        topology.check(live, measured)

    gc.collect()
    deadline = _deadline(seconds)
    while _now() < deadline and not tracer.full:
        events = offers.make(sizes["round_publishes"])
        latencies = []
        began = measured.begin()
        for event in events:
            start = _now()
            publish(event)
            latencies.append(_now() - start)
        elapsed = _now() - began
        measured.add_round(elapsed, topology.check(events, measured), latencies)
        recent.extend(event.shop for event in events)
        if len(recent) == backlog and len(measured.raw.replay_per_s) < spread_due(
            sizes["replay_reps"], deadline, seconds
        ):
            replay()
    while len(measured.raw.replay_per_s) < sizes["replay_reps"]:
        replay()

    # Reconnect: close each subscriber once and reopen it, until its first
    # delivery.  Every workload frees the closed interface only after the
    # clock stopped: how long the allocator takes to free a full history is
    # not part of reconnecting.  The cost depends on the subscriber's type,
    # so each sample is the mean over one subscriber of every type.
    gc.collect()
    by_kind = [
        [index for index, (kind, _) in enumerate(topology.rules) if kind is wanted]
        for wanted in EVENT_CLASSES
    ]
    for group in zip(*by_kind):
        events = []
        for index in group:
            kind, _ = topology.rules[index]
            event = Offers(random.Random(seed + index), (kind,)).make(1)[0]
            event.shop = "r%d" % index
            event.price = PRICE_RANGE[0]  # passes every threshold
            events.append(event)
        closed = []
        received = []
        start = measured.begin()
        for index, event in zip(group, events):
            closed.append(topology.reopen(index))
            publish(event)
            received.append([e.shop for e in topology.inboxes[index]])
        measured.add_recovery((_now() - start) // len(group))
        del closed
        for index, event, shops in zip(group, events, received):
            measured.expected += 1
            measured.fail(mismatches([event.shop], shops), f"reopened subscriber {index} missed its event")
        for inbox in topology.inboxes:
            inbox.clear()
    topology.close()
    return measured


# --------------------------------------------------------------- SR-TPS wire path


class _Wire:
    """One built SR-TPS scenario with its closed-loop publish driver."""

    #: Simulator steps one publish may take before it counts as lost.
    MAX_STEPS = 100_000

    def __init__(self, seed: int, sizes: Dict[str, Any]) -> None:
        # Peer, pipe and advertisement ids come from the process-wide id
        # factory; seeding it is what makes a seed's virtual times repeat.
        seed_ids(seed)
        self.scenario = build_scenario(
            ScenarioConfig(
                subscribers=sizes["subscribers"], seed=seed, message_size=sizes["message_size"]
            )
        )
        self.simulator = self.scenario.simulator
        self.handle = self.scenario.publishers[0]
        self.inboxes = [subscriber.app.offers for subscriber in self.scenario.subscribers]

    def publish(self, event: Any) -> bool:
        """Publish and run the simulator until every subscriber's callback ran."""
        targets = [len(inbox) + 1 for inbox in self.inboxes]
        self.handle.publish(event)
        step = self.simulator.step
        for _ in range(self.MAX_STEPS):
            if all(len(inbox) >= target for inbox, target in zip(self.inboxes, targets)):
                return True
            if not step():
                break
        return False

    def check(self, events: Sequence[Any], measured: Measured) -> int:
        return check_in_order(events, self.inboxes, measured, "wire subscriber")

    def virtual_trace(self) -> Tuple[Any, ...]:
        """Virtual receive times and counts: identical for a seed, run after run."""
        return tuple(
            (subscriber.received_count(), tuple(subscriber.receive_times()))
            for subscriber in self.scenario.subscribers
        )


def virtual_digest(seed: int, sizes: Dict[str, Any]) -> str:
    """Digest of the virtual receive times and counts of the warm-up publishes."""
    warmup = Offers(random.Random(seed), (SkiRental,)).make(sizes["warmup_publishes"])
    wire = _Wire(seed, sizes)
    for event in warmup:
        wire.publish(event)
    return hashlib.sha256(repr(wire.virtual_trace()).encode()).hexdigest()


def virtual_digest_in_child(seed: int) -> str:
    """:func:`virtual_digest` computed by a fresh interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import json, sys; sys.path[:0] = [%r, %r]; import workloads; "
        "sizes = json.load(open(%r))['wire_sr_tps']['sizes']; "
        "print(workloads.virtual_digest(%d, sizes))"
        % (here, os.path.join(os.path.dirname(here), "src"), os.path.join(here, "workloads.json"), seed)
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return child.stdout.strip()


def run_wire_sr_tps(seed: int, seconds: float, sizes: Dict[str, Any], tracer: Any, workdir: str) -> Measured:
    measured = Measured()
    rng = random.Random(seed)
    warmup = Offers(rng, (SkiRental,)).make(sizes["warmup_publishes"])
    offers = Offers(rng, (SkiRental,))
    offers.seq = len(warmup)
    wire = None
    for _ in range(sizes["setup_reps"]):
        start = measured.begin()
        wire = _Wire(seed, sizes)
        lost = sum(not wire.publish(event) for event in warmup)
        measured.add_setup(_now() - start)
        measured.fail(lost, "warm-up publishes lost on the wire path")
        wire.check(warmup, measured)
    # Process-wide message and packet counters carry over from one build to
    # the next, so only fresh processes reproduce a seed's virtual times
    # exactly: compare two.
    digests = {virtual_digest_in_child(seed) for _ in range(2)}
    measured.fail(len(digests) - 1, "virtual-time receive times differ between runs of one seed")
    recent = deque((event.shop for event in warmup), maxlen=sizes["replay_catch_up"])
    gc.collect()
    deadline = _deadline(seconds)
    while _now() < deadline and not tracer.full:
        events = offers.make(sizes["round_publishes"])
        latencies = []
        lost = 0
        began = measured.begin()
        for event in events:
            start = _now()
            lost += not wire.publish(event)
            latencies.append(_now() - start)
        elapsed = _now() - began
        measured.fail(lost, "publishes lost on the wire path")
        measured.add_round(elapsed, wire.check(events, measured), latencies)
        recent.extend(event.shop for event in events)

    subscriber = wire.scenario.subscribers[0].app.tps_interface
    backlog = sizes["replay_catch_up"]
    for _ in range(sizes["replay_reps"]):
        live = offers.make(sizes["replay_live"])
        gc.collect()
        start = measured.begin()
        stream = subscriber.stream(from_offset=subscriber.history_offset - backlog)
        yielded = stream.drain()
        for event in live:
            wire.publish(event)
            yielded.extend(stream.drain())
        elapsed = _now() - start
        stream.close()
        measured.add_replay(len(yielded), elapsed)
        expected = list(recent)[-backlog:] + [event.shop for event in live]
        measured.expected += len(expected)
        measured.fail(
            mismatches(expected, [event.shop for event in yielded]),
            "resumed stream on wire subscriber 0 diverged",
        )
        recent.extend(event.shop for event in live)
        wire.check(live, measured)

    # Reconnect: close the last subscriber's interface and open a new one on
    # the same peer; time until its first event arrives.
    handle = wire.scenario.subscribers[-1]
    gc.collect()
    for attempt in range(sizes["reconnects"]):
        start = measured.begin()
        closed = handle.app
        closed.close()
        handle.app = SkiRentalTPSSubscriber(
            handle.peer, config=TPSConfig(search_timeout=6.0, create_if_missing=False)
        )
        wire.inboxes[-1] = handle.app.offers
        received = False
        for event in offers.make(sizes["reconnect_publishes"]):
            wire.publish(event)
            if handle.app.offers:
                received = True
                break
        measured.add_recovery(_now() - start)
        del closed
        measured.expected += 1
        measured.fail(0 if received else 1, "reopened wire subscriber never received")
    return measured


# ------------------------------------------------------------- ASYNC with streams


class _AsyncStreams:
    """One built ``async_streams`` topology (must be built on the running loop)."""

    def __init__(self, sizes: Dict[str, Any], tracer: Any) -> None:
        self.sizes = sizes
        self.tracer = tracer
        self.bus = AsyncLocalBus()
        self.publisher = TPSEngine(RentalOffer, local_bus=self.bus).new_interface(
            "ASYNC", **ring(sizes)
        )
        self.consumer = TPSEngine(RentalOffer, local_bus=self.bus).new_interface(
            "ASYNC", **ring(sizes)
        )
        self.inboxes: List[List[Any]] = []
        for _ in range(sizes["coroutine_subscribers"]):
            inbox: List[Any] = []
            self.inboxes.append(inbox)

            async def receive(event: Any, keep: Callable[[Any], None] = inbox.append) -> None:
                keep(event)

            self.consumer.subscribe(receive)
        self.drop = self.consumer.stream(
            maxsize=sizes["drop_maxsize"], policy="drop_oldest", from_offset=0
        )
        self.drained = 0
        #: Names the block-stream consumer yielded since the last verify().
        self.consumed: List[str] = []
        self.consumed_total = 0
        #: Published names the block-stream consumer has not yielded yet.
        self.unmatched: Deque[str] = deque()
        self.published = 0
        #: The newest published names, for checking a replay.
        self.recent: Deque[str] = deque(maxlen=sizes["replay_catch_up"])
        self.block = self._open_block(0)
        self.stopping = False
        self.task = asyncio.get_running_loop().create_task(self._consume())

    def _open_block(self, offset: int) -> Any:
        return self.consumer.stream(
            maxsize=self.sizes["block_maxsize"], policy="block", from_offset=offset
        )

    async def _consume(self) -> None:
        """Drain the block stream; reconnect every ``reconnect_every`` events.

        A reconnect closes the stream and opens a new one at the next offset
        (offset n is the n-th event the consumer interface received, which is
        the n-th publish).  It does not call ``await stream.resume(n)``: at
        this commit a resume that runs while the publisher is suspended on
        the same stream's full buffer yields the entry that publisher held,
        then the resumed range again (a duplicate, out of order).
        :meth:`resume_drop` calls ``resume`` where no publisher can be
        suspended.
        """
        every = self.sizes["reconnect_every"]
        keep = self.consumed.append
        while True:
            try:
                event = await self.block.get()
            except PSException:  # closed and empty
                if self.stopping:
                    return
                raise
            keep(event.shop)
            self.consumed_total += 1
            if self.consumed_total % every == 0:
                with self.tracer.span(ASYNC_REOPEN):
                    self.block.close()
                    self.block = self._open_block(self.consumed_total)

    def burst(self) -> int:
        items = len(self.drop.drain())
        self.drained += items
        return items

    async def resume_drop(self, measured: Measured) -> None:
        """``await resume(n)`` on the drop_oldest stream, ``resume_back`` offsets back.

        That stream's ``_enqueue`` never suspends, so no publisher holds an
        entry across the resume.  The stream is drained first; the resume
        must then yield exactly the offsets from n on, and those re-read
        items count neither as drained nor as dropped.
        """
        self.burst()
        back = self.sizes["resume_back"]
        await self.drop.resume(self.consumer.history_offset - back)
        yielded = [event.shop for event in self.drop.drain()]
        expected = list(self.recent)[-back:]
        measured.expected += len(expected)
        measured.fail(
            mismatches(expected, yielded),
            "resumed drop_oldest stream did not yield exactly the offsets after its resume point",
        )

    def check(self, events: Sequence[Any], measured: Measured) -> int:
        """Check the coroutine subscribers and the block stream so far."""
        delivered = len(self.consumed)
        names = [event.shop for event in events]
        self.published += len(names)
        self.unmatched.extend(names)
        self.recent.extend(names)
        expected = [self.unmatched.popleft() for _ in range(min(delivered, len(self.unmatched)))]
        measured.expected += len(expected)
        measured.fail(
            mismatches(expected, self.consumed),
            "block stream yielded offsets out of order across reconnects",
        )
        self.consumed.clear()
        return delivered + check_in_order(events, self.inboxes, measured, "coroutine subscriber")

    async def close(self, measured: Measured) -> None:
        """Let the consumer catch up, check both streams, tear down."""
        for _ in range(1000):
            if self.consumed_total >= self.published:
                break
            await asyncio.sleep(0)
        self.check([], measured)
        measured.expected += len(self.unmatched)
        measured.fail(len(self.unmatched), "block stream lost events across reconnects")
        self.burst()
        measured.fail(
            abs(self.drained + self.drop.dropped - self.published),
            "drop_oldest stream: delivered + dropped != published",
        )
        self.stopping = True
        self.block.close()
        await self.task
        self.drop.close()
        self.consumer.close()
        self.publisher.close()


def run_async_streams(seed: int, seconds: float, sizes: Dict[str, Any], tracer: Any, workdir: str) -> Measured:
    return asyncio.run(_run_async_streams(seed, seconds, sizes, tracer))


async def _run_async_streams(seed: int, seconds: float, sizes: Dict[str, Any], tracer: Any) -> Measured:
    measured = Measured()
    rng = random.Random(seed)
    offers = Offers(rng)
    topology = None
    burst_every = sizes["drop_burst_every"]
    for _ in range(sizes["setup_reps"]):
        if topology is not None:
            await topology.close(measured)
        start = measured.begin()
        topology = _AsyncStreams(sizes, tracer)
        warmup = offers.make(sizes["warmup_publishes"])
        for event in warmup:
            await topology.publisher.publish(event)
        measured.add_setup(_now() - start)
        topology.check(warmup, measured)
    publish = topology.publisher.publish
    backlog = sizes["replay_catch_up"]
    consumer = topology.consumer

    async def replay() -> None:
        """Resume a stream on the consumer interface and follow live traffic."""
        live = offers.make(sizes["replay_live"])
        gc.collect()
        start = measured.begin()
        stream = consumer.stream(from_offset=consumer.history_offset - backlog)
        # The backlog is pulled by a task on this loop; let it run.
        while stream.offset < consumer.history_offset:
            await asyncio.sleep(0)
        yielded = stream.drain()
        for count, event in enumerate(live, 1):
            await publish(event)
            yielded.extend(stream.drain())
            if count % burst_every == 0:
                topology.burst()
        elapsed = _now() - start
        stream.close()
        measured.add_replay(len(yielded), elapsed)
        expected = list(topology.recent) + [event.shop for event in live]
        measured.expected += len(expected)
        measured.fail(
            mismatches(expected, [event.shop for event in yielded]),
            "resumed stream on the consumer interface diverged",
        )
        topology.check(live, measured)

    resumes = 0
    gc.collect()
    deadline = _deadline(seconds)
    while _now() < deadline and not tracer.full:
        events = offers.make(sizes["round_publishes"])
        drained_before = topology.drained
        latencies = []
        began = measured.begin()
        for count, event in enumerate(events, 1):
            start = _now()
            await publish(event)
            latencies.append(_now() - start)
            if count % burst_every == 0:
                topology.burst()
        elapsed = _now() - began
        delivered = topology.check(events, measured)
        delivered += topology.drained - drained_before
        measured.add_round(elapsed, delivered, latencies)
        if topology.published >= (resumes + 1) * sizes["reconnect_every"]:
            resumes += 1
            await topology.resume_drop(measured)
        if len(topology.recent) == backlog and len(measured.raw.replay_per_s) < spread_due(
            sizes["replay_reps"], deadline, seconds
        ):
            await replay()
    while len(measured.raw.replay_per_s) < sizes["replay_reps"]:
        await replay()
    tracer.counts["stream_dropped"] += topology.drop.dropped
    tracer.counts["stream_published"] += topology.published
    await topology.close(measured)

    # Reconnect: close a coroutine subscriber's interface and open it again,
    # until its first delivery.  One reconnect takes tens of microseconds,
    # so each sample times a group of them.
    bus = AsyncLocalBus()
    publisher = TPSEngine(RentalOffer, local_bus=bus).new_interface("ASYNC", **ring(sizes))
    interface = None
    group = sizes["reconnect_group"]
    gc.collect()
    for _ in range(sizes["reconnects"]):
        events = offers.make(group)
        inboxes: List[List[Any]] = [[] for _ in events]
        closed = []
        start = measured.begin()
        for event, inbox in zip(events, inboxes):

            async def receive(event: Any, keep: Callable[[Any], None] = inbox.append) -> None:
                keep(event)

            if interface is not None:
                interface.close()
                closed.append(interface)
            interface = TPSEngine(RentalOffer, local_bus=bus).new_interface("ASYNC", **ring(sizes))
            interface.subscribe(receive)
            await publisher.publish(event)
        measured.add_recovery((_now() - start) // group)
        del closed
        for event, inbox in zip(events, inboxes):
            measured.expected += 1
            measured.fail(
                mismatches([event.shop], [e.shop for e in inbox]),
                "reopened async subscriber missed its event",
            )
    interface.close()
    publisher.close()
    return measured


# ------------------------------------------------------------- durable log history


def tmpfs_fsync(fd: int) -> None:
    """``os.fsync`` as it behaves on tmpfs: the data is already in memory."""


def run_durable_log(seed: int, seconds: float, sizes: Dict[str, Any], tracer: Any, workdir: str) -> Measured:
    """Cycles of: build on a fresh log directory, publish ``log_records``
    events, reopen one subscriber (crash-recovery scan), resume it and follow
    live traffic.  Cycles repeat until ``seconds`` passed (at least one)."""
    measured = Measured()
    rng = random.Random(seed)
    offers = Offers(rng)
    deadline = _deadline(seconds)
    cycle = 0
    while cycle == 0 or (_now() < deadline and not tracer.full):
        directory = os.path.join(workdir, "cycle-%d" % cycle)
        cycle += 1
        try:
            _durable_cycle(directory, offers, sizes, tracer, measured)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return measured


def _durable_cycle(directory: str, offers: Offers, sizes: Dict[str, Any], tracer: Any, measured: Measured) -> None:
    def open_interface(name: str) -> Any:
        return TPSEngine(RentalOffer, local_bus=bus).new_interface(
            "LOCAL", history="log", history_path=os.path.join(directory, name)
        )

    start = measured.begin()
    bus = LocalBus()
    publisher = open_interface("publisher")
    inboxes: List[List[Any]] = [[] for _ in range(sizes["subscribers"])]
    subscribers = []
    for index, inbox in enumerate(inboxes):
        subscribers.append(open_interface("subscriber-%d" % index))
        subscribers[-1].subscribe(inbox.append)
    warmup = offers.make(sizes["warmup_publishes"])
    for event in warmup:
        publisher.publish(event)
    measured.add_setup(_now() - start)

    def check(events: Sequence[Any]) -> int:
        return check_in_order(events, inboxes, measured, "log-backed subscriber")

    check(warmup)
    published = [event.shop for event in warmup]
    publish = publisher.publish
    gc.collect()
    remaining = sizes["log_records"]
    while remaining:
        events = offers.make(min(sizes["round_publishes"], remaining))
        remaining -= len(events)
        latencies = []
        began = measured.begin()
        for event in events:
            begin = _now()
            publish(event)
            latencies.append(_now() - begin)
        elapsed = _now() - began
        measured.add_round(elapsed, check(events), latencies)
        published.extend(event.shop for event in events)

    # Reconnect: close the last subscriber and reopen it on the same
    # directory (the crash-recovery scan), until its first delivery.
    event = offers.make(1)[0]
    inbox = inboxes[-1]
    start = measured.begin()
    subscribers[-1].close()
    reopened = open_interface("subscriber-%d" % (len(subscribers) - 1))
    reopened.subscribe(inbox.append)
    publish(event)
    measured.add_recovery(_now() - start)
    # The recovery counters LogHistory keeps; the engine holds the store as
    # its received history.
    store = reopened._received
    measured.fail(abs(store.recovered_records - len(published)), "log recovery lost or invented records")
    measured.fail(store.truncated_bytes, "log recovery truncated a clean log")
    subscribers[-1] = reopened
    check([event])
    published.append(event.shop)

    # Replay: the reopened subscriber resumes replay_catch_up records back
    # and follows live traffic.
    live = offers.make(sizes["replay_live"])
    first = len(published) - sizes["replay_catch_up"]
    start = measured.begin()
    stream = reopened.stream(from_offset=first)
    yielded = stream.drain()
    for event in live:
        publish(event)
        yielded.extend(stream.drain())
    elapsed = _now() - start
    stream.close()
    measured.add_replay(len(yielded), elapsed)
    expected = published[first:] + [event.shop for event in live]
    measured.expected += len(expected)
    measured.fail(mismatches(expected, [e.shop for e in yielded]), "resumed log stream diverged")
    check(live)
    publisher.close()
    for subscriber in subscribers:
        subscriber.close()


WORKLOADS = {
    "local_fanout": run_local_fanout,
    "wire_sr_tps": run_wire_sr_tps,
    "async_streams": run_async_streams,
    "durable_log": run_durable_log,
}
