"""Which entry points the traced run wraps, and how spans become per-layer metrics.

:func:`install` puts timing wrappers on public entry points of every layer
(plus two spots with no public entry: ``AsyncEventStream._enqueue``, where a
publisher waits on a full ``block`` stream, and ``os.fsync``, which
``LogHistory`` calls for its group commit).  :func:`per_layer_metrics` turns
the tracer's rollup into the metric names listed under ``per_layer`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Tuple

from spans import Tracer

# Span names.  The metric names in BENCHMARK.json derive from these.
LOCAL_PUBLISH = "core.local_engine.publish"
LOCAL_INTERFACE_PUBLISH = "core.local_engine.interface_publish"
RING_APPEND = "core.history.append"
RING_SINCE = "core.history.since"
HANDLE = "core.callbacks.handle"
REGISTRY_ENCODE = "core.type_registry.encode"
REGISTRY_DECODE = "core.type_registry.decode"
DISPATCH = "core.subscriber.dispatch"
PIPE_READER = "core.subscriber.pipe_reader"
ASYNC_PUBLISH = "core.async_engine.publish"
ASYNC_INTERFACE_PUBLISH = "core.async_engine.interface_publish"
ASYNC_RESUME = "core.async_engine.resume"
ASYNC_REOPEN = "core.async_engine.reopen"
STREAM_WAIT = "core.async_engine.stream_wait"
JXTA_PUBLISH = "core.jxta_engine.publish"
CODEC_ENCODE = "serialization.object_codec.encode"
CODEC_DECODE = "serialization.object_codec.decode"
XML_PARSE = "serialization.xml_codec.parse"
XML_TO_STRING = "serialization.xml_codec.to_string"
MESSAGE_TO_BYTES = "jxta.message.to_bytes"
MESSAGE_FROM_BYTES = "jxta.message.from_bytes"
WIRE_SEND = "jxta.wire.send"
PIPE_RECEIVE = "jxta.pipes.receive"
SIM_STEP = "net.simclock.step"
NET_TRANSMIT = "net.network.transmit"
LOG_APPEND = "storage.log.append"
LOG_FSYNC = "storage.log.fsync"
LOG_SINCE = "storage.log.since"
LOG_OPEN = "storage.log.open"


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (call before any engine is built)."""
    from repro.core.async_engine import AsyncEventStream, AsyncLocalBus, AsyncTPSEngine
    from repro.core.callbacks import FunctionCallback
    from repro.core.history import RingHistory
    from repro.core.jxta_engine import TPS_EVENT_ELEMENT, JxtaTPSEngine
    from repro.core.local_engine import LocalBus, LocalTPSEngine
    from repro.core.subscriber import TPSPipeReader, TPSSubscriberManager
    from repro.core.type_registry import TypeRegistry
    from repro.jxta.message import Message
    from repro.jxta.pipes import InputPipe
    from repro.jxta.wire import WireService
    from repro.net.network import Network
    from repro.net.simclock import Simulator
    from repro.serialization import xml_codec
    from repro.serialization.object_codec import ObjectCodec
    from repro.storage.log import LogHistory

    counts = tracer.counts

    def retained(store: Any, *args: Any) -> int:
        return len(store)

    def count_since(prefix: str) -> Any:
        def after(result: Any, retained_entries: int, *args: Any) -> None:
            counts[prefix + ".returned"] += len(result)
            counts[prefix + ".retained"] += retained_entries

        return after

    def count_encoded(result: bytes, _: Any, *args: Any) -> None:
        counts[CODEC_ENCODE + ".bytes"] += len(result)

    def count_parsed(result: Any, _: Any, document: str, *args: Any, **kwargs: Any) -> None:
        counts[XML_PARSE + ".chars"] += len(document)

    def count_framed(result: bytes, _: Any, message: Any) -> None:
        if message.has(TPS_EVENT_ELEMENT):
            counts[MESSAGE_TO_BYTES + ".events"] += 1

    def count_transmitted(result: Any, _: Any, network: Any, sender: Any, packet: Any) -> None:
        counts[NET_TRANSMIT + ".bytes"] += packet.size

    def count_recovery(result: Any, _: Any, store: Any, *args: Any, **kwargs: Any) -> None:
        # Opens of a fresh file recover nothing; a reopen's span is what
        # crash recovery costs.  It is the newest open span (only codec
        # spans can follow it).
        if store.recovered_records or store.truncated_bytes:
            open_id = tracer.name_id(LOG_OPEN)
            index = next(i for i in reversed(range(len(tracer))) if tracer.name_of[i] == open_id)
            counts[LOG_OPEN + ".reopens"] += 1
            counts[LOG_OPEN + ".reopen_ns"] += tracer.end[index] - tracer.start[index]
            counts[LOG_OPEN + ".recovered_records"] += store.recovered_records
            counts[LOG_OPEN + ".truncated_bytes"] += store.truncated_bytes

    def next_request(*args: Any) -> None:
        tracer.request += 1

    wrap = tracer.wrap_method
    # The request id of every span is the index of the publish it serves.
    wrap(LocalTPSEngine, "publish", LOCAL_INTERFACE_PUBLISH, before=next_request)
    wrap(AsyncTPSEngine, "publish", ASYNC_INTERFACE_PUBLISH, before=next_request)
    wrap(JxtaTPSEngine, "publish", JXTA_PUBLISH, before=next_request)
    wrap(LocalBus, "publish", LOCAL_PUBLISH)
    wrap(RingHistory, "append", RING_APPEND)
    wrap(RingHistory, "since", RING_SINCE, before=retained, after=count_since(RING_SINCE))
    wrap(FunctionCallback, "handle", HANDLE)
    wrap(TypeRegistry, "encode", REGISTRY_ENCODE)
    wrap(TypeRegistry, "decode", REGISTRY_DECODE)
    wrap(TPSSubscriberManager, "dispatch", DISPATCH)
    wrap(TPSPipeReader, "__call__", PIPE_READER)
    wrap(AsyncLocalBus, "publish", ASYNC_PUBLISH)
    wrap(AsyncEventStream, "resume", ASYNC_RESUME)
    wrap(AsyncEventStream, "_enqueue", STREAM_WAIT)
    wrap(ObjectCodec, "encode", CODEC_ENCODE, after=count_encoded)
    wrap(ObjectCodec, "decode", CODEC_DECODE)
    tracer.wrap_function(xml_codec, "parse_xml", XML_PARSE, after=count_parsed)
    tracer.wrap_function(xml_codec, "to_xml", XML_TO_STRING)
    wrap(Message, "to_bytes", MESSAGE_TO_BYTES, after=count_framed)
    wrap(Message, "from_bytes", MESSAGE_FROM_BYTES)
    wrap(WireService, "send", WIRE_SEND)
    wrap(InputPipe, "receive", PIPE_RECEIVE)
    wrap(Simulator, "step", SIM_STEP)
    wrap(Network, "transmit", NET_TRANSMIT, after=count_transmitted)
    wrap(LogHistory, "append", LOG_APPEND)
    wrap(LogHistory, "since", LOG_SINCE, before=retained, after=count_since(LOG_SINCE))
    wrap(LogHistory, "__init__", LOG_OPEN, after=count_recovery)
    tracer.wrap_function(os, "fsync", LOG_FSYNC)


def per_layer_metrics(
    tracer: Tracer, traced_rate: float, untraced_rate: float
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics as ``name -> (value, unit)``.

    ``*_per_event`` divides by the ``publish`` calls made on any interface
    while tracing (set-up warm-ups and every phase included); ``*_us``
    is the mean span duration per call (``*_self_us``: mean self time), so a
    layer the workload never enters reads 0.  No metric is a run total, so
    none moves with how many publishes the traced half fits in:
    ``storage.log.fsync_calls`` is per publish,
    ``core.async_engine.stream_dropped`` per event published to the
    drop_oldest stream, and ``storage.log.recovered_records`` and
    ``storage.log.truncated_bytes`` per reopen.
    """
    rollup = tracer.rollup()
    counts = tracer.counts
    events = max(tracer.request + 1, 1)

    def calls(name: str) -> int:
        return int(rollup.get(name, {}).get("calls", 0))

    def mean_us(name: str, key: str = "total_ns") -> float:
        entry = rollup.get(name)
        if not entry or not entry["calls"]:
            return 0.0
        return entry[key] / entry["calls"] / 1e3

    def per_event_us(name: str, key: str = "total_ns") -> float:
        entry = rollup.get(name)
        return entry[key] / events / 1e3 if entry else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    interface_publishes = calls(LOCAL_INTERFACE_PUBLISH) + calls(ASYNC_INTERFACE_PUBLISH)
    copy_ns = tracer.parented_total_ns(
        (REGISTRY_ENCODE, REGISTRY_DECODE),
        (LOCAL_INTERFACE_PUBLISH, ASYNC_INTERFACE_PUBLISH),
    )
    metrics: Dict[str, Tuple[float, str]] = {
        "core.local_engine.publish_self_us": (mean_us(LOCAL_PUBLISH, "self_ns"), "us"),
        "core.history.append_calls_per_event": (calls(RING_APPEND) / events, "count"),
        "core.history.append_us": (mean_us(RING_APPEND), "us"),
        "core.history.since_calls_per_event": (calls(RING_SINCE) / events, "count"),
        "core.history.since_us": (mean_us(RING_SINCE), "us"),
        "core.history.since_useful_ratio": (
            ratio(counts[RING_SINCE + ".returned"], counts[RING_SINCE + ".retained"]),
            "ratio",
        ),
        "core.callbacks.handle_calls_per_event": (calls(HANDLE) / events, "count"),
        "core.callbacks.handle_self_us": (mean_us(HANDLE, "self_ns"), "us"),
        "core.type_registry.copy_us": (ratio(copy_ns / 1e3, interface_publishes), "us"),
        "core.subscriber.dispatch_self_us": (mean_us(DISPATCH, "self_ns"), "us"),
        "core.async_engine.publish_self_us": (mean_us(ASYNC_PUBLISH, "self_ns"), "us"),
        "core.async_engine.resume_us": (mean_us(ASYNC_RESUME), "us"),
        "core.async_engine.reopen_us": (mean_us(ASYNC_REOPEN), "us"),
        "core.async_engine.stream_wait_us": (per_event_us(STREAM_WAIT), "us"),
        "core.async_engine.stream_dropped": (
            ratio(counts["stream_dropped"], counts["stream_published"]),
            "count",
        ),
        "core.jxta_engine.publish_self_us": (mean_us(JXTA_PUBLISH, "self_ns"), "us"),
        "core.jxta_engine.delivered_useful_ratio": (
            ratio(calls(DISPATCH), calls(PIPE_READER)),
            "ratio",
        ),
        "serialization.object_codec.encode_calls_per_event": (calls(CODEC_ENCODE) / events, "count"),
        "serialization.object_codec.decode_calls_per_event": (calls(CODEC_DECODE) / events, "count"),
        "serialization.object_codec.encode_us": (mean_us(CODEC_ENCODE), "us"),
        "serialization.object_codec.decode_us": (mean_us(CODEC_DECODE), "us"),
        "serialization.object_codec.bytes_per_event": (counts[CODEC_ENCODE + ".bytes"] / events, "B"),
        "serialization.xml_codec.parse_calls_per_event": (calls(XML_PARSE) / events, "count"),
        "serialization.xml_codec.parse_us": (mean_us(XML_PARSE), "us"),
        "serialization.xml_codec.to_string_us": (mean_us(XML_TO_STRING), "us"),
        "serialization.xml_codec.chars_parsed_per_event": (counts[XML_PARSE + ".chars"] / events, "count"),
        "jxta.message.messages_per_event": (calls(MESSAGE_TO_BYTES) / events, "count"),
        "jxta.message.to_bytes_us": (mean_us(MESSAGE_TO_BYTES), "us"),
        "jxta.message.from_bytes_us": (mean_us(MESSAGE_FROM_BYTES), "us"),
        "jxta.message.event_useful_ratio": (
            ratio(counts[MESSAGE_TO_BYTES + ".events"], calls(MESSAGE_TO_BYTES)),
            "ratio",
        ),
        "jxta.wire.send_us": (mean_us(WIRE_SEND), "us"),
        "jxta.pipes.receive_us": (mean_us(PIPE_RECEIVE), "us"),
        "net.simclock.events_per_publish": (calls(SIM_STEP) / events, "count"),
        "net.simclock.run_self_us": (per_event_us(SIM_STEP, "self_ns"), "us"),
        "net.network.bytes_per_event": (counts[NET_TRANSMIT + ".bytes"] / events, "B"),
        "storage.log.append_us": (mean_us(LOG_APPEND), "us"),
        "storage.log.fsync_calls": (calls(LOG_FSYNC) / events, "count"),
        "storage.log.fsync_us": (mean_us(LOG_FSYNC), "us"),
        "storage.log.since_us": (mean_us(LOG_SINCE), "us"),
        "storage.log.since_useful_ratio": (
            ratio(counts[LOG_SINCE + ".returned"], counts[LOG_SINCE + ".retained"]),
            "ratio",
        ),
        "storage.log.recover_s": (
            ratio(counts[LOG_OPEN + ".reopen_ns"] / 1e9, counts[LOG_OPEN + ".reopens"]),
            "s",
        ),
        "storage.log.recovered_records": (
            ratio(counts[LOG_OPEN + ".recovered_records"], counts[LOG_OPEN + ".reopens"]),
            "count",
        ),
        "storage.log.truncated_bytes": (
            ratio(counts[LOG_OPEN + ".truncated_bytes"], counts[LOG_OPEN + ".reopens"]),
            "B",
        ),
        "trace.overhead_ratio": (ratio(traced_rate, untraced_rate), "ratio"),
    }
    return metrics
