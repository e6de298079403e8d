"""Property tests of ``HistoryStore.since`` against a reference model.

Random sequences of ``append``, ``clear``, ``since(k)``, follower reads and
-- for the durable store -- reopen, close-then-read and torn-tail
truncation must always give::

    since(k) == [entry for entry in retained if entry[0] >= k]

where ``retained`` is what a plain list model says the store keeps.  ``k``
ranges over negative offsets, evicted offsets, ``next_offset`` and past it.
The ring runs at capacity 1, small capacities and unbounded (``<= 0``).
The log runs with the real tail index and with tiny ones (patched
``TAIL_INDEX``), so cold reads older than the index and the nearest-boundary
header-skip are exercised with short histories; two followers read the same
log at different cursors, interleaved with appends.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.history import RingHistory
from repro.storage import log as log_module
from repro.storage.log import LogHistory

pytestmark = [pytest.mark.durability]

SETTINGS = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Events: short strings of varying length, so records differ in size.
EVENTS = st.text(alphabet="abcxyz", max_size=12)
METAS = st.none() | st.integers(-5, 5)


def _encode(record) -> bytes:
    return json.dumps(record).encode()


def _decode(payload: bytes):
    return json.loads(payload)


def _expected(model, k):
    return [entry for entry in model if entry[0] >= k]


def _probe(data, model, next_offset):
    """An offset to read from: negative, evicted, retained, next or past it."""
    return data.draw(st.integers(-3, next_offset + 3), label="k")


class RingSinceMachine(RuleBasedStateMachine):
    """``RingHistory`` against a list that keeps the newest ``capacity``."""

    @initialize(capacity=st.sampled_from([1, 2, 5, 0, -1]))
    def open(self, capacity):
        self.ring = RingHistory(capacity)
        self.capacity = capacity
        self.model = []
        self.next = 0

    @rule(event=EVENTS, meta=METAS)
    def append(self, event, meta):
        assert self.ring.append(event, meta) == self.next
        self.model.append((self.next, event, meta))
        self.next += 1
        if self.capacity > 0:
            self.model = self.model[-self.capacity :]

    @rule()
    def clear(self):
        self.ring.clear()
        self.model = []

    @rule(data=st.data())
    def since(self, data):
        k = _probe(data, self.model, self.next)
        assert self.ring.since(k) == _expected(self.model, k)

    @invariant()
    def counters_agree(self):
        assert self.ring.next_offset == self.next
        assert len(self.ring) == len(self.model)
        assert self.ring.start_offset == (self.model[0][0] if self.model else self.next)


class LogSinceMachine(RuleBasedStateMachine):
    """``LogHistory`` against a list of every record the file holds."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="log-since-")
        self.path = os.path.join(self.directory, "history.log")
        self.patch = None
        self.store = None
        self.model = []
        #: Two followers' cursors: each reads since(cursor), then moves on.
        self.cursors = [0, 0]

    def _open(self):
        return LogHistory(self.path, encode=_encode, decode=_decode, fsync_every=3)

    @initialize(tail=st.sampled_from([1, 3, 8, log_module.TAIL_INDEX]))
    def open(self, tail):
        self.patch = mock.patch.object(log_module, "TAIL_INDEX", tail)
        self.patch.start()
        self.store = self._open()

    @rule(event=EVENTS, meta=METAS)
    def append(self, event, meta):
        offset = self.store.append(event, meta)
        assert offset == len(self.model)
        self.model.append([offset, event, meta])

    @rule()
    def clear(self):
        self.store.clear()
        self.model = []

    @rule(data=st.data())
    def since(self, data):
        k = _probe(data, self.model, len(self.model))
        assert _lists(self.store.since(k)) == _expected(self.model, k)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reread(self, data):
        """Two reads, the second at or after the first: a cold second read
        starts from the boundary the first one found."""
        first = data.draw(st.integers(0, len(self.model) - 1), label="first")
        second = data.draw(st.integers(first, len(self.model)), label="second")
        for k in (first, second):
            assert _lists(self.store.since(k)) == _expected(self.model, k)

    @rule(which=st.sampled_from([0, 1]))
    def follow(self, which):
        cursor = self.cursors[which]
        entries = _lists(self.store.since(cursor))
        assert entries == _expected(self.model, cursor)
        if entries:
            self.cursors[which] = entries[-1][0] + 1

    @rule()
    def reopen(self):
        self.store.close()
        self.store = self._open()
        assert self.store.recovered_records == len(self.model)
        assert self.store.truncated_bytes == 0

    @rule(data=st.data())
    def read_after_close(self, data):
        self.store.close()
        k = _probe(data, self.model, len(self.model))
        assert _lists(self.store.since(k)) == _expected(self.model, k)
        self.store = self._open()

    @precondition(lambda self: self.model)
    @rule(cut=st.integers(1, 40))
    def tear_tail(self, cut):
        """Crash mid-write: chop ``cut`` bytes off the file and reopen."""
        self.store.close()
        size = os.path.getsize(self.path)
        cut = min(cut, size)
        with open(self.path, "r+b") as segment:
            segment.truncate(size - cut)
        end, survivors = 0, 0
        for _, event, meta in self.model:
            end += 4 + len(_encode((event, meta)))
            if end > size - cut:
                break
            survivors += 1
        self.model = self.model[:survivors]
        self.store = self._open()
        assert self.store.recovered_records == survivors

    @invariant()
    def counters_agree(self):
        if self.store is not None:
            assert self.store.next_offset == len(self.model)
            assert len(self.store) == len(self.model)
            assert self.store.start_offset == 0

    def teardown(self):
        if self.store is not None:
            self.store.close()
        if self.patch is not None:
            self.patch.stop()
        shutil.rmtree(self.directory, ignore_errors=True)


def _lists(entries):
    """JSON round-trips tuples as lists; compare entries the same way."""
    return [[offset, event, meta] for offset, event, meta in entries]


RingSinceMachine.TestCase.settings = SETTINGS
LogSinceMachine.TestCase.settings = SETTINGS
TestRingSince = RingSinceMachine.TestCase
TestLogSince = LogSinceMachine.TestCase
