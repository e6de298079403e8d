"""Machine-independent work budgets for ``HistoryStore.since``.

A cursor stream calls ``since(cursor)`` on every live event, so a read must
cost what it returns, not what the store retains.  Wall-clock gates would be
flaky; these tests count work instead:

* ``LogHistory`` -- the bytes the store reads through ``open`` (patched in
  :mod:`repro.storage.log`), for two followers at different cursors
  interleaved with appends on a 10,000-record log;
* ``RingHistory`` -- the entries ``since`` visits in a full 4096-entry ring,
  counted by a ``deque`` subclass swapped in for the ring's storage.

A scan of the retained history (a header walk over the log, a full pass
over the ring) fails both budgets by orders of magnitude.
"""

from __future__ import annotations

import builtins
from collections import deque

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core.history import DEFAULT_HISTORY_SIZE, RingHistory
from repro.core.type_registry import TypeRegistry
from repro.storage import log as log_module
from repro.storage.log import LogHistory

pytestmark = [pytest.mark.durability]

#: Records in the log under test.
LOG_RECORDS = 10_000

#: Reads a follower may pay for, in records' worth of bytes, beyond the
#: records it is handed.
SLACK_RECORDS = 2


def _offer(index: int) -> SkiRental:
    return SkiRental(f"shop-{index:05d}", float(index), "Salomon", 7)


class _CountingFile:
    """Wraps a file object and tallies the bytes its ``read`` returns."""

    def __init__(self, segment, tally):
        self._segment = segment
        self._tally = tally

    def read(self, size=-1):
        data = self._segment.read(size)
        self._tally[0] += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._segment, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._segment.close()


def test_log_followers_read_only_what_they_return(tmp_path, monkeypatch):
    codec = TypeRegistry(SkiRental).codec
    store = LogHistory(str(tmp_path / "received.log"), encode=codec.encode, decode=codec.decode)
    for index in range(LOG_RECORDS):
        store.append(_offer(index))
    record = 4 + len(codec.encode((_offer(0), None)))  # every record is this size

    tally = [0]
    _counting_open(monkeypatch, tally)
    # Follower "fast" reads after every append, "slow" after every third;
    # both start one record behind the tail.
    cursors = {"fast": store.next_offset - 1, "slow": store.next_offset - 1}
    for step in range(30):
        store.append(_offer(LOG_RECORDS + step))
        for name, every in (("fast", 1), ("slow", 3)):
            if step % every:
                continue
            tally[0] = 0
            entries = store.since(cursors[name])
            assert [offset for offset, _, _ in entries] == list(
                range(cursors[name], store.next_offset)
            )
            assert tally[0] <= (len(entries) + SLACK_RECORDS) * record, name
            cursors[name] = store.next_offset

    tally[0] = 0
    newest = store.since(store.next_offset - 1)
    assert len(newest) == 1
    assert tally[0] <= (1 + SLACK_RECORDS) * record

    tally[0] = 0
    assert store.since(store.next_offset) == []
    assert tally[0] == 0
    store.close()


def _counting_open(monkeypatch, tally):
    monkeypatch.setattr(
        log_module,
        "open",
        lambda *args, **kwargs: _CountingFile(builtins.open(*args, **kwargs), tally),
        raising=False,
    )


def _names(entries):
    return [(offset, event.shop) for offset, event, _ in entries]


def test_log_cold_read_skips_from_the_previous_cold_read(tmp_path, monkeypatch):
    """Reads older than the tail index header-skip from the nearest known
    boundary; ``clear()`` forgets it; a short header never records one."""
    monkeypatch.setattr(log_module, "TAIL_INDEX", 4)
    codec = TypeRegistry(SkiRental).codec
    path = tmp_path / "received.log"
    store = LogHistory(str(path), encode=codec.encode, decode=codec.decode)

    def fill(count, width):
        offers = [SkiRental("s" * (1 + (index * width) % 13), 1.0, "b", 1) for index in range(count)]
        for offer in offers:
            store.append(offer)
        return [(offset, offer.shop) for offset, offer in enumerate(offers)]

    expected = fill(200, 5)
    tally = [0]
    _counting_open(monkeypatch, tally)
    assert _names(store.since(50)) == expected[50:]
    tally[0] = 0
    tail = store.since(60)
    assert _names(tail) == expected[60:]
    returned = sum(4 + len(codec.encode((event, None))) for _, event, _ in tail)
    assert tally[0] <= returned + 10 * 4  # ten headers skipped, not sixty

    store.clear()
    expected = fill(200, 7)  # different record sizes at the same offsets
    assert _names(store.since(60)) == expected[60:]
    store.close()
    assert _names(store.since(120)) == expected[120:]

    # A file cut short under a read: the skip meets a short header, returns
    # nothing and records no boundary.
    hint = store._hint
    with builtins.open(path, "r+b") as segment:
        segment.truncate(2)
    assert store.since(150) == []
    assert store._hint == hint


class _CountingDeque(deque):
    """A deque that counts the items its iterators hand out."""

    visited = 0

    def __iter__(self):
        for item in super().__iter__():
            self.visited += 1
            yield item

    def __reversed__(self):
        for item in super().__reversed__():
            self.visited += 1
            yield item


def test_ring_since_visits_only_what_it_returns():
    ring = RingHistory(DEFAULT_HISTORY_SIZE)
    for index in range(DEFAULT_HISTORY_SIZE + 100):
        ring.append(index)
    entries = _CountingDeque(ring._entries, maxlen=ring._entries.maxlen)
    ring._entries = entries
    assert len(entries) == DEFAULT_HISTORY_SIZE

    newest = ring.since(ring.next_offset - 1)
    assert [offset for offset, _, _ in newest] == [ring.next_offset - 1]
    assert entries.visited <= 1 + SLACK_RECORDS

    entries.visited = 0
    assert ring.since(ring.next_offset) == []
    assert entries.visited == 0

    entries.visited = 0
    tail = ring.since(ring.next_offset - 10)
    assert [offset for offset, _, _ in tail] == list(range(ring.next_offset - 10, ring.next_offset))
    assert entries.visited <= 10 + SLACK_RECORDS
