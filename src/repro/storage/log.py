"""``LogHistory``: the append-only, crash-recoverable history store.

File format (one flat segment file per store direction)::

    record := length(4 bytes, big-endian, > 0) || payload(length bytes)
    payload := codec.encode((event, meta))

Offsets are the record's index in the file, so they are dense, start at 0
and -- unlike the bounded ring -- never evict: ``start_offset`` stays 0 and
``since(offset)`` can replay the complete history of the engine across
process restarts.

Durability model: appends go through one buffered writer and are
fsync-batched (every ``fsync_every`` records, plus on ``close``), the
classic group-commit trade-off -- a crash can lose at most the last
unsynced batch, never corrupt what was synced before it.  On open the store
scans the file and **truncates the torn tail**: a record whose length header
or payload is incomplete (the crash happened mid-write), or whose payload no
longer decodes, is dropped along with everything after it, so the store
always reopens to a prefix of complete records (``recovered_records`` /
``truncated_bytes`` report what recovery found).

Reads (``snapshot``/``since``) flush the write buffer and read the file
with an independent descriptor; they keep working after ``close()`` -- the
paper's contract that a closed interface still answers its history queries
extends to the durable store.

Read cost: ``since(offset)`` costs what it returns.  The store keeps a
running byte size and a fixed-size ring of the start positions of the
newest ``TAIL_INDEX`` records (filled by ``append`` and by the recovery
scan), so a read anywhere in that tail seeks straight to its first record
and reads exactly the wanted bytes in one call; ``offset >= next_offset``
returns ``[]`` without opening the file.  Sequential followers -- any
number of them, at any cursors inside the tail -- therefore pay
O(returned).  A cold read older than the tail header-skips once, from the
nearest known record boundary at or before ``offset``: the file start, or
the first record of the previous cold read.

In-memory footprint is O(1): the store keeps counters and the fixed-size
tail index, never the records, so a ``history="log"`` engine honours the
"no engine's in-memory history grows beyond its configured bound"
guarantee trivially.
"""

from __future__ import annotations

import os
import threading
from array import array
from typing import Any, Callable, List, Tuple

from repro.core.exceptions import PSException
from repro.core.history import HistoryStore

#: Bytes of the per-record big-endian length prefix.
_HEADER_SIZE = 4

#: Default group-commit batch: fsync once per this many appends.
DEFAULT_FSYNC_EVERY = 64

#: Records whose start positions the tail index keeps: the same window as
#: the default ring history, so any catch-up a ring store could answer the
#: log answers with one seek (8 bytes a record, 32 KiB a store).
TAIL_INDEX = 4096


class LogHistory(HistoryStore):
    """Append-only history store over length-prefixed codec records."""

    kind = "log"

    def __init__(
        self,
        path: str,
        *,
        encode: Callable[[Any], bytes],
        decode: Callable[[bytes], Any],
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> None:
        self.path = path
        self._encode = encode
        self._decode = decode
        self.fsync_every = max(1, int(fsync_every))
        self._lock = threading.Lock()
        self._closed = False
        #: Appends buffered since the last fsync (group commit).
        self._pending = 0
        #: Complete records found by crash recovery on open.
        self.recovered_records = 0
        #: Torn-tail bytes dropped by crash recovery on open.
        self.truncated_bytes = 0
        #: Start position of record ``o`` at slot ``o % TAIL_INDEX``; valid
        #: for the newest ``TAIL_INDEX`` records.
        self._starts = array("q", bytes(8 * TAIL_INDEX))
        #: ``(offset, position)`` of the first record of the last cold read:
        #: a known boundary older than the tail index.
        self._hint = (0, 0)
        #: Bumped by ``clear``: a read racing it must not record a hint.
        self._generation = 0
        self._next, self._size = self._recover()
        self._writer = open(self.path, "ab")

    # ------------------------------------------------------------- recovery

    def _recover(self) -> Tuple[int, int]:
        """Scan the file, truncate any torn tail, index the newest record
        starts; return the record count and the byte size kept."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return 0, 0
        starts = self._starts
        records = 0
        good_end = 0
        last_start = 0
        last_payload = b""
        with open(self.path, "rb") as segment:
            read = segment.read
            while True:
                header = read(_HEADER_SIZE)
                if len(header) < _HEADER_SIZE:
                    break  # clean EOF, or a torn length prefix
                length = int.from_bytes(header, "big")
                if length <= 0:
                    break  # a zeroed/corrupt header can only be a torn write
                payload = read(length)
                if len(payload) < length:
                    break  # torn payload
                starts[records % TAIL_INDEX] = last_start = good_end
                records += 1
                good_end += _HEADER_SIZE + length
                last_payload = payload
        if records:
            # A tail record can be structurally complete yet undecodable
            # (its bytes were only partially flushed before an old tail was
            # overwritten); verify the last record round-trips and drop it
            # too when it does not.
            try:
                self._decode(last_payload)
            except Exception:  # noqa: BLE001 - any decode failure means a torn tail
                records -= 1
                good_end = last_start
        self.recovered_records = records
        self.truncated_bytes = size - good_end
        if good_end < size:
            with open(self.path, "r+b") as segment:
                segment.truncate(good_end)
        return records, good_end

    # -------------------------------------------------------------- writing

    def append(self, event: Any, meta: Any = None) -> int:
        payload = self._encode((event, meta))
        with self._lock:
            if self._closed:
                raise PSException(f"the history log {self.path!r} is closed")
            length = len(payload)
            self._writer.write(length.to_bytes(_HEADER_SIZE, "big") + payload)
            self._pending += 1
            if self._pending >= self.fsync_every:
                self._sync_locked()
            offset = self._next
            self._next = offset + 1
            self._starts[offset % TAIL_INDEX] = self._size
            self._size += _HEADER_SIZE + length
            return offset

    def _sync_locked(self) -> None:
        self._writer.flush()
        os.fsync(self._writer.fileno())
        self._pending = 0

    def sync(self) -> None:
        """Force the group-commit fsync now (crash loses nothing before it)."""
        with self._lock:
            if not self._closed and self._pending:
                self._sync_locked()

    # -------------------------------------------------------------- reading

    def since(self, offset: int) -> List[Tuple[int, Any, Any]]:
        offset = max(0, offset)
        with self._lock:
            end = self._next
            if offset >= end:
                return []
            if not self._closed:
                # Make buffered appends visible to the reading descriptor;
                # no fsync needed for same-process reads.
                self._writer.flush()
            size = self._size
            if end - offset <= TAIL_INDEX:
                index, position = offset, self._starts[offset % TAIL_INDEX]
            else:
                index, position = self._hint if self._hint[0] <= offset else (0, 0)
            generation = self._generation
        with open(self.path, "rb") as segment:
            segment.seek(position)
            if index < offset:
                # Cold read older than the tail index: header-skip from the
                # nearest known boundary, then remember where we landed.
                while index < offset:
                    header = segment.read(_HEADER_SIZE)
                    if len(header) < _HEADER_SIZE:
                        return []
                    position = segment.seek(int.from_bytes(header, "big"), os.SEEK_CUR)
                    index += 1
                with self._lock:
                    if self._generation == generation:
                        self._hint = (offset, position)
            data = segment.read(size - position)
        entries: List[Tuple[int, Any, Any]] = []
        decode = self._decode
        cursor = 0
        while index < end:
            start = cursor + _HEADER_SIZE
            cursor = start + int.from_bytes(data[cursor:start], "big")
            if cursor > len(data):
                break  # a concurrent clear() truncated the file under us
            event, meta = decode(data[start:cursor])
            entries.append((index, event, meta))
            index += 1
        return entries

    def snapshot(self) -> List[Any]:
        return [event for _, event, _ in self.since(0)]

    def __len__(self) -> int:
        with self._lock:
            return self._next

    @property
    def next_offset(self) -> int:
        with self._lock:
            return self._next

    @property
    def start_offset(self) -> int:
        return 0

    # ------------------------------------------------------------ lifecycle

    def clear(self) -> None:
        """Destructive reset: truncate the file and restart offsets at 0.

        Unlike :meth:`RingHistory.clear <repro.core.history.RingHistory.clear>`
        this resets the offset counter too -- a reopened store recounts the
        file, so keeping a phantom in-memory base would desync them.
        """
        with self._lock:
            if self._closed:
                raise PSException(f"the history log {self.path!r} is closed")
            self._writer.flush()
            self._writer.truncate(0)
            self._writer.seek(0)
            self._pending = 0
            self._next = 0
            self._size = 0
            self._hint = (0, 0)
            self._generation += 1

    def close(self) -> None:
        """Flush, fsync and close the writer; reads keep working."""
        with self._lock:
            if self._closed:
                return
            self._sync_locked()
            self._writer.close()
            self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LogHistory({self.path!r}, records={len(self)})"


__all__ = ["DEFAULT_FSYNC_EVERY", "LogHistory", "TAIL_INDEX"]
