"""NVRAM write-coalescing buffer.

The paper's write path (§3.2): oPage writes are buffered "in a small
non-volatile buffer until enough data is cached to fill all oPages in the
next available fPage". The buffer therefore holds (key, payload) pairs and
releases them in groups sized to the open fPage's tiredness level.

Keys are opaque to the buffer (the FTL uses flat oPage indices; the
Salamander device uses (mdisk, lba) flattened the same way). A later write
to a buffered key overwrites in place — the classic buffer-hit fast path.

The buffer is a plain ``dict``: it keeps insertion order (the drain
order), and a rewrite keeps its key's place. The FTL's write kernel and
drain (``PageMappedFTL._write_members``, ``_drain_one_fpage``) run once
per host oPage, so they work on ``_entries`` directly; :meth:`put`,
:attr:`is_full` and :meth:`discard` are the semantics they inline. The
buffer knows nothing of streams: the FTL tags only the keys written on
a stream other than 0 (``_buffer_stream``).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Hashable

from repro.errors import ConfigError


class WriteBuffer:
    """FIFO buffer of dirty oPages with in-place overwrite on re-write.

    Args:
        capacity_opages: maximum buffered oPages; the FTL must drain before
            exceeding it. Sized like a real device's NVRAM (a few fPages).
    """

    def __init__(self, capacity_opages: int = 64) -> None:
        if capacity_opages <= 0:
            raise ConfigError(
                f"capacity_opages must be positive, got {capacity_opages!r}")
        self.capacity_opages = capacity_opages
        self._entries: dict[Hashable, bytes] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity_opages

    def put(self, key: Hashable, payload: bytes) -> None:
        """Buffer ``payload`` for ``key``; overwrites an existing entry.

        Overwrites do not change the entry's drain order: the page was
        already dirty, it just has newer content.
        """
        if key not in self._entries and self.is_full:
            raise ConfigError(
                "write buffer full; drain before inserting new keys")
        self._entries[key] = payload

    def get(self, key: Hashable) -> bytes | None:
        """Buffered payload for ``key``, or None (the read fast path)."""
        return self._entries.get(key)

    def discard(self, key: Hashable) -> bool:
        """Drop a buffered entry (trim of a not-yet-flushed write)."""
        return self._entries.pop(key, None) is not None

    def peek_batch(self, count: int,
                   where: Callable[[Hashable], bool] | None = None,
                   ) -> tuple[list[Hashable], list[bytes]]:
        """Up to ``count`` oldest entries, FIFO order, left in place, as
        ``(keys, payloads)`` — the two lists a program takes.

        With ``where`` given, only entries whose key it accepts are
        taken (per-stream draining), and the scan stops at ``count``.
        Crash-safe drains peek, program the batch onto flash, and only
        then :meth:`discard` each key — so the NVRAM copy outlives the
        operation that persists it (docs/FAULTS.md, ack-before-persist).
        """
        if count < 0:
            raise ConfigError(f"count must be non-negative, got {count!r}")
        entries = self._entries
        wanted = entries if where is None else filter(where, entries)
        taken = list(islice(wanted, count))
        return taken, list(map(entries.__getitem__, taken))

    def keys(self) -> list[Hashable]:
        """Buffered keys, oldest first."""
        return list(self._entries)
