"""Access-pattern generators.

Each generator produces operation streams over a logical LBA range.
They are deliberately *range-relative*: the harness rescales them as
devices shrink (the CVSS free-space discipline, or per-minidisk targeting
for Salamander).

A generator's one source of truth is :meth:`rows`: the next ``count``
operations as plain ``(kind, lba, seq)`` tuples, where ``seq`` is a
write's stamp sequence and ``None`` for reads and trims. Payloads are
stamped from ``(lba, seq)`` only where a write is issued
(:func:`stamp_payload`); :meth:`ops` is the stamped :class:`Operation`
view of the same rows. A stamp encodes the LBA and the sequence number
so integrity checks can detect misdirected or stale reads — a trick
borrowed from disk-test tools like fio's verify mode.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat, starmap
from typing import Iterator, NamedTuple

import numpy as np

from repro.errors import ConfigError
from repro.rng import make_rng


class OpType(Enum):
    READ = "read"
    WRITE = "write"
    TRIM = "trim"


class Operation(NamedTuple):
    """One logical operation (immutable; unpacks as ``op, lba, payload``).

    Attributes:
        op: READ/WRITE/TRIM.
        lba: target oPage, relative to the stream's range.
        payload: bytes for WRITE (None otherwise).
    """

    op: OpType
    lba: int
    payload: bytes | None = None


def stamp_payload(lba: int, sequence: int) -> bytes:
    """Self-describing payload: identifies the LBA and write generation."""
    return b"lba=%d seq=%d" % (lba, sequence)


def _stamped(kind: OpType, lba: int, seq: int | None) -> Operation:
    """The :class:`Operation` a row stands for."""
    return Operation(kind, lba,
                     None if seq is None else stamp_payload(lba, seq))


def _writes(lbas: list[int], last_seq: int) -> list[tuple]:
    """WRITE rows for ``lbas``, stamp sequences following ``last_seq``."""
    return list(zip(repeat(OpType.WRITE), lbas,
                    range(last_seq + 1, last_seq + 1 + len(lbas))))


class _Generator:
    """What every generator shares: :meth:`ops` over its ``rows``.

    A subclass's ``rows(count)`` returns the next ``count`` operations
    as a fresh list of ``(kind, lba, seq)`` rows.
    """

    def ops(self, count: int) -> Iterator[Operation]:
        """The next ``count`` operations as stamped :class:`Operation`
        tuples; the rows are drawn when this is called."""
        return starmap(_stamped, self.rows(count))


def hotspot_mass(n_lbas: int, theta: float,
                 hot_fraction: float = 0.2) -> float:
    """Fraction of Zipf accesses landing on the hottest LBAs.

    The analytic mass of the top ``hot_fraction`` of ranks under
    :class:`ZipfianGenerator`'s weighting — no sampling involved — so
    the statistics tests (and the traffic engine's "zipfian-hotspot
    80/20" class) can state what skew a theta actually buys: at the
    YCSB default theta 0.99 the hottest 20 % of a few-hundred-LBA span
    absorbs roughly 80 % of the traffic.
    """
    if n_lbas <= 0:
        raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
    if not 0.0 < hot_fraction <= 1.0:
        raise ConfigError(
            f"hot_fraction must be in (0, 1], got {hot_fraction!r}")
    ranks = np.arange(1, n_lbas + 1, dtype=float)
    weights = ranks**-theta if theta > 0 else np.ones(n_lbas)
    hot = max(1, int(round(hot_fraction * n_lbas)))
    return float(weights[:hot].sum() / weights.sum())


def draw_block(generator, block: int, flip_rng=None,
               read_fraction: float = 0.0) -> list[tuple]:
    """The next ``block`` rows of ``generator``: ``(kind, lba, seq)``.

    Pulling one op at a time costs a size-1 numpy draw per operation.
    Block pulls leave every RNG stream exactly where one-op pulls would
    have: a generator's address RNG,
    :class:`MixedGenerator`'s roll RNG and ``flip_rng`` are independent
    streams, and numpy consumes a bit stream identically for N draws of
    one and one draw of N (``tests/workloads/test_statistics.py`` pins
    it per class).

    With ``flip_rng``, each WRITE becomes a READ row (``seq`` None) with
    probability ``read_fraction`` — one ``flip_rng`` draw per WRITE, in
    op order, as a per-op ``flip_rng.random()`` would draw them.
    """
    rows = generator.rows(block)
    if flip_rng is not None:
        read, write = OpType.READ, OpType.WRITE
        writes = [index for index, row in enumerate(rows)
                  if row[0] is write]
        rolls = flip_rng.random(len(writes)).tolist()
        for index, roll in zip(writes, rolls):
            if roll < read_fraction:
                rows[index] = (read, rows[index][1], None)
    return rows


class UniformGenerator(_Generator):
    """Uniformly random writes over ``[0, n_lbas)``."""

    def __init__(self, n_lbas: int,
                 seed: int | np.random.Generator | None = None) -> None:
        if n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
        self.n_lbas = n_lbas
        self.rng = make_rng(seed)
        self._sequence = 0

    def rows(self, count: int) -> list[tuple]:
        lbas = self.rng.integers(0, self.n_lbas, size=count).tolist()
        rows = _writes(lbas, self._sequence)
        self._sequence += count
        return rows


class ZipfianGenerator(_Generator):
    """Zipf-skewed writes: a hot set absorbs most traffic.

    Args:
        n_lbas: address range.
        theta: skew; 0 degenerates to uniform, ~0.99 is the YCSB default.
    """

    def __init__(self, n_lbas: int, theta: float = 0.99,
                 seed: int | np.random.Generator | None = None) -> None:
        if n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
        if not 0.0 <= theta < 2.0:
            raise ConfigError(f"theta must be in [0, 2), got {theta!r}")
        self.n_lbas = n_lbas
        self.theta = theta
        self.rng = make_rng(seed)
        self._sequence = 0
        ranks = np.arange(1, n_lbas + 1, dtype=float)
        weights = ranks**-theta if theta > 0 else np.ones(n_lbas)
        self._cdf = np.cumsum(weights / weights.sum())
        # Hot ranks are scattered across the address space, as in YCSB.
        self._permutation = make_rng(self.rng).permutation(n_lbas)

    def rows(self, count: int) -> list[tuple]:
        ranks = np.searchsorted(self._cdf, self.rng.random(count))
        rows = _writes(self._permutation[ranks].tolist(), self._sequence)
        self._sequence += count
        return rows


class SequentialGenerator(_Generator):
    """Wrap-around sequential writes (log-style ingest)."""

    def __init__(self, n_lbas: int, start: int = 0) -> None:
        if n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
        if not 0 <= start < n_lbas:
            raise ConfigError(
                f"start must be in [0, {n_lbas}), got {start!r}")
        self.n_lbas = n_lbas
        self._next = start
        self._sequence = 0

    def rows(self, count: int) -> list[tuple]:
        start, n_lbas = self._next, self.n_lbas
        rows = _writes([lba % n_lbas for lba in range(start, start + count)],
                       self._sequence)
        self._next = (start + count) % n_lbas
        self._sequence += count
        return rows


class MixedGenerator(_Generator):
    """Read/write/trim mix over a base write generator's address range.

    Reads and trims target previously written LBAs, so replay on a fresh
    device never reads unwritten space unless the mix's history is empty.
    """

    def __init__(self, base: UniformGenerator | ZipfianGenerator,
                 read_fraction: float = 0.5, trim_fraction: float = 0.0,
                 seed: int | np.random.Generator | None = None) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigError(
                f"read_fraction must be in [0, 1], got {read_fraction!r}")
        if not 0.0 <= trim_fraction <= 1.0 - read_fraction:
            raise ConfigError(
                f"trim_fraction must be in [0, {1 - read_fraction}], "
                f"got {trim_fraction!r}")
        self.base = base
        self.read_fraction = read_fraction
        self.trim_fraction = trim_fraction
        self.rng = make_rng(seed)
        self._written: list[int] = []
        self._written_set: set[int] = set()

    def rows(self, count: int) -> list[tuple]:
        rows = self.base.rows(count)
        rng, written, written_set = self.rng, self._written, self._written_set
        read, trim = OpType.READ, OpType.TRIM
        reads = self.read_fraction
        reads_or_trims = self.read_fraction + self.trim_fraction
        for index, (_kind, lba, _seq) in enumerate(rows):
            roll = float(rng.random())
            if roll < reads and written:
                rows[index] = (
                    read, written[int(rng.integers(0, len(written)))], None)
            elif roll < reads_or_trims and written:
                target = written.pop(int(rng.integers(0, len(written))))
                written_set.discard(target)
                rows[index] = (trim, target, None)
            elif lba not in written_set:
                written.append(lba)
                written_set.add(lba)
        return rows
