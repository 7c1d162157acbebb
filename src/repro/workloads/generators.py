"""Access-pattern generators.

Each generator produces :class:`Operation` streams over a logical LBA
range. They are deliberately *range-relative*: the harness rescales them as
devices shrink (the CVSS free-space discipline, or per-minidisk targeting
for Salamander).

Payloads encode the LBA and a stream sequence number so integrity checks
can detect misdirected or stale reads — a trick borrowed from disk-test
tools like fio's verify mode.
"""

from __future__ import annotations

from enum import Enum
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
    return f"lba={lba} seq={sequence}".encode()


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
               read_fraction: float = 0.0) -> list[Operation]:
    """The next ``block`` operations of ``generator``, as a list.

    Pulling one op at a time costs a generator object and a size-1
    numpy draw per operation. Block pulls leave every RNG stream exactly
    where one-op pulls would have: a generator's address RNG,
    :class:`MixedGenerator`'s roll RNG and ``flip_rng`` are independent
    streams, and numpy consumes a bit stream identically for N draws of
    one and one draw of N (``tests/workloads/test_statistics.py`` pins
    it per class).

    With ``flip_rng``, each WRITE becomes a payload-free READ with
    probability ``read_fraction`` — one ``flip_rng`` draw per WRITE, in
    op order, as a per-op ``flip_rng.random()`` would draw them.
    """
    ops = list(generator.ops(block))
    if flip_rng is not None:
        writes = [index for index, op in enumerate(ops)
                  if op.op is OpType.WRITE]
        rolls = flip_rng.random(len(writes)).tolist()
        for index, roll in zip(writes, rolls):
            if roll < read_fraction:
                ops[index] = Operation(OpType.READ, ops[index].lba)
    return ops


class UniformGenerator:
    """Uniformly random writes over ``[0, n_lbas)``."""

    def __init__(self, n_lbas: int,
                 seed: int | np.random.Generator | None = None) -> None:
        if n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {n_lbas!r}")
        self.n_lbas = n_lbas
        self.rng = make_rng(seed)
        self._sequence = 0

    def ops(self, count: int) -> Iterator[Operation]:
        for lba in self.rng.integers(0, self.n_lbas, size=count).tolist():
            self._sequence += 1
            yield Operation(OpType.WRITE, lba,
                            stamp_payload(lba, self._sequence))


class ZipfianGenerator:
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

    def ops(self, count: int) -> Iterator[Operation]:
        ranks = np.searchsorted(self._cdf, self.rng.random(count))
        for lba in self._permutation[ranks].tolist():
            self._sequence += 1
            yield Operation(OpType.WRITE, lba,
                            stamp_payload(lba, self._sequence))


class SequentialGenerator:
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

    def ops(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            lba = self._next
            self._next = (self._next + 1) % self.n_lbas
            self._sequence += 1
            yield Operation(OpType.WRITE, lba,
                            stamp_payload(lba, self._sequence))


class MixedGenerator:
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

    def ops(self, count: int) -> Iterator[Operation]:
        for write_op in self.base.ops(count):
            roll = float(self.rng.random())
            if roll < self.read_fraction and self._written:
                target = self._written[
                    int(self.rng.integers(0, len(self._written)))]
                yield Operation(OpType.READ, target)
            elif (roll < self.read_fraction + self.trim_fraction
                    and self._written):
                index = int(self.rng.integers(0, len(self._written)))
                target = self._written.pop(index)
                self._written_set.discard(target)
                yield Operation(OpType.TRIM, target)
            else:
                if write_op.lba not in self._written_set:
                    self._written.append(write_op.lba)
                    self._written_set.add(write_op.lba)
                yield write_op
