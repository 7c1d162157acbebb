"""Trace capture and replay.

A trace is a plain list of operations with a fixed address range, suitable
for replaying the *same* byte stream against different device types — the
discipline the lifetime tournament uses so baseline/CVSS/ShrinkS/RegenS see
identical traffic. Traces serialise to a compact text format (one op per
line) for fixtures and offline inspection.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

from repro import artifact
from repro.errors import ConfigError, ReproError
from repro.workloads.generators import Operation, OpType


@dataclass
class Trace:
    """A recorded operation stream over ``n_lbas`` logical pages."""

    n_lbas: int
    operations: list[Operation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_lbas <= 0:
            raise ConfigError(f"n_lbas must be positive, got {self.n_lbas!r}")

    def __len__(self) -> int:
        return len(self.operations)

    def append(self, operation: Operation) -> None:
        if not 0 <= operation.lba < self.n_lbas:
            raise ConfigError(
                f"operation LBA {operation.lba} outside [0, {self.n_lbas})")
        self.operations.append(operation)

    # -- serialisation -------------------------------------------------------

    def dumps(self) -> str:
        """One op per line: ``W <lba> <hex>`` / ``R <lba>`` / ``T <lba>``.

        Canonical form: a write with an empty (or ``None``) payload
        serialises as ``W <lba>`` with *no* trailing separator. The
        format predates the canonical-JSON artifact discipline and used
        to emit ``"W <lba> "`` (trailing space) for empty payloads —
        bytes that survived a round trip but differed from what a
        re-serialised load produced once whitespace was normalised
        anywhere in between. ``tests/workloads/test_traces.py`` pins
        ``dumps(loads(dumps(t))) == dumps(t)`` and the no-trailing-
        whitespace property.
        """
        out = io.StringIO()
        out.write(f"# trace n_lbas={self.n_lbas}\n")
        for op in self.operations:
            if op.op is OpType.WRITE:
                if op.payload:
                    out.write(f"W {op.lba} {op.payload.hex()}\n")
                else:
                    out.write(f"W {op.lba}\n")
            elif op.op is OpType.READ:
                out.write(f"R {op.lba}\n")
            else:
                out.write(f"T {op.lba}\n")
        return out.getvalue()

    @classmethod
    def loads(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith("# trace n_lbas="):
            raise ConfigError("trace text missing header line")
        try:
            trace = cls(n_lbas=int(lines[0].split("=", 1)[1]))
            for line in lines[1:]:
                parts = line.split()
                kind, lba = parts[0], int(parts[1])
                if kind == "W":
                    payload = (bytes.fromhex(parts[2]) if len(parts) > 2
                               else b"")
                    trace.append(Operation(OpType.WRITE, lba, payload))
                elif kind == "R":
                    trace.append(Operation(OpType.READ, lba))
                elif kind == "T":
                    trace.append(Operation(OpType.TRIM, lba))
                else:
                    raise ConfigError(f"unknown trace op {kind!r}")
        except ConfigError:
            raise
        except (ValueError, IndexError) as error:
            raise ConfigError(f"malformed trace line: {error}") from error
        return trace

    def save(self, path: str | Path) -> Path:
        """Write the canonical serialisation to ``path`` (UTF-8)."""
        return artifact.write_text(path, self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace file written by :meth:`save` (or hand-edited)."""
        text = artifact.read_text(path, "trace file")
        try:
            return cls.loads(text)
        except ConfigError as error:
            raise ConfigError(f"trace file {path}: {error}") from error


def synthesize_trace(generator, count: int) -> Trace:
    """Record ``count`` ops from any generator into a trace."""
    trace = Trace(n_lbas=getattr(generator, "n_lbas", None)
                  or generator.base.n_lbas)
    for op in generator.ops(count):
        trace.append(op)
    return trace


def parse_msr_trace(text: str, *, opage_bytes: int = 4096,
                    n_lbas: int | None = None,
                    payload_stamp: bool = True) -> Trace:
    """Parse an MSR-Cambridge-style CSV block trace into a :class:`Trace`.

    The MSR format (the de-facto standard for storage research traces) is
    ``timestamp,hostname,disk,type,offset,size,latency`` per line, with
    byte offsets/sizes and type ``Read``/``Write``. Multi-page requests
    are split into per-oPage operations; offsets are truncated to oPage
    alignment. Lines that do not parse are rejected loudly — silent trace
    corruption invalidates experiments.

    Args:
        text: CSV content.
        opage_bytes: logical page size for splitting requests.
        n_lbas: address-space size; defaults to covering the trace's
            largest offset.
        payload_stamp: synthesise verifiable payloads for writes (the MSR
            format carries no data).
    """
    parsed: list[tuple[str, int, int]] = []
    max_lba = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 6:
            raise ConfigError(
                f"MSR trace line {line_number}: expected >= 6 fields, "
                f"got {len(parts)}")
        kind = parts[3].strip().lower()
        if kind not in ("read", "write"):
            raise ConfigError(
                f"MSR trace line {line_number}: unknown type {parts[3]!r}")
        try:
            offset = int(parts[4])
            size = int(parts[5])
        except ValueError as error:
            raise ConfigError(
                f"MSR trace line {line_number}: bad offset/size") from error
        if offset < 0 or size <= 0:
            raise ConfigError(
                f"MSR trace line {line_number}: offset/size out of range")
        first = offset // opage_bytes
        pages = -(-(offset % opage_bytes + size) // opage_bytes)
        for page in range(first, first + pages):
            parsed.append((kind, page, line_number))
            max_lba = max(max_lba, page)
    if not parsed:
        raise ConfigError("MSR trace contained no operations")
    space = n_lbas if n_lbas is not None else max_lba + 1
    trace = Trace(n_lbas=space)
    sequence = 0
    for kind, lba, _line in parsed:
        lba %= space
        if kind == "write":
            sequence += 1
            payload = (f"msr lba={lba} seq={sequence}".encode()
                       if payload_stamp else b"")
            trace.append(Operation(OpType.WRITE, lba, payload))
        else:
            trace.append(Operation(OpType.READ, lba))
    return trace


def replay_on_device(trace: Trace, device, *,
                     stop_on_error: bool = True) -> dict[str, int]:
    """Replay a trace on a flat-LBA device (baseline/CVSS).

    Returns counters: ops applied per type plus errors survived (when
    ``stop_on_error`` is False). LBAs are taken modulo the device's current
    capacity so shrunken devices still see the full stream.
    """
    applied = {"writes": 0, "reads": 0, "trims": 0, "errors": 0}
    for op in trace.operations:
        capacity = getattr(device, "capacity_lbas", device.n_lbas)
        if capacity <= 0:
            break
        lba = op.lba % capacity
        try:
            if op.op is OpType.WRITE:
                device.write(lba, op.payload or b"")
                applied["writes"] += 1
            elif op.op is OpType.READ:
                device.read(lba)
                applied["reads"] += 1
            else:
                device.trim(lba)
                applied["trims"] += 1
        except ReproError:
            applied["errors"] += 1
            if stop_on_error:
                break
    return applied
