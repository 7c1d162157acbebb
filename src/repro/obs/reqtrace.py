"""Request-scoped tracing: sampled per-request latency attribution.

A completion from :class:`repro.io.queue.DeviceQueue` reports *how
long* a request took (wait + measured service) but not *why*: was the
p99 read stuck behind earlier arrivals, senses that needed read
retries under tiredness, a GC pass triggered mid-write, or Salamander
shrinking capacity underneath the host? ``repro.obs.reqtrace`` answers
that by attaching a tiny accounting context to a deterministic sample
of requests and having every instrumented layer charge the device time
it consumes to a named segment.

Design:

* The tracer is the ``reqtrace`` field of the run context
  (:mod:`repro.context`), ``None`` by default. Layers bind it **at
  construction** and consult the binding only when non-None, so the
  disabled hot path is a single identity test — the zero-cost contract
  pinned by ``tests/test_context.py`` and the perf floors.
* Sampling is **seed-derived**: each device kind gets a deterministic
  phase from :func:`repro.rng.fork_rng` over the tracer's seed, and a
  request is sampled when ``(counter + phase) % every == 0``. The
  decision depends only on (seed, device kind, submission index), so
  trace artifacts are byte-identical for any ``--jobs`` value — the
  same determinism contract the sweep runner and fault plans obey.
* Segment accounting happens in the chip's busy-time domain (the
  ``FlashChip.stats.busy_us`` ledger every operation already charges).
  The queue activates the context around its device call; instrumented
  sections (:meth:`ReqContext.enter` / :meth:`ReqContext.exit`) charge
  the busy time accrued since the last boundary to the enclosing
  section, and leaf charges (:meth:`ReqContext.leaf`, e.g. the read
  retry excess) carve named slices out of the ambient section. At
  finish the busy-domain segments are rescaled by ``service / work``
  (channel-parallel makespan over total busy) and the ``device``
  segment absorbs the float residue, so every record satisfies
  ``sum(segments) == wait_us + service_us == total_us`` *exactly*.

The artifact (``repro.obs.reqtrace/v1``) is JSONL: one header line
(schema + run metadata) followed by one ``kind: "request"`` record per
sampled completion. Records carry ``name``/``time``/``end_time`` like
span records, so ``repro report --trace`` and
:mod:`repro.obs.analyze` accept the same files. See
docs/OBSERVABILITY.md for the schema and the sampling/overhead
contract.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from repro import artifact, context
from repro.errors import ConfigError
from repro.rng import fork_rng, make_rng

#: Version tag on every reqtrace artifact header.
REQTRACE_SCHEMA = "repro.obs.reqtrace/v1"

#: Default sampling period: one request in 64 carries a context.
DEFAULT_EVERY = 64

#: Float tolerance for the segment-sum invariant (validation only; the
#: records themselves are exact by construction).
SEGMENT_SUM_TOLERANCE = 1e-6


class ReqContext:
    """Latency-attribution scratchpad carried by one sampled request.

    The context lives on ``IORequest.trace`` from submit to completion.
    While the queue dispatches the request, instrumented layers reach
    it through :attr:`ReqTracer.active` and charge the chip busy time
    they consume to named segments via a small section stack:

    * ``enter(name, busy_now)`` — charge busy time accrued since the
      last boundary to the current section, then push ``name``;
    * ``exit(busy_now)`` — charge and pop;
    * ``leaf(name, amount)`` — attribute ``amount`` of already-charged
      busy time to ``name`` instead of the ambient section (used for
      the read-retry excess inside one chip sense);
    * ``bump(name, n)`` — count a discrete occurrence (retries, GC
      passes, shrink/regen events) into the record's ``attrs``.

    The root section is ``"device"``: un-attributed service time.
    """

    __slots__ = ("segments", "counts", "_stack", "_mark", "level_max")

    def __init__(self) -> None:
        self.segments: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[str] = ["device"]
        self._mark = 0.0
        self.level_max = 0

    def activate(self, busy_now: float) -> None:
        """Start charging from ``busy_now`` (queue dispatch boundary)."""
        self._mark = busy_now
        if len(self._stack) != 1:  # tolerate a mis-nested prior dispatch
            self._stack = ["device"]

    def _charge(self, busy_now: float) -> None:
        delta = busy_now - self._mark
        if delta > 0.0:
            top = self._stack[-1]
            self.segments[top] = self.segments.get(top, 0.0) + delta
        self._mark = busy_now

    def enter(self, name: str, busy_now: float) -> None:
        """Open a nested section (e.g. ``"gc"``) at ``busy_now``."""
        self._charge(busy_now)
        self._stack.append(name)

    def exit(self, busy_now: float) -> None:
        """Close the innermost section at ``busy_now``."""
        self._charge(busy_now)
        if len(self._stack) > 1:
            self._stack.pop()

    def leaf(self, name: str, amount: float) -> None:
        """Attribute ``amount`` busy-us to ``name`` out of the ambient
        section (the mark advances so the enclosing section is not
        charged twice for it)."""
        if amount > 0.0:
            self.segments[name] = self.segments.get(name, 0.0) + amount
            self._mark += amount

    def bump(self, name: str, n: float = 1) -> None:
        """Count an event into the record's ``attrs`` (fractional for
        expected-value quantities like read retries)."""
        self.counts[name] = self.counts.get(name, 0) + n

    def note_level(self, level: int) -> None:
        """Track the highest tiredness level any touched page sat at."""
        if level > self.level_max:
            self.level_max = level


class _Sampler:
    """Deterministic 1-in-``every`` sampler with a seed-derived phase."""

    __slots__ = ("every", "phase", "counter")

    def __init__(self, every: int, phase: int) -> None:
        self.every = every
        self.phase = phase
        self.counter = 0

    def sample(self) -> bool:
        hit = (self.counter + self.phase) % self.every == 0
        self.counter += 1
        return hit


class ReqTracer:
    """Collects per-request attribution records for sampled requests.

    Args:
        seed: root seed for the per-device-kind sampling phases. The
            phase is a pure function of ``(seed, key)`` — fork order
            does not matter — which is what makes artifacts identical
            across ``--jobs`` process layouts.
        every: sampling period (1 = trace every request).
        capacity: bounded record ring; the oldest records are dropped
            (and counted in :attr:`dropped`) once it fills, matching
            the :class:`repro.obs.trace.SimTimeTracer` discipline.
    """

    def __init__(self, seed: int = 0, every: int = DEFAULT_EVERY,
                 capacity: int = 65536) -> None:
        if every < 1:
            raise ConfigError(f"every must be >= 1, got {every!r}")
        if capacity < 1:
            raise ConfigError(f"capacity must be positive, got {capacity!r}")
        self.seed = int(seed)
        self.every = every
        self.capacity = capacity
        self.records: deque[dict] = deque()
        self.dropped = 0
        self.sampled = 0
        #: The context being dispatched right now (set by the queue);
        #: instrumented layers read this through their construction-time
        #: tracer binding.
        self.active: ReqContext | None = None
        self._samplers: dict[str, _Sampler] = {}

    # -- sampling ----------------------------------------------------------

    def sampler_for(self, key: str) -> _Sampler:
        """The (shared) sampler for one device kind / probe label.

        The phase comes from a *fresh* root generator so it depends
        only on ``(seed, key)``, never on how many other samplers were
        created first.
        """
        sampler = self._samplers.get(key)
        if sampler is None:
            phase_rng = fork_rng(make_rng(self.seed), "reqtrace", key)
            sampler = _Sampler(self.every,
                               int(phase_rng.integers(0, self.every)))
            self._samplers[key] = sampler
        return sampler

    def begin(self) -> ReqContext:
        """A fresh context for one sampled request."""
        self.sampled += 1
        return ReqContext()

    # -- record production --------------------------------------------------

    def finish(self, ctx: ReqContext, completion, device_kind: str,
               end_busy: float) -> dict:
        """Close ``ctx`` against its completion and append the record.

        ``end_busy`` is the chip busy ledger right after the device
        call, i.e. ``busy_before + work_us`` — residual busy time since
        the last section boundary lands in the ambient section. The
        busy-domain segments are scaled by ``service/work`` and the
        ``device`` segment is computed as the residual, so the
        segment-sum invariant holds exactly.
        """
        ctx._charge(end_busy)
        request = completion.request
        wait = completion.wait_us
        service = completion.service_us
        work = completion.work_us
        scale = service / work if work > 0.0 else 0.0
        segments: dict[str, float] = {"queue_wait": wait}
        attributed = 0.0
        for name in sorted(ctx.segments):
            if name == "device":
                continue
            scaled = ctx.segments[name] * scale
            segments[name] = scaled
            attributed += scaled
        segments["device"] = service - attributed
        attrs = dict(sorted(ctx.counts.items()))
        if ctx.level_max:
            attrs["ecc_level_max"] = ctx.level_max
        record = {
            "kind": "request",
            "name": f"io.{request.op}",
            "time": completion.submit_us,
            "end_time": completion.end_us,
            "op": request.op,
            "lba": request.lba,
            "count": request.count,
            "stream": request.stream,
            "mdisk": request.mdisk_id,
            "device_kind": device_kind,
            "tag": request.tag,
            "status": completion.status,
            # Requests behind this dispatch — always one; schema v1
            # readers expect the key.
            "merged": 1,
            "deadline_missed": completion.deadline_missed,
            "submit_us": completion.submit_us,
            "start_us": completion.start_us,
            "end_us": completion.end_us,
            "wait_us": wait,
            "service_us": service,
            "work_us": work,
            "total_us": completion.latency_us,
            "segments": segments,
            "attrs": attrs,
        }
        if len(self.records) >= self.capacity:
            self.records.popleft()
            self.dropped += 1
        self.records.append(record)
        return record

    # -- export --------------------------------------------------------------

    def header(self, meta: dict | None = None) -> dict:
        return _header(meta={"seed": self.seed, "every": self.every,
                             "sampled": self.sampled,
                             "dropped": self.dropped,
                             **(meta or {})})

    def export_jsonl(self, path: str | Path,
                     meta: dict | None = None) -> Path:
        """Write the header plus one JSON object per record."""
        return write_reqtrace(path, list(self.records),
                              header=self.header(meta))

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
        self.sampled = 0
        self.active = None


def enabled() -> bool:
    return context.current().reqtrace is not None


# -- artifact I/O ------------------------------------------------------------

def _header(meta: dict | None = None) -> dict:
    return {"kind": "header", "name": "reqtrace", "time": 0.0,
            "schema": REQTRACE_SCHEMA, "meta": meta or {}}


def write_reqtrace(path: str | Path, records: list[dict],
                   header: dict | None = None,
                   meta: dict | None = None) -> Path:
    """Write a ``repro.obs.reqtrace/v1`` JSONL artifact.

    ``records`` are request dicts (from :attr:`ReqTracer.records` or a
    merged multi-mode probe run); ``header`` overrides the default
    header (``meta`` feeds the default one).
    """
    return artifact.write_jsonl(path, [header or _header(meta), *records])


def load_reqtrace(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a reqtrace artifact; returns ``(header, request_records)``.

    Raises :class:`~repro.errors.ConfigError` on missing files, corrupt
    lines or a wrong schema tag — the CLI maps that to exit code 2.
    """
    return artifact.read_records(path, "reqtrace artifact",
                                 REQTRACE_SCHEMA, "request")


#: What a request record must hold, and what the SLO replay and the
#: trace summary read if there.
_RECORD_FIELDS = {"op": str, "device_kind": str, "total_us": float,
                  "wait_us": float, "service_us": float, "segments": dict,
                  "attrs": dict, "submit_us": float, "end_us": float,
                  "time": float}
_RECORD_OPTIONAL = {"stream": int, "deadline_missed": bool,
                    "end_time": float}


def validate_reqtrace_records(records: list[dict],
                              tolerance: float = SEGMENT_SUM_TOLERANCE,
                              ) -> None:
    """Check every record's shape and the segment-sum invariant.

    ``sum(segments.values())`` must equal ``total_us`` (= ``wait_us`` +
    ``service_us``) within ``tolerance``; the CI smoke job runs this
    over CLI-produced artifacts.
    """
    for index, record in enumerate(records):
        what = f"reqtrace record {index}"
        artifact.require(record, what, _RECORD_FIELDS,
                         optional=_RECORD_OPTIONAL)
        segments = record["segments"]
        if not segments:
            raise ConfigError(f"{what} has no segments")
        artifact.require(segments, f"{what} segments",
                         dict.fromkeys(segments, float))
        total = float(record["total_us"])
        parts = sum(float(v) for v in segments.values())
        if abs(parts - total) > tolerance * max(1.0, abs(total)):
            raise ConfigError(
                f"{what}: segments sum to {parts!r} "
                f"but total_us is {total!r}")
        decomposed = float(record["wait_us"]) + float(record["service_us"])
        if abs(decomposed - total) > tolerance * max(1.0, abs(total)):
            raise ConfigError(
                f"{what}: wait+service {decomposed!r} "
                f"!= total_us {total!r}")


__all__ = [
    "DEFAULT_EVERY",
    "REQTRACE_SCHEMA",
    "ReqContext",
    "ReqTracer",
    "enabled",
    "load_reqtrace",
    "validate_reqtrace_records",
    "write_reqtrace",
]
