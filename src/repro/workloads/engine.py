"""Deterministic open-loop multi-tenant traffic engine.

This module is the heavy-traffic source of the measured IO pipeline:
many users' requests at once. It drives many *tenant* streams — each
with its own address pattern (:mod:`repro.workloads.generators` or
trace replay via :mod:`repro.workloads.traces`), its own arrival process
(:mod:`repro.workloads.arrivals`) and its own admission budget —
through the PR 5/8 :class:`repro.io.queue.DeviceQueue` path, and
records the outcome as a ``repro.workloads.engine/v1`` document (a
``traffic`` scenario of :mod:`repro.scenarios` writes it out as tables).

Tenants shard into **cells**: one device + queue per cell, serving the
tenants whose id is congruent to the cell index. A cell is a pure
function of ``(config, cell, seed)`` — the device seed and every
tenant's RNG derive from :func:`repro.rng.fork_rng` walks keyed on
stable strings, never on worker layout — so :func:`run_traffic` fans
cells out over :func:`repro.sim.parallel.parallel_map` and the merged
document is byte-identical for any ``jobs`` value.

:func:`run_cell` is a pipeline of stages over one ``_Cell`` state
object: **build** (device, any aging, queue, tenants) → **prefill** (every
tenant's span) → **calibrate** (pilot reads → service scale)
→ **window** → **report**. The window is one event heap interleaving
every tenant, each event walking **arrivals → admission → dispatch →
accounting**:

* **Open-loop** tenants pre-commit to arrival instants drawn from
  their Poisson/MMPP process; a request's latency therefore includes
  real queueing delay (the M/D/c regime the claim rows check). Their
  arrivals pass a per-tenant token bucket and a cell backlog watermark
  (``admission`` = ``shed`` / ``defer`` / ``none``); whatever is still
  deferred at the horizon is shed, so **offered == admitted + shed**
  holds exactly per tenant.
* **Closed-loop** tenants self-clock: the next request is issued only
  when the previous completion returns (plus ``think_us``). They are
  structurally exempt from admission control — self-throttling *is*
  their admission policy.

Per-tenant SLOs reuse :mod:`repro.obs.slo` verbatim (the tenant id is
the objective's ``stream`` filter), replayed per cell in completion
order. ``docs/WORKLOADS.md`` has the stage diagram, what state crosses
which stage, and the admission rules in full.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import partial

from repro import artifact
from repro.errors import ConfigError
# _build looks build_queue_device up in this module at call time, so a
# harness may rebind it here to observe the devices a run builds.
from repro.io.probe import _PROBE_ERRORS, BUILD_MODES, build_queue_device
from repro.io.queue import DeviceQueue
from repro.io.request import (
    OP_FLUSH,
    OP_NAMES,
    OP_READ,
    OP_READ_RANGE,
    OP_TRIM,
    OP_WRITE,
)
from repro.obs.analyze import interpolated_percentile
from repro.obs.slo import SLOEngine, SLOObjective
from repro.rng import DEFAULT_SEED, fork_rng, make_rng
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    DEFAULT_BURSTINESS,
    make_arrivals,
)
from repro.workloads.generators import (
    MixedGenerator,
    OpType,
    SequentialGenerator,
    UniformGenerator,
    ZipfianGenerator,
    draw_block,
    stamp_payload,
)

#: Version tag of the traffic artifact document.
ENGINE_SCHEMA = "repro.workloads.engine/v1"

#: Tenant address-pattern classes, in mix order. ``zipfian`` is the
#: 80/20 hotspot configuration (theta 0.99 concentrates ~80 % of
#: accesses on ~20 % of the span; see ``hotspot_mass``).
TENANT_CLASSES = ("sequential", "uniform", "zipfian", "mixed")

#: Admission policies (CLI ``--admission`` values).
ADMISSION_POLICIES = ("none", "shed", "defer")

#: Per-tenant request counters: tenant-row keys, summed into the
#: document's ``totals``.
_COUNTERS = ("offered", "admitted", "shed", "deferrals", "completed",
             "errors", "deadline_misses", "reads", "writes", "trims")

#: Pilot reads issued to estimate the read service time (staggered
#: offsets average over fPage alignment phases of ``read_span`` reads).
_PILOT_PROBES = 4

#: Fallback service estimate when the pilot read cannot reach flash.
_FALLBACK_SERVICE_US = 100.0

@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one traffic run (identical across cells).

    ``utilisation`` is the *per-cell* operating point: each cell's
    aggregate open-loop arrival rate is
    ``utilisation * channels / service`` with the service time measured
    by a pilot read, so the same config lands every device flavour (and
    every RegenS level) at the same relative load. Values above 1
    deliberately saturate the device — that is the admission-control
    test regime, not an error.
    """

    tenants: int = 64
    duration_us: float = 30_000.0
    arrival: str = "poisson"
    utilisation: float = 0.6
    burstiness: float = DEFAULT_BURSTINESS
    mode: str = "flat"
    level: int = 0
    cells: int = 0
    #: Minimum failure-domain shard count: the resolved cell count is
    #: raised to at least this many cells (still capped at ``tenants``),
    #: so a sharded run gets that many independent units of work for
    #: the fork pool. 0 leaves the auto-by-population tiers alone.
    #: Like ``cells``, part of the config/artifact — never ``--jobs``.
    shards: int = 0
    mix: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    read_fraction: float = 0.0
    mixed_read_fraction: float = 0.5
    zipf_theta: float = 0.99
    closed_loop_fraction: float = 0.0
    think_us: float = 0.0
    #: LBAs covered per read request. 1 is a point read; set it to the
    #: fPage width (4) to model scan-style reads whose service time
    #: inherits the RegenS ``4/(4-L)`` per-byte degradation — at level
    #: L an fPage holds ``4-L`` data oPages, so a fixed logical span
    #: touches proportionally more fPages. The traffic claim rows use
    #: this.
    read_span: int = 1
    admission: str = "defer"
    watermark: float = 24.0
    bucket_rate_factor: float = 2.0
    bucket_burst: float = 8.0
    deadline_factor: float = 4.0
    queue_depth: int = 64
    trace_text: str | None = None
    max_requests: int = 200_000
    #: FTL multi-stream write lanes per device; tenants map onto them
    #: round-robin (``tenant % host_streams``), so co-tenant write
    #: lifetimes separate at the flash level like real multi-stream
    #: SSDs. Per-tenant SLO attribution does *not* depend on this —
    #: the engine tracks tenants by id, not by device stream.
    host_streams: int = 4
    # Device geometry (see build_queue_device).
    blocks: int = 16
    fpages_per_block: int = 16
    channels: int = 2
    pec_limit: float = 60.0
    msize_lbas: int = 32
    headroom_fraction: float = 0.25
    fill_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError(
                f"tenants must be positive, got {self.tenants!r}")
        if self.duration_us <= 0:
            raise ConfigError(
                f"duration_us must be positive, got {self.duration_us!r}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"arrival must be one of {ARRIVAL_KINDS}, "
                f"got {self.arrival!r}")
        if not 0.0 < self.utilisation <= 8.0:
            raise ConfigError(
                f"utilisation must be in (0, 8], got {self.utilisation!r}")
        if self.mode not in BUILD_MODES:
            raise ConfigError(
                f"mode must be one of {BUILD_MODES}, got {self.mode!r}")
        if not 0 <= self.level <= 3:
            raise ConfigError(
                f"level must be in 0..3, got {self.level!r}")
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}")
        if self.cells < 0:
            raise ConfigError(
                f"cells must be non-negative, got {self.cells!r}")
        if self.shards < 0:
            raise ConfigError(
                f"shards must be non-negative, got {self.shards!r}")
        if len(self.mix) != len(TENANT_CLASSES):
            raise ConfigError(
                f"mix needs {len(TENANT_CLASSES)} fractions, "
                f"got {len(self.mix)}")
        if any(f < 0 for f in self.mix) or sum(self.mix) <= 0:
            raise ConfigError(f"mix fractions must be non-negative and "
                              f"sum positive, got {self.mix!r}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError(
                f"read_fraction must be in [0, 1], "
                f"got {self.read_fraction!r}")
        if not 0.0 <= self.closed_loop_fraction <= 1.0:
            raise ConfigError(
                f"closed_loop_fraction must be in [0, 1], "
                f"got {self.closed_loop_fraction!r}")
        if self.watermark <= 0:
            raise ConfigError(
                f"watermark must be positive, got {self.watermark!r}")
        if self.bucket_rate_factor <= 0 or self.bucket_burst < 1:
            raise ConfigError(
                "bucket_rate_factor must be positive and bucket_burst "
                f">= 1, got {self.bucket_rate_factor!r}/"
                f"{self.bucket_burst!r}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth!r}")
        if self.max_requests < 1:
            raise ConfigError(
                f"max_requests must be positive, got {self.max_requests!r}")
        if self.host_streams < 1:
            raise ConfigError(
                f"host_streams must be >= 1, got {self.host_streams!r}")
        if self.read_span < 1:
            raise ConfigError(
                f"read_span must be >= 1, got {self.read_span!r}")

    @property
    def cell_count(self) -> int:
        """Resolved cell count (0 = auto by tenant population).

        Depends only on the config — never on ``--jobs`` — which is
        what keeps the artifact byte-identical across worker counts.
        ``shards`` raises the resolved count to at least that many
        failure domains (capped at the tenant population: a cell with
        no tenants would be a pure-overhead device build).
        """
        if self.cells:
            base = min(self.cells, self.tenants)
        elif self.tenants < 32:
            base = 1
        elif self.tenants < 256:
            base = 2
        elif self.tenants < 1024:
            base = 4
        else:
            base = 8
        if self.shards:
            return min(max(base, self.shards), self.tenants)
        return base


def tenant_class(config: EngineConfig, tenant: int) -> str:
    """The address-pattern class of global tenant ``tenant``.

    Deterministic proportional assignment: tenant ids walk the
    cumulative mix, so a 25/25/25/25 mix over 100 tenants yields
    exactly 25 of each class, striped across cells.
    """
    if config.trace_text is not None:
        return "trace"
    total = float(sum(config.mix))
    u = (tenant + 0.5) / config.tenants
    acc = 0.0
    for name, fraction in zip(TENANT_CLASSES, config.mix):
        acc += fraction / total
        if u <= acc:
            return name
    return TENANT_CLASSES[-1]


def is_closed_loop(config: EngineConfig, tenant: int) -> bool:
    """Closed-loop tenants are the tail of the id space."""
    if config.closed_loop_fraction <= 0.0:
        return False
    return (tenant + 0.5) / config.tenants > 1.0 - config.closed_loop_fraction


def _make_generator(config: EngineConfig, klass: str, span: int, rng):
    if klass == "sequential":
        return SequentialGenerator(span)
    if klass == "uniform":
        return UniformGenerator(span, seed=fork_rng(rng, "addr"))
    if klass == "zipfian":
        return ZipfianGenerator(span, theta=config.zipf_theta,
                                seed=fork_rng(rng, "addr"))
    if klass == "mixed":
        base = UniformGenerator(span, seed=fork_rng(rng, "addr"))
        return MixedGenerator(base,
                              read_fraction=config.mixed_read_fraction,
                              seed=fork_rng(rng, "mixrng"))
    raise ConfigError(f"unknown tenant class {klass!r}")


#: Op kinds as globals: an ``OpType.X`` lookup costs ~10x a global's.
_READ, _WRITE = OpType.READ, OpType.WRITE

#: Ops a tenant pulls from its generator per refill (see ``draw_block``):
#: enough to amortise the generator's numpy draw, small enough that a
#: tenant's undrawn tail costs no memory to speak of.
_BLOCK = 64


@dataclass(slots=True, eq=False)
class _Tenant:
    """Per-tenant state inside one cell."""

    tenant: int
    klass: str
    closed_loop: bool
    base: int
    span: int
    mdisk: int | None
    #: The request stream is the FTL multi-stream *lifetime hint*
    #: (tenants share host_streams lanes round-robin); per-tenant SLO
    #: attribution uses tenant ids engine-side.
    stream: int
    ops: object = None
    arrivals: object = None
    tokens: float = 0.0
    last_refill: float = 0.0
    pending: tuple | None = None
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    deferrals: int = 0
    completed: int = 0
    errors: int = 0
    deadline_misses: int = 0
    reads: int = 0
    writes: int = 0
    trims: int = 0
    latencies: list[float] = field(default_factory=list)


def _write_share(config: EngineConfig, trace) -> float:
    """Expected write fraction of the offered mix (pacing weight)."""
    if trace is not None:
        writes = sum(1 for op in trace.operations
                     if op.op is OpType.WRITE)
        return writes / len(trace)
    total = float(sum(config.mix))
    share = 0.0
    for klass, fraction in zip(TENANT_CLASSES, config.mix):
        reads = (config.mixed_read_fraction if klass == "mixed"
                 else config.read_fraction)
        share += fraction / total * (1.0 - reads)
    return share


def _round6(value: float) -> float | None:
    """JSON-safe float: 6 decimals, infinities to None."""
    value = float(value)
    if math.isnan(value):
        raise ConfigError("traffic results must not contain NaN")
    if math.isinf(value):
        return None
    return round(value, 6)


def _percentile(values: list[float], percentile: float) -> float:
    return interpolated_percentile(sorted(values), percentile)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class _Cell:
    """One cell's state, handed from stage to stage of :func:`run_cell`.

    ``_build`` fills the first group, ``_calibrate`` the second,
    ``_open_window`` the third; the window stages mutate the third
    group and the tenants; ``_report`` only reads.
    """

    __slots__ = (
        "config", "cell", "seed", "kind", "queue", "tenants", "trace",
        "read_service_us", "write_service_us", "service_est", "cell_rate",
        "tenant_rate", "token_rate", "watermark_us", "deadline_us",
        "horizon", "heap", "push_seq", "offered", "samples",
        "max_backlog_us", "max_inflight",
    )


def run_cell(config: EngineConfig, cell: int, seed: int = DEFAULT_SEED,
             objectives: list[SLOObjective] | None = None,
             age_passes: int = 0) -> dict:
    """Simulate one cell: its device, queue and tenant subset.

    ``age_passes`` full overwrites of the device, written directly
    before any tenant is placed, wear it ahead of the window (the
    reqtrace probes use this; traffic runs leave it 0). It is an
    argument rather than a config field so the artifact's config
    record stays what it is.

    Pure function of the arguments — see the module docstring for the
    determinism contract. Returns the cell's JSON-safe result record.
    """
    state = _build(config, cell, seed, age_passes)
    _prefill(state)
    _calibrate(state)
    _open_window(state)
    _run_window(state)
    return _report(state, objectives)


# -- stage: build ------------------------------------------------------------

def _address_spaces(device, mode: str) -> list[tuple[int | None, int]]:
    """The device's live ``(mdisk, size)`` address spaces: Salamander
    devices expose minidisks, flat devices one LBA range."""
    if mode in ("shrink", "regen"):
        return [(m.mdisk_id, m.size_lbas)
                for m in device.active_minidisks()]
    return [(None, int(getattr(device, "capacity_lbas", device.n_lbas)))]


def _age(device, mode: str, passes: int) -> None:
    """Overwrite every live address ``passes`` times, directly at the
    device (no queue, nothing sampled). A device error ends the pass;
    each pass re-reads the spaces, which aging itself may shrink."""
    for _ in range(passes):
        for mdisk, span in _address_spaces(device, mode):
            try:
                for lba in range(span):
                    address = (lba,) if mdisk is None else (mdisk, lba)
                    device.write(*address, bytes([lba & 0xFF]) * 16)
            except _PROBE_ERRORS:
                break


def _build(config: EngineConfig, cell: int, seed: int,
           age_passes: int = 0) -> _Cell:
    """The cell's device (aged, if asked), queue and tenants (address
    spans, op streams)."""
    cell_count = config.cell_count
    if not 0 <= cell < cell_count:
        raise ConfigError(
            f"cell must be in [0, {cell_count}), got {cell!r}")
    state = _Cell()
    state.config, state.cell, state.seed = config, cell, seed
    device_seed = int(fork_rng(make_rng(seed), "traffic-device",
                               cell).integers(0, 2**31))
    device = build_queue_device(
        config.mode, device_seed, blocks=config.blocks,
        fpages_per_block=config.fpages_per_block,
        channels=config.channels, pec_limit=config.pec_limit,
        msize_lbas=config.msize_lbas,
        headroom_fraction=config.headroom_fraction,
        fill_fraction=config.fill_fraction, level=config.level,
        host_streams=config.host_streams)
    if age_passes:
        _age(device, config.mode, age_passes)
    state.kind = (config.mode if config.mode != "flat"
                  else f"flat-l{config.level}")
    state.queue = DeviceQueue(device, depth=config.queue_depth,
                              device_kind=state.kind)

    # Tenants partition whichever space is live *after* aging: a CVSS
    # device shrinks and minidisks are decommissioned while it ages.
    spans = _address_spaces(device, config.mode)
    if not spans:
        raise ConfigError(
            f"the {state.kind} device has no live address space left")

    state.trace = None
    if config.trace_text is not None:
        from repro.workloads.traces import Trace
        state.trace = Trace.loads(config.trace_text)
        if not len(state.trace):
            raise ConfigError("trace has no operations to replay")

    tenant_ids = [t for t in range(config.tenants)
                  if t % cell_count == cell]
    state.tenants = []
    for index, t in enumerate(tenant_ids):
        mdisk, space = spans[index % len(spans)]
        per_span = max(1, len(tenant_ids) // len(spans))
        span = max(1, space // per_span)
        base = (index // len(spans)) * span % max(1, space)
        if base + span > space:
            base = 0
        tenant = _Tenant(t, tenant_class(config, t),
                         is_closed_loop(config, t), base, span, mdisk,
                         t % config.host_streams)
        rng = fork_rng(make_rng(seed), "traffic-tenant", t)
        if state.trace is not None:
            # Cyclic replay; each tenant starts at its own offset so a
            # shared trace does not phase-lock every tenant onto the
            # same LBA at the same instant.
            replay = state.trace.operations
            at = t % len(replay)
            tenant.ops = itertools.cycle(replay[at:] + replay[:at])
        else:
            source = _make_generator(config, tenant.klass, span, rng)
            flips = config.read_fraction > 0.0 and tenant.klass != "mixed"
            # Endless: one draw_block call per _BLOCK operations.
            tenant.ops = itertools.chain.from_iterable(iter(partial(
                draw_block, source, _BLOCK,
                fork_rng(rng, "mix") if flips else None,
                config.read_fraction), None))
        state.tenants.append(tenant)
    return state


# -- stage: prefill ----------------------------------------------------------

def _prefill(state: _Cell) -> None:
    """Write every tenant's span through the queue so reads hit flash
    (probe discipline); a tenant stops at its first device error."""
    queue = state.queue
    for tenant in state.tenants:
        for lba in range(tenant.base, tenant.base + tenant.span):
            error = queue.dispatch(OP_WRITE, lba, 1,
                                   [bytes([lba & 0xFF]) * 16],
                                   tenant.mdisk)[1]
            if error is not None:
                _raise_unless_probe_error(error)
                break
    _raise_unless_probe_error(queue.dispatch(OP_FLUSH)[1])


def _raise_unless_probe_error(error: Exception | None) -> None:
    """A tired device legitimately failing a request is traffic; any
    other error is a bug and propagates, as a direct device call's
    would."""
    if error is not None and not isinstance(error, _PROBE_ERRORS):
        raise error


# -- stage: calibrate --------------------------------------------------------

def _calibrate(state: _Cell) -> None:
    """The deterministic service scale for pacing, token budgets,
    deadlines and the watermark: reads cost one sense (the pilot),
    writes amortise drain/GC (the prefill mean), blended by the offered
    mix — pacing off the read pilot alone saturates a write-heavy mix.

    The pilot probes sit at staggered offsets so span reads average
    over fPage alignment phases; one aligned probe undercosts
    ``read_span`` reads and the pacing silently saturates the cell.
    """
    config, queue = state.config, state.queue
    pilot = state.tenants[0]
    probe_services: list[float] = []
    for i in range(_PILOT_PROBES):
        offset = (i * (config.read_span + 1)) % max(1, pilot.span)
        lba = pilot.base + offset
        count = min(config.read_span, pilot.base + pilot.span - lba)
        # Stamped at 0 so the pilot leaves the device clock alone.
        _result, error, _submit, start, end, _work = queue.dispatch(
            OP_READ_RANGE if count > 1 else OP_READ, lba, count,
            mdisk_id=pilot.mdisk, at_us=0.0)
        if error is not None:
            _raise_unless_probe_error(error)
            break
        probe_services.append(end - start)
    read_service_us = _mean(probe_services)
    if read_service_us <= 0.0:
        read_service_us = _FALLBACK_SERVICE_US
    state.read_service_us = read_service_us
    state.write_service_us = max(queue.stats.mean_service_us,
                                 read_service_us)
    write_share = _write_share(config, state.trace)
    state.service_est = (write_share * state.write_service_us
                         + (1.0 - write_share) * read_service_us)
    open_loop = sum(1 for tenant in state.tenants
                    if not tenant.closed_loop)
    state.cell_rate = (config.utilisation * config.channels
                       / state.service_est)
    state.tenant_rate = state.cell_rate / max(1, open_loop)
    state.token_rate = state.tenant_rate * config.bucket_rate_factor
    state.watermark_us = config.watermark * state.service_est
    state.deadline_us = config.deadline_factor * state.service_est


# -- stage: window -----------------------------------------------------------

def _open_window(state: _Cell) -> None:
    """Arrival processes, token buckets and every tenant's first event."""
    config = state.config
    t0 = state.queue.clock_us
    state.horizon = t0 + config.duration_us
    state.heap = []
    # Ties between simultaneous events break on push order, which
    # makes the order of pushes artifact state.
    state.push_seq = itertools.count()
    state.offered = 0
    state.samples = []
    state.max_backlog_us = 0.0
    state.max_inflight = 0
    for tenant in state.tenants:
        # A fresh parent, not the one _build forked from: fork_rng
        # advances its parent, and these streams predate the split.
        rng = fork_rng(make_rng(state.seed), "traffic-tenant",
                       tenant.tenant)
        if tenant.closed_loop:
            first = t0 + float(
                fork_rng(rng, "phase").random()) * config.think_us
            heapq.heappush(state.heap, (first, next(state.push_seq), tenant))
            continue
        tenant.arrivals = make_arrivals(
            config.arrival, state.tenant_rate, fork_rng(rng, "arrivals"),
            burstiness=config.burstiness)
        tenant.tokens = config.bucket_burst
        tenant.last_refill = t0
        first = tenant.arrivals.next_after(t0)
        if first < state.horizon:
            heapq.heappush(state.heap, (first, next(state.push_seq), tenant))


def _run_window(state: _Cell) -> None:
    """The event loop: one heap interleaving every tenant, each event
    walking arrivals → admission (both inline) → dispatch → accounting.
    Sequential by construction: admission reads the backlog the previous
    dispatch left, and a closed-loop tenant's next event is its previous
    completion."""
    heap, seq, horizon = state.heap, state.push_seq, state.horizon
    pop, push = heapq.heappop, heapq.heappush
    config = state.config
    max_requests, offered = config.max_requests, state.offered
    gated, shed = config.admission != "none", config.admission == "shed"
    burst, token_rate = config.bucket_burst, state.token_rate
    watermark, service_est = state.watermark_us, state.service_est
    makespan_us = state.queue.makespan_us
    while heap:
        now_us, _seq, tenant = pop(heap)
        if tenant.closed_loop:
            # Self-clocked (issue, block, think), so exempt from admission.
            if now_us >= horizon:
                continue
            tenant.offered += 1
            offered += 1
            wake = _dispatch(state, tenant, next(tenant.ops), now_us)
            if wake < horizon and offered < max_requests:
                push(heap, (wake, next(seq), tenant))
            continue
        op = tenant.pending
        fresh = op is None
        if fresh:
            if now_us >= horizon:
                continue
            tenant.offered += 1
            offered += 1
            op = next(tenant.ops)
        else:
            tenant.pending = None
        wake = None  # admitted; else the instant to retry at (shed: inf)
        if gated:
            # Gate 1: the tenant's token bucket.
            tokens = tenant.tokens + (now_us - tenant.last_refill) * token_rate
            tokens = burst if tokens > burst else tokens
            tenant.tokens = tokens
            tenant.last_refill = now_us
            if tokens < 1.0:
                wait = (1.0 - tokens) / token_rate
                wake = (math.inf if shed
                        else now_us + (wait if wait > 1.0 else 1.0))
            else:
                # Gate 2: the backlog (the watermark is positive: no clamp).
                backlog = makespan_us() - now_us
                if backlog > watermark:
                    excess = backlog - watermark
                    wake = (math.inf if shed else now_us + (
                        excess if excess > service_est else service_est))
                else:
                    tenant.tokens = tokens - 1.0
        if wake is None:
            _dispatch(state, tenant, op, now_us)
        elif wake >= horizon:
            tenant.shed += 1  # shed now, or deferred past the horizon
        else:
            tenant.deferrals += 1
            tenant.pending = op
            push(heap, (wake, next(seq), tenant))
        if fresh and offered < max_requests:
            nxt = tenant.arrivals.next_after(now_us)
            if nxt < horizon:
                push(heap, (nxt, next(seq), tenant))
    state.offered = offered
    _drain(state)


def _dispatch(state: _Cell, tenant: _Tenant, op: tuple,
              now_us: float) -> float:
    """Dispatch: one admitted operation goes to the device queue.

    A closed-loop tenant consumes the completion now: it is accounted
    and the instant the tenant wakes is returned. An open-loop
    tenant's stays in the queue's window for :func:`_drain`.
    """
    config, queue = state.config, state.queue
    hold = not tenant.closed_loop
    kind, lba, tag = op
    absolute = tenant.base + (lba % tenant.span)
    count, payloads = 1, None
    if kind is _READ:
        tenant.reads += 1
        count = tenant.base + tenant.span - absolute
        count = config.read_span if count > config.read_span else count
        code = OP_READ_RANGE if count > 1 else OP_READ
    elif kind is _WRITE:
        tenant.writes += 1
        code = OP_WRITE
        # Generated writes carry a stamp sequence, replayed ones bytes.
        payload = stamp_payload(lba, tag) if type(tag) is int else tag
        payloads = [payload or bytes([absolute & 0xFF]) * 16]
    else:
        tenant.trims += 1
        code = OP_TRIM
    tenant.admitted += 1
    deadline = now_us + state.deadline_us
    name = OP_NAMES[code]
    _result, error, submit, start, end, _work = queue.dispatch(
        code, absolute, count, payloads, tenant.mdisk, tenant.stream,
        deadline, now_us, (tenant, name, deadline) if hold else None)
    if error is not None:
        _raise_unless_probe_error(error)
    if not hold:
        if error is not None:
            # The tenant saw the failure, not a latency: counted, no
            # sample, and it retries a service time later.
            tenant.completed += 1
            tenant.errors += 1
            return now_us + state.service_est
        _account(state, tenant, name, deadline, None, submit, start, end)
        return end + config.think_us
    backlog = queue.makespan_us() - now_us
    if backlog > state.max_backlog_us:
        state.max_backlog_us = backlog
    inflight = queue.inflight
    if inflight > state.max_inflight:
        state.max_inflight = inflight
    if inflight >= config.queue_depth:
        _drain(state)
    return end


def _drain(state: _Cell) -> None:
    """Retire the queue's window into the accounts, oldest first."""
    for ((tenant, name, deadline), _result, error, submit, start, end,
         _work) in state.queue.drain():
        _account(state, tenant, name, deadline, error, submit, start, end)


def _account(state: _Cell, tenant: _Tenant, name: str, deadline: float,
             error: Exception | None, submit: float, start: float,
             end: float) -> None:
    """Accounting: one completion lands on its tenant and the window.

    ``samples`` keeps completion-retirement order — it feeds float sums
    and the SLO replay's tie order, so it is artifact state.
    """
    tenant.completed += 1
    if error is not None:
        tenant.errors += 1
    missed = end > deadline
    if missed:
        tenant.deadline_misses += 1
    latency = end - submit
    tenant.latencies.append(latency)
    state.samples.append((end, latency, name, tenant.tenant, missed,
                          end - start))


# -- stage: report -----------------------------------------------------------

def _report(state: _Cell,
            objectives: list[SLOObjective] | None) -> dict:
    """The cell's JSON-safe result record."""
    samples = state.samples
    # Offline per-tenant SLO evaluation: replay completions in
    # completion order through a fresh engine (tenant id == stream).
    slo_report = None
    if objectives:
        slo_engine = SLOEngine(list(objectives))
        for end_us, latency_us, op, tenant_id, missed, _service in sorted(
                samples, key=lambda s: s[0]):
            slo_engine.observe(end_us=end_us, latency_us=latency_us,
                               op=op, stream=tenant_id,
                               device_kind=state.kind,
                               deadline_missed=missed)
        slo_report = slo_engine.evaluate()

    # Traffic-window aggregates. The queue's own counters also cover
    # the prefill writes and the pilot read; the claim rows need the
    # measured operating point of the traffic window alone.
    window_lat = sorted(s[1] for s in samples)
    window = {
        "requests": len(samples),
        "mean_latency_us": _round6(_mean(window_lat)),
        "p99_latency_us": _round6(_percentile(window_lat, 99.0)),
        "mean_service_us": _round6(_mean([s[5] for s in samples])),
    }

    tenant_rows = []
    for tenant in state.tenants:
        assert tenant.offered == tenant.admitted + tenant.shed, (
            f"tenant {tenant.tenant}: offered {tenant.offered} != "
            f"admitted {tenant.admitted} + shed {tenant.shed}")
        latencies = tenant.latencies
        row = {
            "tenant": tenant.tenant,
            "cell": state.cell,
            "class": tenant.klass,
            "loop": "closed" if tenant.closed_loop else "open",
            "mean_latency_us": _round6(_mean(latencies)),
            "p99_latency_us": _round6(_percentile(latencies, 99.0)),
            "max_latency_us": _round6(max(latencies, default=0.0)),
        }
        row.update((key, getattr(tenant, key)) for key in _COUNTERS)
        tenant_rows.append(row)

    stats = state.queue.stats
    return {
        "cell": state.cell,
        "device_kind": state.kind,
        "service_us": _round6(state.service_est),
        "read_service_us": _round6(state.read_service_us),
        "write_service_us": _round6(state.write_service_us),
        "arrival_per_us": _round6(state.cell_rate),
        "tenant_rate_per_us": _round6(state.tenant_rate),
        "watermark_us": _round6(state.watermark_us),
        "max_backlog_us": _round6(state.max_backlog_us),
        "max_inflight": state.max_inflight,
        "window": window,
        "queue": {
            "submitted": stats.submitted,
            "dispatched": stats.dispatched,
            "errors": stats.errors,
            "deadline_misses": stats.deadline_misses,
            "mean_latency_us": _round6(stats.mean_latency_us),
            "mean_wait_us": _round6(stats.mean_wait_us),
            "mean_service_us": _round6(stats.mean_service_us),
        },
        "slo": slo_report,
        "tenants": tenant_rows,
    }


def _cell_star(args: tuple) -> dict:
    """Worker entry point (picklable)."""
    return run_cell(*args)


def run_traffic(config: EngineConfig | None = None,
                seed: int = DEFAULT_SEED, jobs: int = 1,
                objectives: list[SLOObjective] | None = None) -> dict:
    """Run every cell (optionally in parallel) and merge the artifact.

    The returned document is the ``repro.workloads.engine/v1``
    document: byte-identical (as ``artifact.dumps`` text) for any
    ``jobs`` because cells are pure functions of
    ``(config, cell, seed)`` and the merge walks them in index order.
    """
    config = config or EngineConfig()
    from repro.sim.parallel import parallel_map
    tasks = [(config, cell, seed, objectives)
             for cell in range(config.cell_count)]
    cells = parallel_map(_cell_star, tasks, jobs=jobs)

    tenant_rows = [row for cell in cells for row in cell["tenants"]]
    tenant_rows.sort(key=lambda row: row["tenant"])
    totals = {key: sum(row[key] for row in tenant_rows)
              for key in _COUNTERS}
    by_class: dict[str, list[float]] = {}
    for row in tenant_rows:
        if row["p99_latency_us"] is not None and row["completed"]:
            by_class.setdefault(row["class"], []).append(
                row["p99_latency_us"])
    class_p99 = {klass: _round6(_percentile(values, 50.0))
                 for klass, values in sorted(by_class.items())}
    slo_section = None
    if objectives:
        slo_section = {
            "ok": all(cell["slo"]["ok"] for cell in cells
                      if cell["slo"] is not None),
            "cells": [cell["slo"] for cell in cells],
        }
    cell_records = [{key: value for key, value in cell.items()
                     if key not in ("tenants", "slo")}
                    for cell in cells]
    return {
        "schema": ENGINE_SCHEMA,
        "seed": int(seed),
        "config": _config_record(config),
        "cells": cell_records,
        "tenants": tenant_rows,
        "totals": totals,
        "median_p99_by_class_us": class_p99,
        "slo": slo_section,
    }


def _config_record(config: EngineConfig) -> dict:
    record = asdict(config)
    record["mix"] = list(config.mix)
    record["resolved_cells"] = config.cell_count
    # Trace bodies can be large; the artifact records presence + size.
    text = record.pop("trace_text")
    record["trace_ops"] = (len([line for line in text.splitlines()[1:]
                                if line.strip()])
                           if text is not None else 0)
    return record


# -- validation -------------------------------------------------------------

_DOCUMENT_FIELDS = {"config": dict, "cells": list, "tenants": list,
                    "totals": dict}
_TENANT_FIELDS = {"tenant": int, "class": str, "loop": str, "offered": int,
                  "admitted": int, "shed": int, "completed": int}


def validate_engine_document(document: dict) -> None:
    """Schema + conservation check for traffic documents.

    Beyond shape, this asserts the admission identity the property
    tests rely on: every tenant's ``offered == admitted + shed``, and
    the totals are the exact sums of the tenant rows.
    """
    artifact.require(document, "traffic document", _DOCUMENT_FIELDS,
                     schema=ENGINE_SCHEMA)
    totals = {"offered": 0, "admitted": 0, "shed": 0}
    for row in document["tenants"]:
        artifact.require(row, "tenant row", _TENANT_FIELDS)
        if row["offered"] != row["admitted"] + row["shed"]:
            raise ConfigError(
                f"tenant {row['tenant']}: offered {row['offered']} != "
                f"admitted {row['admitted']} + shed {row['shed']}")
        if row["loop"] == "closed" and row["shed"]:
            raise ConfigError(
                f"tenant {row['tenant']}: closed-loop tenants must "
                f"never be shed")
        for key in totals:
            totals[key] += row[key]
    for key, value in totals.items():
        if document["totals"].get(key) != value:
            raise ConfigError(
                f"totals[{key!r}] = {document['totals'].get(key)} does "
                f"not match the tenant-row sum {value}")


# -- obs surfacing -----------------------------------------------------------

def publish_traffic_metrics(document: dict) -> None:
    """Export a merged traffic document as ``repro_traffic_*`` metrics.

    Workers never export telemetry (parallel discipline); the parent
    calls this once over the merged document when metrics are enabled.
    """
    from repro.obs.instruments import traffic_instruments
    instr = traffic_instruments()
    if instr is None:
        return
    for outcome in ("offered", "admitted", "shed", "deferrals",
                    "completed", "errors", "deadline_misses"):
        instr.requests.labels(outcome=outcome).inc(
            float(document["totals"][outcome]))
    for klass, p99 in (document.get("median_p99_by_class_us")
                       or {}).items():
        if p99 is not None:
            instr.p99_latency.labels(tenant_class=klass).set(p99)
    backlog = max((cell.get("max_backlog_us") or 0.0
                   for cell in document["cells"]), default=0.0)
    instr.max_backlog.set(backlog)
    instr.tenants.set(float(len(document["tenants"])))


__all__ = [
    "ADMISSION_POLICIES",
    "ENGINE_SCHEMA",
    "TENANT_CLASSES",
    "EngineConfig",
    "is_closed_loop",
    "publish_traffic_metrics",
    "run_cell",
    "run_traffic",
    "tenant_class",
    "validate_engine_document",
]
