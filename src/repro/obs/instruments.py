"""Pre-bound instrument bundles for each instrumented layer.

Instrumented subsystems call these factories once at construction and
keep the returned bundle; each field is a metric child (or family,
when further labels vary per call site) of the run context's registry
(:mod:`repro.context`), read when the factory runs. With observability
disabled the bundles are built from the no-op singletons, so the
per-operation cost is a no-op method call.

Families are (re-)registered idempotently on every call, so multiple
devices/clusters share one family and differ only by their label
values. The full catalog (names, labels, units, semantics) is
documented in docs/OBSERVABILITY.md; that document is the contract —
rename a metric here and the docs, CI smoke check, and dashboards must
move with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro import context

_device_ids = itertools.count()


def next_device_name() -> str:
    """Process-unique default device label (``dev0``, ``dev1``, ...)."""
    return f"dev{next(_device_ids)}"


# Fraction-shaped buckets for ratios in [0, 1].
FRACTION_BUCKETS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                    0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0)

# Wall-clock seconds for per-step compute cost (fast python loops).
STEP_SECONDS_BUCKETS = (1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
                        1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
                        0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

# Sim-time dwell buckets (logical ticks / days; wide dynamic range).
DWELL_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                 250.0, 500.0, 1000.0, 2500.0, 5000.0)

# Device-time microseconds for IO request latency: reads sit around the
# sense latency (~60-500 us with retries), writes are usually ~0 (NVRAM
# hit) but tail into tens of milliseconds when a drain triggers a GC
# pass, and recovery chunk ops span whole-chunk transfers.
IO_LATENCY_US_BUCKETS = (
    0.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0, 10000.0, 25000.0, 50000.0, 100000.0, 250000.0,
    500000.0, 1000000.0)


@dataclass(frozen=True)
class FTLInstruments:
    """Per-device FTL/GC hot-path instruments (children, pre-labelled)."""

    device: str
    host_writes: Any
    host_reads: Any
    flash_writes: Any
    gc_relocations: Any
    wear_relocations: Any
    erases: Any
    trims: Any
    retired_fpages: Any
    lost_opages: Any
    write_amplification: Any


def ftl_instruments(device: str) -> FTLInstruments:
    m = context.current().metrics

    def counter(name: str, help_text: str, unit: str = "opages"):
        return m.counter(name, help=help_text, unit=unit,
                         labelnames=("device",)).labels(device=device)

    return FTLInstruments(
        device=device,
        host_writes=counter(
            "repro_ftl_host_writes_total",
            "Host oPage writes accepted by the FTL"),
        host_reads=counter(
            "repro_ftl_host_reads_total",
            "Host oPage reads served by the FTL"),
        flash_writes=counter(
            "repro_ftl_flash_writes_total",
            "oPages programmed onto NAND (host + relocation)"),
        gc_relocations=counter(
            "repro_ftl_gc_relocations_total",
            "Valid oPages moved by garbage collection"),
        wear_relocations=counter(
            "repro_ftl_wear_relocations_total",
            "oPages moved off overworn pages by scrubbing"),
        erases=counter(
            "repro_ftl_erases_total",
            "Block erases performed", unit="blocks"),
        trims=counter(
            "repro_ftl_trims_total",
            "Host trims accepted"),
        retired_fpages=counter(
            "repro_ftl_retired_fpages_total",
            "fPages permanently taken out of service", unit="fpages"),
        lost_opages=counter(
            "repro_ftl_lost_opages_total",
            "oPages destroyed by uncorrectable media errors"),
        write_amplification=m.gauge(
            "repro_ftl_write_amplification",
            help="Flash writes per host write (1.0 is ideal)",
            unit="ratio", labelnames=("device",)).labels(device=device),
    )


@dataclass(frozen=True)
class GCInstruments:
    """Per-policy GC victim-selection instruments."""

    picks: Any
    victim_valid_fraction: Any


def gc_instruments(policy: str) -> GCInstruments:
    m = context.current().metrics
    return GCInstruments(
        picks=m.counter(
            "repro_gc_victim_picks_total",
            help="GC victim selections", unit="blocks",
            labelnames=("policy",)).labels(policy=policy),
        victim_valid_fraction=m.histogram(
            "repro_gc_victim_valid_fraction",
            help="Victim utilisation (valid/capacity) at pick time — "
                 "the direct driver of write amplification",
            unit="ratio", labelnames=("policy",),
            buckets=FRACTION_BUCKETS).labels(policy=policy),
    )


@dataclass(frozen=True)
class SalamanderInstruments:
    """Per-device minidisk lifecycle instruments.

    ``decommissions`` and ``regenerations``/``limbo_fpages`` are
    families (labelled further by reason / tiredness level per event).
    """

    device: str
    decommissions: Any      # family; labels (device, reason)
    regenerations: Any      # family; labels (device, level)
    limbo_fpages: Any       # family; labels (device, level)
    limbo_capacity_opages: Any
    advertised_bytes: Any
    active_minidisks: Any
    draining_minidisks: Any


def salamander_instruments(device: str) -> SalamanderInstruments:
    m = context.current().metrics
    return SalamanderInstruments(
        device=device,
        decommissions=m.counter(
            "repro_salamander_decommissions_total",
            help="mDisks decommissioned (Eq. 2 capacity pressure)",
            unit="minidisks", labelnames=("device", "reason")),
        regenerations=m.counter(
            "repro_salamander_regenerations_total",
            help="mDisks minted from revived limbo pages (RegenS)",
            unit="minidisks", labelnames=("device", "level")),
        limbo_fpages=m.gauge(
            "repro_salamander_limbo_fpages",
            help="fPages parked in limbo, by tiredness level",
            unit="fpages", labelnames=("device", "level")),
        limbo_capacity_opages=m.gauge(
            "repro_salamander_limbo_capacity_opages",
            help="Eq. 1 capacity stored in limbo",
            unit="opages", labelnames=("device",)).labels(device=device),
        advertised_bytes=m.gauge(
            "repro_salamander_advertised_bytes",
            help="Host-visible capacity across active mDisks",
            unit="bytes", labelnames=("device",)).labels(device=device),
        active_minidisks=m.gauge(
            "repro_salamander_active_minidisks",
            help="mDisks currently in service",
            unit="minidisks", labelnames=("device",)).labels(device=device),
        draining_minidisks=m.gauge(
            "repro_salamander_draining_minidisks",
            help="mDisks in the §4.3 grace period (readable, not writable)",
            unit="minidisks", labelnames=("device",)).labels(device=device),
    )


@dataclass(frozen=True)
class IOInstruments:
    """Per-device-kind IO pipeline instruments (repro.io).

    ``latency``/``wait``/``requests`` are families further labelled by
    ``op`` per request; the queue caches the per-op children.
    """

    device_kind: str
    latency: Any         # family; labels (op, device_kind)
    wait: Any            # family; labels (op, device_kind)
    requests: Any        # family; labels (op, device_kind)
    errors: Any          # child, pre-labelled (device_kind,)
    deadline_misses: Any  # child, pre-labelled (device_kind,)
    deadline_miss_ratio: Any  # child, pre-labelled (device_kind,)
    inflight: Any        # child, pre-labelled (device_kind,)


def io_instruments(device_kind: str) -> IOInstruments:
    m = context.current().metrics
    return IOInstruments(
        device_kind=device_kind,
        latency=m.histogram(
            "repro_io_latency_us",
            help="End-to-end request latency (queue wait + measured "
                 "device service time)",
            unit="us", labelnames=("op", "device_kind"),
            buckets=IO_LATENCY_US_BUCKETS),
        wait=m.histogram(
            "repro_io_wait_us",
            help="Time a request waited for a free channel server "
                 "before dispatch",
            unit="us", labelnames=("op", "device_kind"),
            buckets=IO_LATENCY_US_BUCKETS),
        requests=m.counter(
            "repro_io_requests_total",
            help="Requests dispatched through the queued IO path",
            unit="requests", labelnames=("op", "device_kind")),
        errors=m.counter(
            "repro_io_errors_total",
            help="Requests that completed with a device error",
            unit="requests",
            labelnames=("device_kind",)).labels(device_kind=device_kind),
        deadline_misses=m.counter(
            "repro_io_deadline_misses_total",
            help="Completions that landed past their request deadline",
            unit="requests",
            labelnames=("device_kind",)).labels(device_kind=device_kind),
        deadline_miss_ratio=m.gauge(
            "repro_io_deadline_miss_ratio",
            help="Deadline misses over dispatched requests (refreshed "
                 "at collect time; the deadline_miss_rate SLO input)",
            unit="ratio",
            labelnames=("device_kind",)).labels(device_kind=device_kind),
        inflight=m.gauge(
            "repro_io_inflight",
            help="Dispatched completions not yet polled",
            unit="requests",
            labelnames=("device_kind",)).labels(device_kind=device_kind),
    )


@dataclass(frozen=True)
class WearInstruments:
    """Per-device wear-provenance instruments (repro.obs.endurance).

    The cause-labelled families are kept as families (one child per
    cause) because publication walks the whole :data:`CAUSES`
    vocabulary at export time; the ledger's hot path never touches
    these — see :func:`repro.obs.endurance.publish_wear_metrics`.
    """

    device: str
    programs_family: Any        # family; labels (device, cause)
    program_opages_family: Any  # family; labels (device, cause)
    erases_family: Any          # family; labels (device, cause)
    waf: Any                    # child, pre-labelled (device,)
    mean_pec: Any               # child, pre-labelled (device,)
    max_pec: Any                # child, pre-labelled (device,)
    eta_host_opages: Any        # child, pre-labelled (device,)

    def programs(self, cause: str) -> Any:
        return self.programs_family.labels(device=self.device, cause=cause)

    def program_opages(self, cause: str) -> Any:
        return self.program_opages_family.labels(device=self.device,
                                                 cause=cause)

    def erases(self, cause: str) -> Any:
        return self.erases_family.labels(device=self.device, cause=cause)


def wear_instruments(device: str) -> WearInstruments:
    m = context.current().metrics

    def gauge(name: str, help_text: str, unit: str):
        return m.gauge(name, help=help_text, unit=unit,
                       labelnames=("device",)).labels(device=device)

    return WearInstruments(
        device=device,
        programs_family=m.counter(
            "repro_wear_programs_total",
            help="fPage programs at the chip boundary, by wear cause",
            unit="fpages", labelnames=("device", "cause")),
        program_opages_family=m.counter(
            "repro_wear_program_opages_total",
            help="Data oPages programmed at the chip boundary, by wear "
                 "cause (the WAF decomposition terms)",
            unit="opages", labelnames=("device", "cause")),
        erases_family=m.counter(
            "repro_wear_erases_total",
            help="Block erases at the chip boundary, by wear cause",
            unit="blocks", labelnames=("device", "cause")),
        waf=gauge(
            "repro_wear_waf",
            "Measured write amplification: 1 + overhead/host oPages",
            "ratio"),
        mean_pec=gauge(
            "repro_wear_mean_pec",
            "Mean per-block erase count seen by the wear ledger",
            "cycles"),
        max_pec=gauge(
            "repro_wear_max_pec",
            "Worst-block erase count seen by the wear ledger",
            "cycles"),
        eta_host_opages=gauge(
            "repro_wear_eta_host_opages",
            "Forecast host oPages absorbable before mean PEC reaches "
            "the device limit (burn-rate slope over the snapshot "
            "window)",
            "opages"),
    )


@dataclass(frozen=True)
class DiFSInstruments:
    """Cluster-wide recovery-path instruments."""

    recovery_bytes: Any        # family; labels (direction,)
    volume_failures: Any
    chunks_recovered: Any
    chunks_lost: Any
    chunk_reads: Any
    chunks_created: Any
    queue_depth: Any           # family; labels (kind,)
    degraded_dwell: Any        # family; labels (kind,)
    live_volumes: Any


def difs_instruments() -> DiFSInstruments:
    m = context.current().metrics
    return DiFSInstruments(
        recovery_bytes=m.counter(
            "repro_difs_recovery_bytes_total",
            help="Recovery traffic moved (source reads + rebuilt writes)",
            unit="bytes", labelnames=("direction",)),
        volume_failures=m.counter(
            "repro_difs_volume_failures_total",
            help="Failure domains (volumes/minidisks) lost",
            unit="volumes"),
        chunks_recovered=m.counter(
            "repro_difs_chunks_recovered_total",
            help="Chunks restored to full redundancy", unit="chunks"),
        chunks_lost=m.counter(
            "repro_difs_chunks_lost_total",
            help="Chunks lost beyond repair", unit="chunks"),
        chunk_reads=m.counter(
            "repro_difs_chunk_reads_total",
            help="Client chunk reads", unit="chunks"),
        chunks_created=m.counter(
            "repro_difs_chunks_created_total",
            help="Chunks written with full redundancy", unit="chunks"),
        queue_depth=m.gauge(
            "repro_difs_recovery_queue_depth",
            help="Pending re-replication work items",
            unit="items", labelnames=("kind",)),
        degraded_dwell=m.histogram(
            "repro_difs_degraded_dwell_time",
            help="Cluster-time a failure waited in the recovery queue "
                 "before being processed",
            unit="sim_time", labelnames=("kind",),
            buckets=DWELL_BUCKETS),
        live_volumes=m.gauge(
            "repro_difs_live_volumes",
            help="Volumes currently alive", unit="volumes"),
    )


@dataclass(frozen=True)
class FleetInstruments:
    """Per-mode fleet simulation instruments (children, pre-labelled)."""

    step_duration: Any
    devices_functioning: Any
    capacity_bytes: Any
    capacity_lost_bytes: Any
    device_deaths: Any  # family; labels (mode, cause)
    mode: str


def fleet_instruments(mode: str) -> FleetInstruments:
    m = context.current().metrics
    return FleetInstruments(
        mode=mode,
        step_duration=m.histogram(
            "repro_fleet_step_duration_seconds",
            help="Wall-clock cost of one fleet simulation step",
            unit="seconds", labelnames=("mode",),
            buckets=STEP_SECONDS_BUCKETS).labels(mode=mode),
        devices_functioning=m.gauge(
            "repro_fleet_devices_functioning",
            help="Devices still in service at the latest step",
            unit="devices", labelnames=("mode",)).labels(mode=mode),
        capacity_bytes=m.gauge(
            "repro_fleet_capacity_bytes",
            help="Advertised fleet capacity at the latest step",
            unit="bytes", labelnames=("mode",)).labels(mode=mode),
        capacity_lost_bytes=m.counter(
            "repro_fleet_capacity_lost_bytes_total",
            help="Advertised capacity shed (the diFS re-replication "
                 "volume, §4.3)",
            unit="bytes", labelnames=("mode",)).labels(mode=mode),
        device_deaths=m.counter(
            "repro_fleet_device_deaths_total",
            help="Devices leaving service, by cause",
            unit="devices", labelnames=("mode", "cause")),
    )


@dataclass(frozen=True)
class FaultInstruments:
    """Fault-injection instruments (families; labelled per event)."""

    injected: Any   # family; labels (site, fault)
    crashes: Any    # family; labels (site,)
    degraded: Any   # family; labels (action,)


def fault_instruments() -> FaultInstruments:
    m = context.current().metrics
    return FaultInstruments(
        injected=m.counter(
            "repro_faults_injected_total",
            help="Faults injected by the active fault plan",
            unit="faults", labelnames=("site", "fault")),
        crashes=m.counter(
            "repro_faults_crashes_total",
            help="Injected power losses / controller crashes",
            unit="crashes", labelnames=("site",)),
        degraded=m.counter(
            "repro_faults_degraded_total",
            help="Graceful-degradation actions taken in response to "
                 "injected faults",
            unit="actions", labelnames=("action",)),
    )


@dataclass(frozen=True)
class TrafficInstruments:
    """Traffic-engine instruments (repro.workloads.engine).

    ``requests`` and ``p99_latency`` are families (labelled per
    admission outcome / tenant class at publish time); the rest are
    plain children. Published once per run from the merged artifact —
    not on the per-request hot path.
    """

    requests: Any      # family; labels (outcome,)
    p99_latency: Any   # family; labels (tenant_class,)
    max_backlog: Any
    tenants: Any


def traffic_instruments() -> TrafficInstruments:
    m = context.current().metrics
    return TrafficInstruments(
        requests=m.counter(
            "repro_traffic_requests_total",
            help="Traffic-engine requests by admission outcome "
                 "(admitted / shed / deferred)",
            unit="requests", labelnames=("outcome",)),
        p99_latency=m.gauge(
            "repro_traffic_p99_latency_us",
            help="Median per-tenant p99 latency of the run, by tenant "
                 "class",
            unit="us", labelnames=("tenant_class",)),
        max_backlog=m.gauge(
            "repro_traffic_max_backlog_us",
            help="Worst device-time backlog any cell accumulated",
            unit="us"),
        tenants=m.gauge(
            "repro_traffic_tenants",
            help="Tenant streams the run simulated",
            unit="tenants"),
    )


@dataclass(frozen=True)
class ShardInstruments:
    """Sharded fleet instruments (repro.sim.shard).

    ``tick_duration`` and ``shard_devices`` are families labelled per
    shard index at publish time; ``merge_duration`` is a plain child.
    Workers never touch these — the coordinator records per-shard wall
    times from the assembled steps, once per run, never on the
    per-device hot path.
    """

    tick_duration: Any   # family; labels (shard,)
    merge_duration: Any
    shard_devices: Any   # family; labels (shard,)


def shard_instruments() -> ShardInstruments:
    m = context.current().metrics
    return ShardInstruments(
        tick_duration=m.histogram(
            "repro_shard_tick_seconds",
            help="Wall-clock cost of one shard's tick batch (a fleet "
                 "shard's whole step loop)",
            unit="seconds", labelnames=("shard",),
            buckets=STEP_SECONDS_BUCKETS),
        merge_duration=m.histogram(
            "repro_shard_merge_seconds",
            help="Wall-clock cost of the coordinator's canonical "
                 "shard-major merge",
            unit="seconds", buckets=STEP_SECONDS_BUCKETS),
        shard_devices=m.gauge(
            "repro_shard_devices",
            help="Devices assigned to each failure-domain shard",
            unit="devices", labelnames=("shard",)),
    )
