"""Instrument factories for each instrumented layer.

Two kinds; the metric catalog's ``recorded`` column (docs/
OBSERVABILITY.md) says which one records each metric:

* ``export_*`` (``export``) reads state a layer already keeps. The
  layer hands over its stats objects once, at construction, and a
  collect hook (:meth:`~repro.obs.metrics.MetricsRegistry.
  add_collect_hook`) copies them into the families whenever the
  registry is exported or sampled: nothing is pushed per operation, and
  the exported number is the layer's own by construction.
* ``*_instruments`` (``event``) returns children (or families, when
  labels vary per call site) for events no state holds, which the layer
  pushes where they happen.

Each factory reads the run context's registry (:mod:`repro.context`)
when it runs; with metrics off (``None``) an ``export_*`` factory
registers nothing and an ``*_instruments`` factory returns ``None``.
Families are (re-)registered idempotently, so layers share a family and
differ by label values; an unlabelled diFS family, or a
``device_kind`` shared by many queues, sums every layer under it.
"""

from __future__ import annotations

import itertools
import weakref
from types import SimpleNamespace
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


def _child(m, kind: str, name: str, help_text: str, unit: str,
           **labels: str):
    """The pre-labelled child of a counter or gauge family."""
    return getattr(m, kind)(name, help=help_text, unit=unit,
                            labelnames=tuple(labels)).labels(**labels)


# Per registry: the sources summed by each shared export family group.
_groups: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _first_in_group(m, group: tuple, source) -> list | None:
    """Add ``source`` to ``group`` in registry ``m``. The group's source
    list when this is its first member (the caller then adds the one
    hook that reads them all), else ``None``."""
    sources = _groups.setdefault(m, {}).setdefault(group, [])
    sources.append(source)
    return sources if len(sources) == 1 else None


def export_ftl_stats(device: str, stats) -> None:
    """Read one device's :class:`~repro.ssd.stats.SSDStats` into the
    ``repro_ftl_*`` families at collect time."""
    m = context.current().metrics
    if m is None:
        return
    counters = [
        (field, _child(m, "counter", name, help_text, unit, device=device))
        for field, name, unit, help_text in (
            ("host_writes", "repro_ftl_host_writes_total", "opages",
             "Host oPage writes accepted by the FTL"),
            ("host_reads", "repro_ftl_host_reads_total", "opages",
             "Host oPage reads served by the FTL"),
            ("flash_writes", "repro_ftl_flash_writes_total", "opages",
             "oPages programmed onto NAND (host + relocation)"),
            ("gc_relocations", "repro_ftl_gc_relocations_total", "opages",
             "Valid oPages moved by garbage collection"),
            ("wear_relocations", "repro_ftl_wear_relocations_total",
             "opages", "oPages moved off overworn pages by scrubbing"),
            ("erases", "repro_ftl_erases_total", "blocks",
             "Block erases performed"),
            ("trims", "repro_ftl_trims_total", "opages",
             "Host trims accepted"),
            ("retired_fpages", "repro_ftl_retired_fpages_total", "fpages",
             "fPages permanently taken out of service"),
            ("lost_opages", "repro_ftl_lost_opages_total", "opages",
             "oPages destroyed by uncorrectable media errors"))]
    waf = _child(m, "gauge", "repro_ftl_write_amplification",
                 "Flash writes per host write (1.0 is ideal)", "ratio",
                 device=device)

    def collect() -> None:
        for field, child in counters:
            child.value = float(getattr(stats, field))
        waf.value = stats.write_amplification

    m.add_collect_hook(collect)


def gc_instruments(policy: str) -> SimpleNamespace | None:
    """Per-policy GC victim picks and their utilisation (children)."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        picks=_child(m, "counter", "repro_gc_victim_picks_total",
                     "GC victim selections", "blocks", policy=policy),
        victim_valid_fraction=m.histogram(
            "repro_gc_victim_valid_fraction",
            help="Victim utilisation (valid/capacity) at pick time — "
                 "the direct driver of write amplification",
            unit="ratio", labelnames=("policy",),
            buckets=FRACTION_BUCKETS).labels(policy=policy),
    )


def salamander_instruments() -> SimpleNamespace | None:
    """Minidisk lifecycle events: families labelled ``(device, reason)``
    and ``(device, level)``."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        decommissions=m.counter(
            "repro_salamander_decommissions_total",
            help="mDisks decommissioned (Eq. 2 capacity pressure)",
            unit="minidisks", labelnames=("device", "reason")),
        regenerations=m.counter(
            "repro_salamander_regenerations_total",
            help="mDisks minted from revived limbo pages (RegenS)",
            unit="minidisks", labelnames=("device", "level")),
    )


def export_salamander_state(device: str, table, limbo,
                            opage_bytes: int) -> None:
    """Read a Salamander device's minidisk table and limbo ledger into
    the ``repro_salamander_*`` gauges at collect time."""
    m = context.current().metrics
    if m is None:
        return
    limbo_fpages = m.gauge(
        "repro_salamander_limbo_fpages",
        help="fPages parked in limbo, by tiredness level",
        unit="fpages", labelnames=("device", "level"))
    capacity, advertised, active, draining = (
        _child(m, "gauge", name, help_text, unit, device=device)
        for name, help_text, unit in (
            ("repro_salamander_limbo_capacity_opages",
             "Eq. 1 capacity stored in limbo", "opages"),
            ("repro_salamander_advertised_bytes",
             "Host-visible capacity across active mDisks", "bytes"),
            ("repro_salamander_active_minidisks",
             "mDisks currently in service", "minidisks"),
            ("repro_salamander_draining_minidisks",
             "mDisks in the §4.3 grace period (readable, not writable)",
             "minidisks")))
    levels: dict[int, Any] = {}     # every level seen; emptied ones read 0

    def collect() -> None:
        counts = limbo.counts()
        for level in counts.keys() - levels.keys():
            levels[level] = limbo_fpages.labels(device=device,
                                                level=str(level))
        for level, child in levels.items():
            child.value = float(counts.get(level, 0))
        capacity.value = float(limbo.capacity_opages())
        advertised.value = float(table.advertised_lbas * opage_bytes)
        active.value = float(len(table.active))
        draining.value = float(len(table.draining))

    m.add_collect_hook(collect)


def _io_histogram(m, name: str, help_text: str):
    return m.histogram(name, help=help_text, unit="us",
                       labelnames=("op", "device_kind"),
                       buckets=IO_LATENCY_US_BUCKETS)


def io_instruments() -> SimpleNamespace | None:
    """Per-request IO histograms, families labelled ``(op,
    device_kind)``; the queue caches the per-op children."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        latency=_io_histogram(
            m, "repro_io_latency_us",
            "End-to-end request latency (queue wait + measured device "
            "service time)"),
        wait=_io_histogram(
            m, "repro_io_wait_us",
            "Time a request waited for a free channel server before "
            "dispatch"),
    )


def export_queue_stats(device_kind: str, stats, window) -> None:
    """Read a queue's :class:`~repro.io.queue_stats.QueueStats` and its
    in-flight ``window`` into the ``repro_io_*`` counters and gauges at
    collect time. Errors, misses and the in-flight count sum every queue
    of ``device_kind``; the miss ratio is the newest queue's own;
    ``repro_io_requests_total`` is the ``repro_io_latency_us`` count."""
    m = context.current().metrics
    if m is None:
        return
    sources = _first_in_group(m, ("io", device_kind), (stats, window))
    if sources is None:
        return
    latency = io_instruments().latency
    requests = m.counter(
        "repro_io_requests_total",
        help="Requests dispatched through the queued IO path",
        unit="requests", labelnames=("op", "device_kind"))
    errors, misses, ratio, inflight = (
        _child(m, kind, name, help_text, unit, device_kind=device_kind)
        for kind, name, help_text, unit in (
            ("counter", "repro_io_errors_total",
             "Requests that completed with a device error", "requests"),
            ("counter", "repro_io_deadline_misses_total",
             "Completions that landed past their request deadline",
             "requests"),
            ("gauge", "repro_io_deadline_miss_ratio",
             "Deadline misses over dispatched requests (refreshed at "
             "collect time; the deadline_miss_rate SLO input)", "ratio"),
            ("gauge", "repro_io_inflight",
             "Dispatched completions not yet polled", "requests")))

    def collect() -> None:
        for (op, kind), histogram in latency._children.items():
            if kind == device_kind:
                requests.labels(op=op, device_kind=kind).value = float(
                    histogram.count)
        errors.value = float(sum(s.errors for s, _ in sources))
        misses.value = float(sum(s.deadline_misses for s, _ in sources))
        inflight.value = float(sum(len(w) for _, w in sources))
        newest = sources[-1][0]
        ratio.value = (newest.deadline_misses / newest.dispatched
                       if newest.dispatched else 0.0)

    m.add_collect_hook(collect)


def difs_instruments() -> SimpleNamespace | None:
    """Cluster-wide client chunk ops and recovery-queue dwell times."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        chunk_reads=m.counter(
            "repro_difs_chunk_reads_total",
            help="Client chunk reads", unit="chunks"),
        chunks_created=m.counter(
            "repro_difs_chunks_created_total",
            help="Chunks written with full redundancy", unit="chunks"),
        degraded_dwell=m.histogram(
            "repro_difs_degraded_dwell_time",
            help="Cluster-time a failure waited in the recovery queue "
                 "before being processed",
            unit="sim_time", labelnames=("kind",),
            buckets=DWELL_BUCKETS),
    )


def export_difs_state(stats, pending_volumes: list, pending_chunks: list,
                      index) -> None:
    """Read a cluster's :class:`~repro.difs.recovery.RecoveryStats`, its
    pending recovery queues and its :class:`~repro.difs.placement.
    VolumeIndex` (so volumes dying asynchronously are counted) into the
    diFS families at collect time, summed over every cluster in the
    registry."""
    m = context.current().metrics
    if m is None:
        return
    sources = _first_in_group(
        m, ("difs",), (stats, pending_volumes, pending_chunks, index))
    if sources is None:
        return
    moved = m.counter(
        "repro_difs_recovery_bytes_total",
        help="Recovery traffic moved (source reads + rebuilt writes)",
        unit="bytes", labelnames=("direction",))
    depth = m.gauge(
        "repro_difs_recovery_queue_depth",
        help="Pending re-replication work items",
        unit="items", labelnames=("kind",))
    counters = [
        ("volume_failures", _child(
            m, "counter", "repro_difs_volume_failures_total",
            "Failure domains (volumes/minidisks) lost", "volumes")),
        ("chunks_recovered", _child(
            m, "counter", "repro_difs_chunks_recovered_total",
            "Chunks restored to full redundancy", "chunks")),
        ("chunks_lost", _child(
            m, "counter", "repro_difs_chunks_lost_total",
            "Chunks lost beyond repair", "chunks")),
        ("bytes_read", moved.labels(direction="read")),
        ("bytes_written", moved.labels(direction="write"))]
    queued_volumes = depth.labels(kind="volume")
    queued_chunks = depth.labels(kind="chunk")
    live = _child(m, "gauge", "repro_difs_live_volumes",
                  "Volumes currently alive", "volumes")

    def collect() -> None:
        for field, child in counters:
            child.value = float(sum(getattr(s[0], field) for s in sources))
        queued_volumes.value = float(sum(len(s[1]) for s in sources))
        queued_chunks.value = float(sum(len(s[2]) for s in sources))
        live.value = float(sum(s[3].live_count() for s in sources))

    m.add_collect_hook(collect)


def fleet_instruments(mode: str) -> SimpleNamespace | None:
    """Per-mode fleet step instruments, published once per step."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        step_duration=m.histogram(
            "repro_fleet_step_duration_seconds",
            help="Wall-clock cost of one fleet simulation step",
            unit="seconds", labelnames=("mode",),
            buckets=STEP_SECONDS_BUCKETS).labels(mode=mode),
        devices_functioning=_child(
            m, "gauge", "repro_fleet_devices_functioning",
            "Devices still in service at the latest step", "devices",
            mode=mode),
        capacity_bytes=_child(
            m, "gauge", "repro_fleet_capacity_bytes",
            "Advertised fleet capacity at the latest step", "bytes",
            mode=mode),
        capacity_lost_bytes=_child(
            m, "counter", "repro_fleet_capacity_lost_bytes_total",
            "Advertised capacity shed (the diFS re-replication volume, "
            "§4.3)", "bytes", mode=mode),
        device_deaths=m.counter(
            "repro_fleet_device_deaths_total",
            help="Devices leaving service, by cause",
            unit="devices", labelnames=("mode", "cause")),
    )


def fault_instruments() -> SimpleNamespace | None:
    """Fault-injection tallies (families labelled per event)."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
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


def traffic_instruments() -> SimpleNamespace | None:
    """Traffic-engine totals, published once per run from the merged
    artifact (never on the per-request path)."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
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


def shard_instruments() -> SimpleNamespace | None:
    """Sharded-fleet wall times, recorded by the coordinator once per
    run (workers never touch them)."""
    m = context.current().metrics
    if m is None:
        return None
    return SimpleNamespace(
        tick_duration=m.histogram(
            "repro_shard_tick_seconds",
            help="Wall-clock cost of one shard's tick batch (its "
                 "device share of its group's step loop)",
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
