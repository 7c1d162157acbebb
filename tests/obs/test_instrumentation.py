"""One instrumented path per layer: FTL/GC, salamander, diFS, fleet.

Instruments are bound at construction time, so every test constructs
its subject *inside* a ``context.scoped(metrics=..., tracer=...)``
scope; the no-op test checks
the opposite — that a run outside the scope leaves nothing behind and
produces bit-identical results. State a layer already keeps is read
into the registry at collect time, so every exported FTL, Salamander
and diFS number must equal the layer's own, at every timeseries sample
and at export, on all five device flavours run to wear-out.
"""

import numpy as np
import pytest

from repro import context
from repro.difs.cluster import Cluster, ClusterConfig
from repro.errors import ReproError
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import PowerLawRBER
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler
from repro.salamander.device import SalamanderSSD
from repro.sim.fleet import FleetConfig, simulate_fleet
from repro.ssd.ftl import PageMappedFTL
from repro.workloads.generators import stamp_payload


@pytest.fixture
def scoped_obs():
    registry, tracer = MetricsRegistry(), SimTimeTracer()
    with context.scoped(metrics=registry, tracer=tracer):
        yield registry, tracer


def _value(registry, name, **labels):
    registry.collect()
    family = registry.get(name)
    assert family is not None, f"metric {name} never registered"
    return family.labels(**labels).value


#: Every ``repro_ftl_*`` family and the ``SSDStats`` field it reads.
FTL_FIELDS = {f"repro_ftl_{field}_total": field for field in (
    "host_writes", "host_reads", "flash_writes", "gc_relocations",
    "wear_relocations", "erases", "trims", "retired_fpages",
    "lost_opages")}


@pytest.fixture
def make_flavour(make_chip, ftl_config, make_baseline, make_cvss,
                 make_salamander):
    def factory(flavour: str):
        if flavour == "ftl":
            return PageMappedFTL(make_chip(seed=3), 256, ftl_config)
        if flavour in ("shrink", "regen"):
            return make_salamander(flavour, seed=3)
        return {"baseline": make_baseline, "cvss": make_cvss}[flavour](
            seed=3)

    return factory


def _wear_out(device, on_sample, every: int = 100) -> None:
    """Random overwrites of 3/4 of the space until the device refuses,
    calling ``on_sample(t)`` every ``every`` accepted writes and once
    at the end."""
    rng = np.random.default_rng(5)
    payload = bytes(device.geometry.opage_bytes)
    writes = 0
    while writes < 200_000:
        try:
            if isinstance(device, SalamanderSSD):
                active = device.active_minidisks()
                if not active:
                    break
                mdisk = active[int(rng.integers(len(active)))]
                device.write(mdisk.mdisk_id, int(rng.integers(
                    mdisk.size_lbas * 3 // 4)), payload)
            else:
                device.write(int(rng.integers(
                    device.capacity_lbas * 3 // 4)), payload)
        except ReproError:
            break
        writes += 1
        if writes % every == 0:
            on_sample(float(writes))
    on_sample(float(writes + 1))


def _layer_state(device) -> dict:
    """What each exported sample must read: ``(metric, labels) ->
    value``, taken from the device's own stats, SMART view and tables."""
    name, stats = device.obs_name, device.stats
    state = {(metric, (("device", name),)): float(getattr(stats, field))
             for metric, field in FTL_FIELDS.items()}
    state["repro_ftl_write_amplification", (("device", name),)] = (
        stats.write_amplification)
    if isinstance(device, SalamanderSSD):
        smart = device.smart_sample()
        assert stats.retired_fpages == smart["repro_smart_retired_fpages"]
        assert stats.write_amplification == smart["repro_smart_waf"]
        table = device._table
        for metric, value in (
                ("limbo_capacity_opages", device.limbo.capacity_opages()),
                ("advertised_bytes", device.advertised_bytes),
                ("active_minidisks", len(device.active_minidisks())),
                ("draining_minidisks", len(table.draining))):
            state[f"repro_salamander_{metric}", (("device", name),)] = (
                float(value))
        counts = device.limbo.counts()
        assert sum(counts.values()) == len(device.limbo)
        for level in range(device.policy.dead_level):
            state["repro_salamander_limbo_fpages", (
                ("device", name), ("level", str(level)))] = float(
                    counts.get(level, 0))
    return state


@pytest.mark.parametrize("flavour",
                         ["ftl", "baseline", "cvss", "shrink", "regen"])
def test_exported_state_is_the_layers_own(flavour, make_flavour):
    """The three numbers that used to be pushed beside the mutation and
    drifted from it — retired fPages (the wear handlers never pushed),
    WAF (stale after the last program) and RegenS's limbo gauges
    (pushed only on lifecycle transitions) — now read the layer."""
    registry = MetricsRegistry()
    sampler = TimeseriesSampler(registry=registry, capacity=100_000)
    with context.scoped(metrics=registry, timeseries=sampler):
        device = make_flavour(flavour)
    checked = []

    def on_sample(t: float) -> None:
        sampler.sample(t)
        for (metric, labels), value in _layer_state(device).items():
            series = sampler.get_series(metric, dict(labels))
            if series is None:      # a limbo level never seen reads 0
                assert value == 0.0, (metric, labels)
                continue
            assert series.values[-1] == value, (t, metric, labels)
            checked.append(metric)

    _wear_out(device, on_sample)
    assert device.chip.retired_count() > 0, "the walk must wear it out"
    assert set(FTL_FIELDS) <= set(checked)
    for (metric, labels), value in _layer_state(device).items():
        if sampler.get_series(metric, dict(labels)) is not None:
            assert _value(registry, metric, **dict(labels)) == value


class TestFTLLayer:
    def test_host_and_flash_writes_counted(self, scoped_obs, make_baseline):
        registry, _ = scoped_obs
        ssd = make_baseline()
        device = ssd.obs_name
        for lba in range(16):
            ssd.write(lba, stamp_payload(lba, ssd.geometry.opage_bytes))
        ssd.flush()
        assert _value(registry, "repro_ftl_host_writes_total",
                      device=device) == 16.0
        assert _value(registry, "repro_ftl_flash_writes_total",
                      device=device) >= 16.0

    def test_gc_victim_picks_feed_the_histogram(self, scoped_obs,
                                                make_baseline):
        registry, _ = scoped_obs
        ssd = make_baseline()
        payload = stamp_payload(0, ssd.geometry.opage_bytes)
        lbas = ssd.n_lbas
        for round_ in range(6):  # sustained overwrites force GC
            for lba in range(int(lbas * 0.8)):
                ssd.write(lba, payload)
        picks = registry.get("repro_gc_victim_picks_total")
        assert picks is not None
        total = sum(s["value"] for s in picks.samples())
        assert total > 0
        histogram = registry.get("repro_gc_victim_valid_fraction")
        (sample,) = histogram.samples()
        assert sample["count"] == total


class TestSalamanderLayer:
    def test_lifecycle_gauges_track_device(self, scoped_obs,
                                           make_salamander):
        registry, _ = scoped_obs
        device = make_salamander()
        name = device.obs_name
        assert _value(registry, "repro_salamander_active_minidisks",
                      device=name) == len(device.active_minidisks())
        assert _value(registry, "repro_salamander_advertised_bytes",
                      device=name) == device.advertised_bytes
        assert _value(registry, "repro_salamander_limbo_capacity_opages",
                      device=name) == device.limbo.capacity_opages()

    def test_decommission_counted_by_reason(self, scoped_obs,
                                            make_salamander):
        registry, _ = scoped_obs
        device = make_salamander()
        name = device.obs_name
        before = len(device.active_minidisks())
        victim = device.active_minidisks()[0]
        device._decommission(victim, reason="test")
        assert _value(registry, "repro_salamander_decommissions_total",
                      device=name, reason="test") == 1.0
        assert _value(registry, "repro_salamander_active_minidisks",
                      device=name) == before - 1


class TestDiFSLayer:
    def _cluster(self, make_salamander):
        cluster = Cluster(ClusterConfig(replication=2, chunk_lbas=4),
                          seed=11)
        for n in range(4):
            cluster.add_node(f"n{n}")
            cluster.add_device(f"n{n}", make_salamander(seed=n + 1))
        return cluster

    def test_recovery_path_counted(self, scoped_obs, make_salamander):
        registry, _ = scoped_obs
        cluster = self._cluster(make_salamander)
        cluster.create_chunk("c0", b"data")
        volume_id = cluster.namespace["c0"].replicas[0].volume_id
        cluster.time = 3.0
        cluster.recovery.volume_failed(volume_id)
        assert _value(registry, "repro_difs_recovery_queue_depth",
                      kind="volume") == 1.0
        cluster.run_recovery()
        assert _value(registry, "repro_difs_volume_failures_total") == 1.0
        assert _value(registry, "repro_difs_chunks_recovered_total") == 1.0
        read = _value(registry, "repro_difs_recovery_bytes_total",
                      direction="read")
        written = _value(registry, "repro_difs_recovery_bytes_total",
                         direction="write")
        assert read == written == cluster.config.chunk_bytes
        assert _value(registry, "repro_difs_recovery_queue_depth",
                      kind="volume") == 0.0

    def test_recovery_spans_are_traced(self, scoped_obs, make_salamander):
        _, tracer = scoped_obs
        cluster = self._cluster(make_salamander)
        cluster.create_chunk("c0", b"data")
        volume_id = cluster.namespace["c0"].replicas[0].volume_id
        cluster.recovery.volume_failed(volume_id)
        cluster.run_recovery()
        names = {r.name for r in tracer.records()}
        assert "difs.recover_volume" in names

    def test_live_volumes_sampled_at_export(self, scoped_obs,
                                            make_salamander):
        registry, _ = scoped_obs
        cluster = self._cluster(make_salamander)
        document = registry.to_dict()
        (family,) = [f for f in document["metrics"]
                     if f["name"] == "repro_difs_live_volumes"]
        assert family["samples"][0]["value"] == cluster.live_volume_count()


class TestFleetLayer:
    CONFIG = FleetConfig(
        devices=8,
        geometry=FlashGeometry(blocks=64, fpages_per_block=32),
        dwpd=2.0, afr=0.0, horizon_days=400, step_days=20)

    def test_step_metrics_and_final_gauges(self, scoped_obs):
        registry, _ = scoped_obs
        result = simulate_fleet(self.CONFIG, "regen", seed=7)
        steps = len(result.days)
        histogram = registry.get("repro_fleet_step_duration_seconds")
        assert histogram.labels(mode="regen").count == steps
        assert _value(registry, "repro_fleet_devices_functioning",
                      mode="regen") == result.functioning[-1]
        assert _value(registry, "repro_fleet_capacity_bytes",
                      mode="regen") == result.capacity_bytes[-1]
        assert _value(registry, "repro_fleet_capacity_lost_bytes_total",
                      mode="regen") == pytest.approx(
            float(np.sum(result.capacity_lost_bytes)))

    def test_trace_is_sim_day_stamped_and_ordered(self, scoped_obs):
        _, tracer = scoped_obs
        config = FleetConfig(
            devices=8,
            geometry=FlashGeometry(blocks=64, fpages_per_block=32),
            pec_limit_l0=300, dwpd=1.0, afr=0.0,
            horizon_days=1200, step_days=20)
        simulate_fleet(config, "baseline", seed=7)
        records = tracer.records()
        deaths = [r for r in records if r.name == "fleet.device_death"]
        assert deaths, "horizon chosen to wear devices out"
        times = [r.time for r in deaths]
        assert times == sorted(times)
        assert all(0.0 <= t <= config.horizon_days for t in times)
        assert {r.attrs["cause"] for r in deaths} == {"wear"}

    def test_tracer_clock_is_handed_back(self, scoped_obs):
        # The fleet borrows the tracer's clock for the run only: later
        # spans (the probe sidecar, the next scenario stage) must read
        # the caller's clock again, not the last fleet day.
        _, tracer = scoped_obs
        tracer.set_clock(lambda: 42.0)
        config = FleetConfig(
            devices=4,
            geometry=FlashGeometry(blocks=16, fpages_per_block=16),
            horizon_days=100, step_days=20)
        simulate_fleet(config, "shrink", seed=7)
        assert tracer.now() == 42.0

        class Broken(PowerLawRBER):
            def rber(self, pec):
                raise RuntimeError("model exploded mid-walk")

        with pytest.raises(RuntimeError, match="exploded"):
            simulate_fleet(config, "shrink", seed=7,
                           rber_model=Broken(scale=1e-9, exponent=2.0))
        assert tracer.now() == 42.0


class TestDisabledPath:
    def test_disabled_run_registers_nothing(self, make_baseline):
        assert context.current().metrics is None
        ssd = make_baseline()
        ssd.write(0, stamp_payload(0, ssd.geometry.opage_bytes))
        # Built while off, it bound nothing: a registry scoped later
        # never hears from it.
        registry = MetricsRegistry()
        with context.scoped(metrics=registry):
            ssd.write(1, stamp_payload(1, ssd.geometry.opage_bytes))
        assert len(registry) == 0
        assert registry.to_dict()["metrics"] == []

    def test_instrumentation_does_not_perturb_results(self):
        config = FleetConfig(
            devices=4,
            geometry=FlashGeometry(blocks=64, fpages_per_block=32),
            dwpd=2.0, afr=0.02, horizon_days=200, step_days=20)
        plain = simulate_fleet(config, "shrink", seed=5)
        with context.scoped(metrics=MetricsRegistry(),
                            tracer=SimTimeTracer()):
            observed = simulate_fleet(config, "shrink", seed=5)
        np.testing.assert_array_equal(plain.functioning,
                                      observed.functioning)
        np.testing.assert_array_equal(plain.capacity_bytes,
                                      observed.capacity_bytes)
