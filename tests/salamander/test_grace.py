"""Tests for the §4.3 decommissioning grace period (paper future work)."""

import numpy as np
import pytest

from repro.errors import ConfigError, MinidiskDecommissionedError, ReproError
from repro.salamander.device import SalamanderConfig
from repro.salamander.minidisk import MinidiskStatus


@pytest.fixture
def make_grace_device(make_chip, ftl_config):
    from repro.salamander.device import SalamanderSSD

    def factory(grace: int = 2, mode: str = "regen", seed: int = 1):
        config = SalamanderConfig(
            msize_lbas=32, mode=mode, headroom_fraction=0.25,
            grace_decommissions=grace, ftl=ftl_config)
        return SalamanderSSD(make_chip(seed=seed), config)

    return factory


class TestDrainingState:
    def test_decommission_enters_draining(self, make_grace_device):
        device = make_grace_device()
        device.write(0, 0, b"precious")
        device._decommission(device.minidisks[0], reason="test")
        mdisk = device.minidisk(0)
        assert mdisk.status is MinidiskStatus.DRAINING
        assert not mdisk.is_active
        assert mdisk.is_readable

    def test_draining_minidisk_still_readable(self, make_grace_device):
        device = make_grace_device()
        device.write(0, 0, b"precious")
        device._decommission(device.minidisks[0], reason="test")
        assert device.read(0, 0).rstrip(b"\0") == b"precious"

    def test_draining_minidisk_rejects_writes(self, make_grace_device):
        device = make_grace_device()
        device._decommission(device.minidisks[0], reason="test")
        with pytest.raises(MinidiskDecommissionedError):
            device.write(0, 0, b"x")

    def test_release_drops_data(self, make_grace_device):
        device = make_grace_device()
        device.write(0, 0, b"precious")
        device._decommission(device.minidisks[0], reason="test")
        device.release_minidisk(0)
        assert device.minidisk(0).status is MinidiskStatus.DECOMMISSIONED
        with pytest.raises(MinidiskDecommissionedError):
            device.read(0, 0)

    def test_release_requires_draining(self, make_grace_device):
        device = make_grace_device()
        with pytest.raises(ConfigError):
            device.release_minidisk(0)  # still active

    def test_grace_budget_force_releases_oldest(self, make_grace_device):
        device = make_grace_device(grace=2)
        for mdisk_id in (0, 1, 2):
            device._decommission(device.minidisks[mdisk_id], reason="test")
        # Budget is 2: the oldest (0) was force-released.
        assert device.minidisk(0).status is MinidiskStatus.DECOMMISSIONED
        assert device.minidisk(1).status is MinidiskStatus.DRAINING
        assert device.minidisk(2).status is MinidiskStatus.DRAINING

    def test_grace_zero_is_immediate(self, make_grace_device):
        device = make_grace_device(grace=0)
        device.write(0, 0, b"x")
        device._decommission(device.minidisks[0], reason="test")
        assert device.minidisk(0).status is MinidiskStatus.DECOMMISSIONED

    def test_advertised_excludes_draining(self, make_grace_device):
        device = make_grace_device()
        before = device.advertised_lbas
        device._decommission(device.minidisks[0], reason="test")
        assert device.advertised_lbas == before - device.msize_lbas

    def test_draining_data_counts_as_physical_pressure(self,
                                                       make_grace_device):
        device = make_grace_device()
        for lba in range(device.msize_lbas):
            device.write(0, lba, b"x")
        device.flush()
        without = device.needed_opage_slots()
        device._decommission(device.minidisks[0], reason="test")
        with_draining = device.needed_opage_slots()
        # Advertised dropped by msize*(1+hf) worth but draining data adds
        # back its live footprint.
        assert with_draining > without - int(device.msize_lbas * 1.25)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SalamanderConfig(grace_decommissions=-1)


class TestGraceUnderWear:
    def test_wear_driven_grace_eventually_releases(self, make_grace_device):
        device = make_grace_device(grace=2)
        rng = np.random.default_rng(0)
        try:
            for _ in range(60_000):
                active = device.active_minidisks()
                if not active:
                    break
                mdisk = active[int(rng.integers(0, len(active)))]
                device.write(mdisk.mdisk_id,
                             int(rng.integers(0, mdisk.size_lbas // 2)),
                             b"x")
        except ReproError:
            pass
        assert device.stats.decommissioned_minidisks > 0
        # The draining set never exceeds the grace budget.
        assert len(device._table.draining) <= 2
