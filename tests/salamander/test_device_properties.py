"""Property-based tests: Salamander device invariants under random traffic.

Hypothesis drives random write/read/trim streams (with wear arriving
naturally) and checks the device's structural invariants at every step:
Eq. 2 is never left violated, limbo pages are never in service, advertised
capacity always equals active minidisks x mSize, and surviving data is
never silently corrupted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.errors as E
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.salamander.device import SalamanderConfig, SalamanderSSD
from repro.salamander.minidisk import MinidiskStatus
from repro.ssd.ftl import FTLConfig


def build_device(mode: str, seed: int, grace: int = 0) -> SalamanderSSD:
    geometry = FlashGeometry(blocks=24, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=18)
    chip = FlashChip(geometry, rber_model=model, policy=policy,
                     seed=seed, variation_sigma=0.3)
    return SalamanderSSD(chip, SalamanderConfig(
        msize_lbas=32, mode=mode, headroom_fraction=0.25,
        grace_decommissions=grace,
        ftl=FTLConfig(overprovision=0.25, buffer_opages=8)))


def check_invariants(device: SalamanderSSD) -> None:
    # Eq. 2 is maintained (or the device is dead).
    if device.is_alive and device.active_minidisks():
        assert device.capacity_deficit() <= 0
    # Advertised capacity is an exact multiple of active minidisks.
    active = device.active_minidisks()
    assert device.advertised_lbas == len(active) * device.msize_lbas
    # Limbo pages are FREE and never hold data.
    states = device.chip.state_array()
    for fpage in list(device.limbo._level_of):
        assert states[fpage] != 1  # not WRITTEN
    # The draining FIFO only holds DRAINING minidisks, within budget.
    for mdisk_id in device._table.draining:
        assert device.minidisk(mdisk_id).status is MinidiskStatus.DRAINING
    assert len(device._table.draining) <= \
        device.salamander_config.grace_decommissions
    # Valid counts are within block capacity.
    block_slots = (device.geometry.fpages_per_block
                   * device.geometry.opages_per_fpage)
    assert all(0 <= valid <= block_slots for valid in device._valid_counts)


@pytest.mark.parametrize("mode", ["shrink", "regen"])
class TestInvariantsUnderTraffic:
    @given(seed=st.integers(0, 2**16), grace=st.sampled_from([0, 2]),
           bursts=st.integers(3, 8))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_random_traffic_preserves_invariants(self, mode, seed, grace,
                                                 bursts):
        device = build_device(mode, seed=seed % 7, grace=grace)
        rng = np.random.default_rng(seed)
        shadow: dict[tuple[int, int], bytes] = {}
        for _burst in range(bursts):
            for _ in range(400):
                active = device.active_minidisks()
                if not active:
                    return
                mdisk = active[int(rng.integers(0, len(active)))]
                lba = int(rng.integers(0, mdisk.size_lbas))
                payload = f"{mdisk.mdisk_id}:{lba}:{_burst}".encode()
                try:
                    device.write(mdisk.mdisk_id, lba, payload)
                except E.ReproError:
                    return
                shadow[(mdisk.mdisk_id, lba)] = payload
            check_invariants(device)
            # Survivor reads are never silently wrong.
            for (mdisk_id, lba), expected in list(shadow.items())[:40]:
                if not device.minidisk(mdisk_id).is_active:
                    shadow.pop((mdisk_id, lba), None)
                    continue
                try:
                    data = device.read(mdisk_id, lba)
                except E.UncorrectableError:
                    shadow.pop((mdisk_id, lba), None)
                    continue
                assert data.rstrip(b"\0") == expected
