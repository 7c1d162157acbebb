"""The per-device fleet capacity math, kept as the differential oracle.

``_DeviceState``, ``_count_below``, ``advertised_bytes`` and
``build_devices`` exactly as they stood in ``repro.sim.fleet`` before
the columnar walk replaced them (the two methods of ``FleetRules`` are
module functions here; ``self`` is the rules object): one Python object
per device holding its own sorted factor arrays, one 0-d ``model.rber``
and one to three single-needle ``searchsorted`` per call. The columnar
``FleetRules.advertised_bytes`` must return the same capacity and the
same census, bit for bit; ``test_fleet_columnar.py`` compares the two.
"""

from __future__ import annotations

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.rber import lognormal_page_variation
from repro.rng import fork_rng


class _DeviceState:
    """Sorted variation factors + wear for one simulated device."""

    def __init__(self, rng: np.random.Generator, geometry: FlashGeometry,
                 sigma: float) -> None:
        pages = lognormal_page_variation(rng, geometry.total_fpages, sigma)
        per_block = pages.reshape(geometry.blocks, geometry.fpages_per_block)
        self.sorted_pages = np.sort(pages)
        self.sorted_block_max = np.sort(per_block.max(axis=1))
        self.sorted_block_mean = np.sort(per_block.mean(axis=1))
        self.wear = 0.0
        self.alive = True


def _count_below(sorted_values: np.ndarray, threshold: float) -> int:
    return int(np.searchsorted(sorted_values, threshold, side="right"))


def advertised_bytes(self, dev: _DeviceState,
                     census: list[int] | None = None) -> float:
    """Current advertised capacity under ``mode`` at the device's wear.

    When ``census`` is given (only on timeseries sample steps) its
    slots are *overwritten* with this device's per-level alive fPage
    counts — ``census[k]`` pages at tiredness level ``k``, the last
    slot out-of-service — reusing the searchsorted results this
    function computes anyway, so SMART sampling costs ~nothing
    extra on shrink/regen and one extra page-level count on
    baseline/cvss.
    """
    config = self.config
    geometry = self.geometry
    level_rber = self.level_rber
    adv0_bytes = self.adv0_bytes
    total_pages = dev.sorted_pages.size
    rber = float(self.model.rber(dev.wear))
    if rber <= 0:
        if census is not None:
            for i in range(len(census)):
                census[i] = 0
            census[0] = total_pages
        return adv0_bytes
    per_fpage = geometry.opages_per_fpage
    if self.mode == "baseline":
        if census is not None:
            live = _count_below(dev.sorted_pages, level_rber[0] / rber)
            census[0] = live
            census[1] = total_pages - live
        weak = geometry.blocks - _count_below(
            dev.sorted_block_max, level_rber[0] / rber)
        if weak / geometry.blocks > config.brick_threshold:
            return 0.0
        return adv0_bytes
    if self.mode == "cvss":
        if census is not None:
            live = _count_below(dev.sorted_pages, level_rber[0] / rber)
            census[0] = live
            census[1] = total_pages - live
        block_factors = (dev.sorted_block_max
                         if config.cvss_rule == "first-page"
                         else dev.sorted_block_mean)
        live_blocks = _count_below(block_factors, level_rber[0] / rber)
        slots = live_blocks * geometry.fpages_per_block * per_fpage
        return slots * geometry.opage_bytes \
            / (1.0 + config.headroom_fraction)
    if self.mode == "shrink":
        live_pages = _count_below(dev.sorted_pages, level_rber[0] / rber)
        if census is not None:
            census[0] = live_pages
            census[1] = total_pages - live_pages
        return (live_pages * per_fpage * geometry.opage_bytes
                / (1.0 + config.headroom_fraction))
    # regen: pages at level k contribute (P - k) oPage slots.
    slots = 0
    alive_below = 0
    for k in range(min(config.regen_max_level,
                       self.policy.dead_level - 1) + 1):
        alive_k = _count_below(dev.sorted_pages, level_rber[k] / rber)
        if census is not None:
            census[k] = alive_k - alive_below
        slots += (per_fpage - k) * (alive_k - alive_below)
        alive_below = alive_k
    if census is not None:
        census[-1] = total_pages - alive_below
    return slots * geometry.opage_bytes \
        / (1.0 + config.headroom_fraction)


def build_devices(self, hardware_rng: np.random.Generator,
                  start: int, stop: int) -> list[_DeviceState]:
    """Walk the canonical hardware fork and build ``[start, stop)``.

    The fork walk *must* cover every device index — each
    :func:`~repro.rng.fork_rng` call advances ``hardware_rng`` — so
    a range replays the full walk (one cheap parent draw per
    device) but only pays the expensive variation draws for its own
    slice.
    """
    devices: list[_DeviceState] = []
    for i in range(self.config.devices):
        child = fork_rng(hardware_rng, i)
        if start <= i < stop:
            devices.append(_DeviceState(child, self.geometry,
                                        self.config.variation_sigma))
    return devices
