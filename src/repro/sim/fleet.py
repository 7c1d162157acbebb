"""Vectorised fleet lifecycle simulation (paper Fig. 3a/3b).

Simulates a batch of SSDs deployed together and worn by a DWPD write
schedule over years, for each device discipline:

* ``"baseline"`` — full capacity until grown-bad blocks (first worn page
  per block) exceed the brick threshold, then instant total failure;
* ``"cvss"`` — block-granular shrinking keyed on block-*average* wear,
  bounded by host free space (``host_utilization``);
* ``"shrink"`` — ShrinkS: page-granular retirement, graceful shrinking;
* ``"regen"`` — RegenS: worn pages re-qualify at higher tiredness levels up
  to ``regen_max_level`` before retiring.

The trick that makes year-scale fleets cheap: per-page process variation is
a multiplicative factor ``s`` on the RBER curve, so at device wear ``w`` a
page is usable at tiredness level ``k`` iff ``s * rber(w) <= max_rber(k)``.
Sorting each device's page factors once turns every per-step census into a
count of factors under a threshold. Block-level rules (baseline min / CVSS
mean) reduce the same way over per-block max/mean factors. The *same
variation draws* are shared across disciplines, so curves differ only by
policy.

The state is columnar (:class:`_FleetColumns`): one wear vector per
device range over the fleet's *hardware*, three row-sorted factor
matrices with a row per device, drawn once per ``(seed, devices,
geometry, variation_sigma)`` (:func:`fleet_hardware`) and read by every
discipline and range. A step
is a fixed number of array operations over the rows still alive — one
``model.rber`` call, one batched count per matrix (:class:`_BandedRows`:
one ``searchsorted`` when the matrix fits in cache; beyond it, none for
rows whose every page still qualifies and a coarse index first for the
rest), capacity and burn as vectors — so its cost is a constant (tens of
microseconds of numpy dispatch) plus a per-device term far below a Python
loop's. There is no scalar per-device path: a fleet under ~16 devices
pays the constant for little, which is accepted
(docs/PERFORMANCE.md, "Kernels and their twins").

Wear advances under perfect wear leveling: writing ``bytes`` of host data
with write amplification ``waf`` onto ``live_raw_bytes`` of in-service
flash adds ``bytes * waf / live_raw_bytes`` P/E cycles — so shrunken
devices wear *faster* per host byte, a feedback the curves include.

There is one step loop, :func:`walk_shard` over a contiguous device
range cut into shards, and one place that turns its per-shard partials
into a :class:`FleetResult` and telemetry, :func:`assemble_fleet`.
:func:`simulate_fleet` is the one-shard layout walked in this process;
:func:`repro.sim.shard.simulate_fleet_sharded` partitions the fleet and
fans the same walk out over a fork pool, one range of shards per worker
(docs/SHARDING.md).
"""

from __future__ import annotations

import time as _time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro import context
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.obs.instruments import fleet_instruments
from repro.obs.smart import smart_field
from repro.flash.geometry import FlashGeometry
from repro.flash.rber import RBERModel, lognormal_page_variation
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.rng import DEFAULT_SEED, fork_rng, make_rng

MODES = ("baseline", "cvss", "shrink", "regen")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet experiment parameters.

    Attributes:
        devices: batch size.
        geometry: per-device flash layout (sets the variance structure; the
            default is a scaled-down device so draws stay cheap).
        pec_limit_l0: rated endurance of a median page at the default ECC.
        variation_sigma: lognormal sigma of page-to-page RBER variation.
        dwpd: mean drive writes per day against the *original* capacity.
        dwpd_cv: device-to-device load spread (coefficient of variation of
            a lognormal per-device multiplier). Real fleets never load
            every drive identically; 0 gives the paper's idealised
            homogeneous batch with cliff-shaped curves.
        write_amplification: assumed FTL WAF (measured ~1.2-4 in the
            functional simulator depending on utilisation).
        afr: annual rate of wear-unrelated failures (controller death etc.),
            applied to every discipline alike.
        horizon_days / step_days: simulated span and resolution.
        headroom_fraction: over-provisioning kept out of advertised space.
        brick_threshold: baseline bad-block fraction at end of life.
        host_utilization: fraction of capacity holding live data; the CVSS
            death bound (it cannot shrink below its live data).
        min_capacity_fraction: Salamander replacement floor.
        regen_max_level: RegenS page-reuse ceiling (paper recommends 1).
        shards: failure-domain shards the sharded runner
            (:func:`repro.sim.shard.simulate_fleet_sharded`) partitions
            the devices into; the ``fleet`` scenario kind and the sweep
            runner go through it. Part of the config — and therefore of
            the artifact — because the float merge order is a function
            of the shard layout (see docs/SHARDING.md). A library call
            of :func:`simulate_fleet` ignores it and walks one shard.
        cvss_rule: when a CVSS block retires — ``"first-page"`` (as soon as
            its weakest page outgrows the ECC; reliability-preserving, the
            conservative reading behind the paper's "ShrinkS is at least as
            good as CVSS") or ``"avg-rber"`` (the literal block-average
            trigger, which silently keeps already-unreliable weak pages in
            service; the functional simulator shows the data-loss cost).
    """

    devices: int = 64
    geometry: FlashGeometry = field(
        default_factory=lambda: FlashGeometry(blocks=256,
                                              fpages_per_block=64))
    pec_limit_l0: float = 3000.0
    variation_sigma: float = 0.35
    dwpd: float = 1.0
    dwpd_cv: float = 0.25
    write_amplification: float = 2.0
    afr: float = 0.01
    horizon_days: int = 3650
    step_days: int = 5
    headroom_fraction: float = 0.07
    brick_threshold: float = 0.025
    host_utilization: float = 0.5
    min_capacity_fraction: float = 0.2
    regen_max_level: int = 1
    shards: int = 1
    cvss_rule: str = "first-page"

    def __post_init__(self) -> None:
        if self.cvss_rule not in ("first-page", "avg-rber"):
            raise ConfigError(
                f"cvss_rule must be 'first-page' or 'avg-rber', "
                f"got {self.cvss_rule!r}")
        if self.devices <= 0:
            raise ConfigError(f"devices must be positive, got {self.devices!r}")
        if self.pec_limit_l0 <= 0:
            raise ConfigError(
                f"pec_limit_l0 must be positive, got {self.pec_limit_l0!r}")
        if self.dwpd <= 0:
            raise ConfigError(f"dwpd must be positive, got {self.dwpd!r}")
        if self.dwpd_cv < 0:
            raise ConfigError(
                f"dwpd_cv must be non-negative, got {self.dwpd_cv!r}")
        if self.write_amplification < 1:
            raise ConfigError(
                f"write_amplification must be >= 1, "
                f"got {self.write_amplification!r}")
        if not 0 <= self.afr < 1:
            raise ConfigError(f"afr must be in [0, 1), got {self.afr!r}")
        if self.horizon_days <= 0 or self.step_days <= 0:
            raise ConfigError("horizon_days and step_days must be positive")
        if not 0 < self.host_utilization <= 1:
            raise ConfigError(
                f"host_utilization must be in (0, 1], "
                f"got {self.host_utilization!r}")
        if self.regen_max_level < 1:
            raise ConfigError(
                f"regen_max_level must be >= 1, got {self.regen_max_level!r}")
        if self.shards < 1:
            raise ConfigError(
                f"shards must be >= 1, got {self.shards!r}")


@dataclass
class FleetResult:
    """Time series and per-device outcomes for one (config, mode) run.

    Attributes:
        mode: device discipline simulated.
        days: sample times (after each step).
        functioning: devices still in service at each sample (Fig. 3a).
        capacity_bytes: total advertised capacity at each sample (Fig. 3b).
        capacity_lost_bytes: advertised capacity lost during each step —
            the data volume the diFS must re-replicate (§4.3).
        death_day: per-device day of leaving service (inf = survived).
        initial_capacity_bytes: fleet capacity at day 0.
    """

    mode: str
    days: np.ndarray
    functioning: np.ndarray
    capacity_bytes: np.ndarray
    capacity_lost_bytes: np.ndarray
    death_day: np.ndarray
    initial_capacity_bytes: float

    def mean_lifetime_days(self) -> float:
        """Mean days in service (censored at the horizon)."""
        horizon = float(self.days[-1]) if self.days.size else 0.0
        return float(np.minimum(self.death_day, horizon).mean())

    def survivors_at(self, day: float) -> int:
        """Devices in service at ``day``; the whole fleet before the
        first sample (samples are taken *after* each step)."""
        index = int(np.searchsorted(self.days, day, side="right")) - 1
        if index < 0:
            return int(self.death_day.size)
        return int(self.functioning[index])

    def capacity_fraction_at(self, day: float) -> float:
        index = int(np.searchsorted(self.days, day, side="right")) - 1
        if self.initial_capacity_bytes == 0:
            return 0.0
        if index < 0:
            return 1.0
        return float(self.capacity_bytes[index] / self.initial_capacity_bytes)

    def total_recovery_bytes(self) -> float:
        return float(self.capacity_lost_bytes.sum())


class _BandedRows:
    """Row-sorted matrix answering "how many values <= t" for many rows
    in one ``searchsorted``.

    Row ``r`` of a group is stored times ``2**(band * r)``. Scaling by a
    power of two is exact in binary floating point, and ``band`` is wide
    enough that consecutive rows land in disjoint ascending value
    ranges, so a group of rows *is* one globally sorted flat array: a
    threshold clipped into its row's range and scaled the same way finds
    ``row * width + count`` there. A group holds as many rows as the
    double exponent range fits (2044 // band: ~290 at sigma 0.35); when
    the factors are not strictly positive and finite, or one row alone
    overflows the range, every row is its own unscaled group and the
    same code is a plain per-row ``searchsorted``.

    A group larger than ``COARSE_ABOVE`` factors is beyond a cache,
    where every level of a binary search is a miss, so a table with
    one takes two shortcuts. A threshold at or above its row's largest
    factor (``top``) is the row's full width — when every threshold is,
    nothing is searched — and such a group also keeps every
    ``BLOCK``-th factor (``coarse``, 1/``BLOCK`` of it): the thresholds
    below their rows' tops are searched there first, then within one
    ``BLOCK`` of the group. A table that fits in cache has neither
    (``top`` is None) and is one plain ``searchsorted`` per group.
    """

    #: Binades the scaled values may span: 2**-1021 .. 2**1023, all normal.
    SPAN = 2044
    #: Factors per block of a coarse index, and the group size above
    #: which a group keeps one (2**20 doubles: 8 MiB).
    BLOCK = 64
    COARSE_ABOVE = 1 << 20

    def __init__(self, matrix: np.ndarray) -> None:
        """Takes ownership of ``matrix`` (rows ascending) and scales it
        in place."""
        count, width = matrix.shape
        self.width = width
        top = matrix[:, -1].copy()
        low = matrix[:, 0].min(initial=np.inf)
        high = top.max(initial=-np.inf)
        # 2**floor < every value < 2**ceiling, strictly.
        floor = int(np.frexp(low)[1]) - 2
        ceiling = int(np.frexp(high)[1])
        band = ceiling - floor
        self.clip = (float(np.ldexp(1.0, floor)),
                     float(np.ldexp(1.0, ceiling)))
        if (0.0 < low <= high < np.inf and band <= self.SPAN
                and self.clip[0] > 0.0):
            per_group = self.SPAN // band
            in_group = np.arange(count) % per_group
            self.shift = (in_group * band - 1021 - floor).astype(np.intc)
            np.ldexp(matrix, self.shift[:, None], out=matrix)
        else:
            per_group, self.clip = 1, (-np.inf, np.inf)
            in_group = self.shift = np.zeros(count, dtype=np.intc)
        self.offset = in_group * width
        self.starts = np.arange(0, count, per_group)
        self.flats = [matrix[start:start + per_group].reshape(-1)
                      for start in self.starts.tolist()]
        # The last factor of each whole block: contiguous, so a search
        # over it stays in cache.
        self.coarse = [flat[self.BLOCK - 1::self.BLOCK].copy()
                       if flat.size > self.COARSE_ABOVE else None
                       for flat in self.flats]
        self.top = (top if any(coarse is not None for coarse in self.coarse)
                    else None)

    def count(self, rows: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        """Values ``<= thresholds[..., i]`` in row ``rows[i]``, for all i.

        ``rows`` ascending; equals ``searchsorted(row, t, "right")`` on
        the unscaled row for any non-NaN ``t``.
        """
        if self.top is not None:
            below_top = thresholds < self.top[rows]
            if not below_top.any():
                return np.full(below_top.shape, self.width, dtype=np.intp)
        low, high = self.clip
        needles = np.ldexp(np.minimum(np.maximum(thresholds, low), high),
                           self.shift[rows])
        found = np.empty(needles.shape, dtype=np.intp)
        cuts = rows.searchsorted(self.starts).tolist() + [rows.size]
        for flat, coarse, first, last in zip(self.flats, self.coarse, cuts,
                                             cuts[1:]):
            if first == last:
                continue
            if coarse is None:
                found[..., first:last] = flat.searchsorted(
                    needles[..., first:last], side="right")
                continue
            # A saturated threshold's position is its row's end.
            part = found[..., first:last]
            part[...] = self.offset[rows[first:last]] + self.width
            searched = below_top[..., first:last]
            part[searched] = self._coarse_search(
                flat, coarse, needles[..., first:last][searched])
        return found - self.offset[rows]

    def _coarse_search(self, flat: np.ndarray, coarse: np.ndarray,
                       needles: np.ndarray) -> np.ndarray:
        """``flat.searchsorted(needles, "right")`` for needles each below
        some factor of ``flat``, through ``coarse``: the whole blocks at
        or under a needle, then a branch-free binary search of the
        ``BLOCK`` factors after them (the group's last ``BLOCK`` when
        every whole block is under it, which also covers a tail short
        of a block). The window's last factor is above the needle, so
        its count is at most ``BLOCK - 1``: one step per bit.
        """
        block = self.BLOCK
        found = coarse.searchsorted(needles, side="right") * block
        np.minimum(found, flat.size - block, out=found)
        step = block
        while step > 1:
            step //= 2
            found += (flat.take(found + (step - 1)) <= needles) * step
        return found


class _FleetColumns(NamedTuple):
    """Columnar state of one device range: its own ``wear``, a row per
    device, over the whole fleet's shared, read-only tables
    (:func:`fleet_hardware`), whose row ``first + r`` is its row ``r``."""

    wear: np.ndarray            # P/E cycles so far
    first: int                  # fleet row of the range's first device
    pages: _BandedRows          # per-fPage variation factors
    block_max: _BandedRows      # weakest page of each block
    block_mean: _BandedRows     # block-average factor


#: The one fleet whose hardware is held: ``(key, tables)``.
_hardware: tuple = (None, None)


def forget_hardware() -> None:
    """Release the held hardware tables; the next fleet draws its own."""
    global _hardware
    _hardware = (None, None)


def fleet_hardware(config: FleetConfig,
                   seed: int | np.random.Generator | None,
                   rng: np.random.Generator,
                   ) -> tuple[_BandedRows, _BandedRows, _BandedRows]:
    """The fleet's ``(pages, block_max, block_mean)`` tables, a sorted
    row per device: the held ones if their key matches, else drawn from
    the ``"hardware"`` fork of ``rng`` — ``make_rng(seed)``, which the
    fork advances either way — one child per device index.

    The key names every input the draw reads, so modes, RBER models and
    device ranges share one draw. One entry, released *before* the next
    draw (the page factors are the bulk of a run's memory, sorted in
    place); a live ``Generator`` cannot be replayed and is never held.
    """
    global _hardware
    hardware_rng = fork_rng(rng, "hardware")
    devices, geometry = config.devices, config.geometry
    key = (DEFAULT_SEED if seed is None else seed, devices, geometry,
           config.variation_sigma)
    if key == _hardware[0]:
        return _hardware[1]
    forget_hardware()
    pages = np.empty((devices, geometry.total_fpages))
    for i in range(devices):
        pages[i] = lognormal_page_variation(
            fork_rng(hardware_rng, i), geometry.total_fpages,
            config.variation_sigma)
    per_block = pages.reshape(devices, geometry.blocks,
                              geometry.fpages_per_block)
    block_max, block_mean = per_block.max(axis=2), per_block.mean(axis=2)
    for matrix in (pages, block_max, block_mean):
        matrix.sort(axis=1)
    tables = (_BandedRows(pages), _BandedRows(block_max),
              _BandedRows(block_mean))
    if not isinstance(seed, np.random.Generator):
        _hardware = (key, tables)
    return tables


def _ordered_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum, the order a per-device loop adds in
    (``ndarray.sum`` is pairwise, builtin ``sum`` compensated)."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _percentile_sorted(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list (q in [0, 1]).

    Pure Python on purpose: the fleet census calls this on a handful of
    per-device wear scalars per sample, where ``np.percentile``'s fixed
    dispatch overhead (~100us) would dominate the sampling budget.
    """
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    position = (len(values) - 1) * q
    low = int(position)
    high = min(low + 1, len(values) - 1)
    fraction = position - low
    return values[low] * (1.0 - fraction) + values[high] * fraction


class FleetRules:
    """Mode- and config-dependent per-device capacity math.

    One instance is a pure function table over ``(config, mode)``: it
    owns the calibrated RBER model, the tiredness policy, and the
    advertised-capacity rules every discipline applies per device-step.
    """

    def __init__(self, config: FleetConfig, mode: str,
                 rber_model: RBERModel | None = None) -> None:
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.config = config
        self.mode = mode
        self.geometry = config.geometry
        self.policy = TirednessPolicy(geometry=self.geometry)
        self.model = rber_model or calibrate_power_law(
            self.policy, pec_limit_l0=config.pec_limit_l0)
        self.level_rber = [self.policy.max_rber(k)
                           for k in self.policy.usable_levels]
        self.adv0_bytes = (self.geometry.total_opage_slots
                           * self.geometry.opage_bytes
                           / (1.0 + config.headroom_fraction))
        self.original_daily_bytes = config.dwpd * self.adv0_bytes
        self.step_failure_prob = (
            1.0 - (1.0 - config.afr)**(config.step_days / 365.0))
        self.reuse_ceiling = (min(config.regen_max_level,
                                  self.policy.dead_level - 1)
                              if mode == "regen" else 0)
        self.steps = int(np.ceil(config.horizon_days / config.step_days))
        usable = np.arange(self.reuse_ceiling + 1)
        self.level_thresholds = np.array(self.level_rber)[usable, None]
        self.slots_per_level = self.geometry.opages_per_fpage - usable

    def advertised_bytes(self, fleet: _FleetColumns, rows: np.ndarray,
                         census: bool = False,
                         ) -> tuple[np.ndarray, np.ndarray | None]:
        """Advertised capacity under ``mode`` of devices ``rows``
        (ascending, within the range) at their current wear, as a vector.

        With ``census`` (only on timeseries sample steps) the second
        value is the per-device alive-fPage table — ``[i, k]`` pages of
        ``rows[i]`` at tiredness level ``k``, the last column
        out-of-service — from the counts computed anyway, so SMART
        sampling costs ~nothing extra on shrink/regen and one extra
        page-level count on baseline/cvss.
        """
        config = self.config
        geometry = self.geometry
        rber = self.model.rber(fleet.wear[rows])
        rows = rows + fleet.first
        with np.errstate(divide="ignore"):
            # One row of thresholds per level; a device with no errors
            # yet (rber <= 0) keeps every page: threshold +inf.
            thresholds = self.level_thresholds / np.where(rber > 0.0,
                                                          rber, 0.0)
        table = None
        if census or self.mode in ("shrink", "regen"):
            # alive[k]: pages usable at level k or below; levels[k]: at
            # exactly k, contributing (P - k) oPage slots each.
            alive = fleet.pages.count(rows, thresholds)
            levels = alive.copy()
            levels[1:] -= alive[:-1]
            if census:
                retired = geometry.total_fpages - alive[-1]
                table = np.vstack((levels, retired)).T
        if self.mode == "baseline":
            weak = geometry.blocks - fleet.block_max.count(rows,
                                                           thresholds[0])
            return np.where(weak / geometry.blocks > config.brick_threshold,
                            0.0, self.adv0_bytes), table
        if self.mode == "cvss":
            factors = (fleet.block_max if config.cvss_rule == "first-page"
                       else fleet.block_mean)
            slots = factors.count(rows, thresholds[0]) * (
                geometry.fpages_per_block * geometry.opages_per_fpage)
        else:
            slots = self.slots_per_level @ levels
        return (slots * geometry.opage_bytes
                / (1.0 + config.headroom_fraction)), table

    def in_service_raw_bytes(self, adv: np.ndarray) -> np.ndarray:
        return adv * (1.0 + self.config.headroom_fraction)

    def floor_bytes(self) -> float:
        if self.mode == "baseline":
            return 0.0  # baseline fails by bricking, not by the floor
        if self.mode == "cvss":
            return self.config.host_utilization * self.adv0_bytes
        return self.config.min_capacity_fraction * self.adv0_bytes

    def load_factors(self, load_rng: np.random.Generator) -> np.ndarray:
        """Per-device DWPD multipliers (the full-fleet draw, always)."""
        if self.config.dwpd_cv > 0:
            sigma = np.sqrt(np.log1p(self.config.dwpd_cv**2))
            return load_rng.lognormal(-sigma**2 / 2, sigma,
                                      size=self.config.devices)
        return np.ones(self.config.devices)


def _register_fleet_probes(sampler, mode: str, reuse_ceiling: int,
                           ) -> tuple[dict[str, float], list]:
    """Attach the fleet SMART probes; returns ``(smart_state, handles)``.

    ``smart_state`` is the dict :func:`assemble_fleet` fills on sampled
    steps (the probes close over it) — only on steps the sampler's
    cadence gate accepts, and the census piggybacks on the searchsorted
    calls ``advertised_bytes`` makes anyway, so sampling at the default
    cadence costs a few percent.
    """
    mode_labels = {"mode": mode}
    smart_state: dict[str, float] = {
        "functioning": 0.0, "capacity": 0.0, "lost": 0.0,
        "p50": 0.0, "p95": 0.0, "rber": 0.0, "retired": 0.0}
    for k in range(reuse_ceiling + 1):
        smart_state[f"level_{k}"] = 0.0
    handles: list = []

    def _state_probe(key: str):
        return lambda: smart_state[key]

    handles.append(sampler.add_probe(
        "repro_fleet_devices_functioning",
        _state_probe("functioning"),
        labels=mode_labels, unit="devices"))
    handles.append(sampler.add_probe(
        "repro_fleet_capacity_bytes", _state_probe("capacity"),
        labels=mode_labels, unit="bytes"))
    handles.append(sampler.add_probe(
        "repro_fleet_capacity_lost_step_bytes", _state_probe("lost"),
        labels=mode_labels, unit="bytes"))
    wear_field = smart_field("repro_smart_wear_percentile")
    for q in ("50", "95"):
        handles.append(sampler.add_probe(
            wear_field.name, _state_probe(f"p{q}"),
            labels={**mode_labels, "q": q}, unit=wear_field.unit))
    rber_field = smart_field("repro_smart_rber")
    handles.append(sampler.add_probe(
        rber_field.name, _state_probe("rber"),
        labels=mode_labels, unit=rber_field.unit))
    level_field = smart_field("repro_smart_level_fpages")
    for k in range(reuse_ceiling + 1):
        handles.append(sampler.add_probe(
            level_field.name, _state_probe(f"level_{k}"),
            labels={**mode_labels, "level": str(k)},
            unit=level_field.unit))
    retired_field = smart_field("repro_smart_retired_fpages")
    handles.append(sampler.add_probe(
        retired_field.name, _state_probe("retired"),
        labels=mode_labels, unit=retired_field.unit))
    # Wear-provenance fields (catalog version 2): the analytic
    # fleet's WAF is its configured amplification, the burn rate is
    # the mean per-step wear increment across alive devices, and
    # the ETA projects the median device to the L0 P/E limit.
    for key, field_name in (("waf", "repro_smart_waf"),
                            ("burn_rate",
                             "repro_smart_wear_burn_rate"),
                            ("eta_days",
                             "repro_smart_lifetime_eta_days")):
        smart_state[key] = 0.0
        field = smart_field(field_name)
        handles.append(sampler.add_probe(
            field.name, _state_probe(key),
            labels=mode_labels, unit=field.unit))
    return smart_state, handles


def _fill_smart_sample(smart_state: dict[str, float], rules: FleetRules,
                       alive_count: int, total_capacity: float,
                       lost: float, census: list[int],
                       wears: list[float], burn_total: float) -> None:
    """Commit one sampled step's census/wear material to ``smart_state``.

    ``wears`` must already be sorted ascending (the shard-major
    concatenation is the same multiset for any layout, so the sorted
    sequence is too).
    """
    config = rules.config
    smart_state["functioning"] = float(alive_count)
    smart_state["capacity"] = float(total_capacity)
    smart_state["lost"] = float(lost)
    smart_state["p50"] = _percentile_sorted(wears, 0.50)
    smart_state["p95"] = _percentile_sorted(wears, 0.95)
    smart_state["rber"] = (
        float(rules.model.rber(smart_state["p50"])) if wears else 0.0)
    for k in range(rules.reuse_ceiling + 1):
        smart_state[f"level_{k}"] = float(census[k])
    smart_state["retired"] = float(census[-1])
    smart_state["waf"] = float(config.write_amplification)
    rate = (burn_total / alive_count / config.step_days
            if alive_count else 0.0)
    smart_state["burn_rate"] = rate
    smart_state["eta_days"] = (
        max(0.0, config.pec_limit_l0 - smart_state["p50"])
        / rate if rate > 0.0 else 0.0)


def _record_fleet_summary(sampler, result: "FleetResult") -> None:
    """Stamp the scalar claim-checker series at the horizon."""
    end_day = float(result.days[-1]) if result.days.size else 0.0
    sampler.record("repro_fleet_mean_lifetime_days", end_day,
                   result.mean_lifetime_days(),
                   labels={"mode": result.mode}, unit="days")
    sampler.record("repro_fleet_recovery_bytes_total", end_day,
                   result.total_recovery_bytes(),
                   labels={"mode": result.mode}, unit="bytes",
                   kind="counter")
    sampler.record("repro_fleet_initial_capacity_bytes", end_day,
                   result.initial_capacity_bytes,
                   labels={"mode": result.mode}, unit="bytes")


@dataclass(frozen=True)
class ShardTask:
    """One device range's work order, picklable for fork-pool dispatch.

    ``pending`` is the timeseries sample schedule (one bool per step):
    the walk produces census/wear material for exactly those steps and
    nothing else. ``cuts`` are the first devices of the range's shards
    after its first (ascending, within ``[start, stop]``; a repeated cut
    is an empty shard): the range is walked once and reported per shard.
    ``seed`` may be a live ``Generator`` when the walk runs in the
    caller's process.
    """

    config: FleetConfig
    mode: str
    seed: int | np.random.Generator | None
    start: int
    stop: int
    pending: tuple[bool, ...]
    cuts: tuple[int, ...] = ()


class ShardStep(NamedTuple):
    """One step of one shard, ready to be summed shard-major.

    ``deaths`` is ``(device_index, cause)`` in discovery order (injected
    losses first, then AFR/wear by device index); ``sample`` is the
    ``(census, wears, burn_total)`` triple of a sampled step, else None;
    ``seconds`` is the shard's device share of the wall clock its
    range's step took.
    """

    functioning: int
    capacity: float
    deaths: list[tuple[int, str]]
    sample: tuple[list[int], list[float], float] | None
    seconds: float


def resolve_injector(faults: FaultPlan | FaultInjector | None,
                     ) -> FaultInjector | None:
    """A plan gets a fresh injector, an injector is used as given, and
    ``None`` falls back to the run context's (if any)."""
    if faults is None:
        return context.current().faults
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)


def sample_schedule(rules: FleetRules) -> tuple[bool, ...]:
    """Which steps the run context's sampler's cadence gate will accept."""
    sampler = context.current().timeseries
    if sampler is None:
        return (False,) * rules.steps
    step_days = rules.config.step_days
    return tuple(sampler.schedule(
        float((step + 1) * step_days) for step in range(rules.steps)))


def walk_shard(task: ShardTask, rules: FleetRules | None = None,
               injector: FaultInjector | None = None,
               ) -> Iterator[list[ShardStep]]:
    """Step devices ``[start, stop)`` to the horizon, yielding per step
    one :class:`ShardStep` per shard of the range (``task.cuts``).

    The only step loop of the fleet model. It reads its rows of the
    fleet's hardware tables (:func:`fleet_hardware`) and replays the
    whole-fleet AFR array per step and the whole-fleet load-factor draw,
    slicing its own range out of them, so the streams a device sees do
    not depend on the layout. A step computes the range's vectors once
    and cuts each shard's partials from its own slice of them — the
    float sums over that slice alone — so a shard reports the same bits
    whichever range it is walked in. It reads nothing from the run
    context: :func:`assemble_fleet` turns the partials into telemetry.

    ``injector`` schedules ``fleet.step`` device losses, which pick the
    first N alive devices fleet-wide in index order — deterministic by
    construction and independent of any RNG stream — so it is only
    meaningful on the whole-fleet range.
    """
    config = task.config
    mode = task.mode
    if rules is None:
        rules = FleetRules(config, mode)
    if injector is not None and (task.start, task.stop) != (0, config.devices):
        raise ConfigError(
            "fleet.step faults pick victims fleet-wide; walk the whole "
            f"fleet, not [{task.start}, {task.stop})")
    rng = make_rng(task.seed)
    fleet = _FleetColumns(np.zeros(task.stop - task.start), task.start,
                          *fleet_hardware(config, task.seed, rng))
    afr_rng = fork_rng(rng, "afr", mode)
    load_rng = fork_rng(rng, "load")
    written = (config.step_days * rules.original_daily_bytes
               * rules.load_factors(load_rng)[task.start:task.stop])
    wear = fleet.wear
    rows = np.arange(wear.size)     # devices still alive, ascending
    # At or under this capacity a device leaves service.
    limit = max(rules.floor_bytes(), 0.0)
    step_failure_prob = rules.step_failure_prob
    cuts = task.cuts
    local_cuts = np.array(cuts, dtype=np.intp) - task.start
    # Each shard is charged its device share of the range's step wall.
    sizes = np.diff([task.start, *cuts, task.stop])
    shares = (sizes / sizes.sum() if sizes.sum()
              else np.full(sizes.size, 1.0 / sizes.size)).tolist()

    for step in range(rules.steps):
        step_start = _time.perf_counter()
        deaths: list[tuple[int, str]] = []
        if injector is not None:
            spec = injector.check("fleet.step", mode=mode, step=step + 1,
                                  day=float((step + 1) * config.step_days))
            if spec is not None:
                to_kill = max(int(spec.args.get("devices", 1)), 0)
                for index in (rows[:to_kill] + task.start).tolist():
                    injector.record_degraded("fleet_device_loss")
                    deaths.append((index, "injected"))
                rows = rows[to_kill:]
        # SMART production (census + wear collection) happens only on
        # steps the cadence gate will sample.
        pending = task.pending[step]
        afr_draws = afr_rng.random(config.devices)[task.start:task.stop]
        failed = afr_draws[rows] < step_failure_prob
        alive = rows[~failed] if failed.any() else rows
        adv, census = rules.advertised_bytes(fleet, alive, pending)
        worn = adv <= limit
        if alive.size < rows.size or worn.any():
            # By device index, as a per-device loop would find them.
            deaths.extend(sorted(
                [(index, "afr")
                 for index in (rows[failed] + task.start).tolist()]
                + [(index, "wear")
                   for index in (alive[worn] + task.start).tolist()]))
            rows = alive = alive[~worn]
            adv = adv[~worn]
            if pending:
                census = census[~worn]
        # Advance wear through this step at the current live capacity.
        burn = (written[alive] * config.write_amplification
                / rules.in_service_raw_bytes(adv))
        # The survivors' census and (entry) wear go into the sample.
        entry = wear[alive] if pending else None
        wear[alive] += burn
        # Cut per shard: deaths by device index, in discovery order, and
        # every other partial from the shard's own slice of the vectors.
        by_shard: list[list[tuple[int, str]]] = [[] for _ in shares]
        for death in deaths:
            by_shard[bisect_right(cuts, death[0])].append(death)
        edges = [0, *alive.searchsorted(local_cuts).tolist(), alive.size]
        parts = [(hi - lo, _ordered_sum(adv[lo:hi]), shard_deaths,
                  (census[lo:hi].sum(axis=0).tolist(), entry[lo:hi].tolist(),
                   _ordered_sum(burn[lo:hi])) if pending else None)
                 for lo, hi, shard_deaths in zip(edges, edges[1:], by_shard)]
        seconds = _time.perf_counter() - step_start
        yield [ShardStep(*part, seconds * share)
               for part, share in zip(parts, shares)]


def assemble_fleet(rules: FleetRules,
                   walks: Sequence[Iterable[Sequence[ShardStep]]],
                   ) -> tuple[FleetResult, list[float]]:
    """Sum per-shard steps shard-major into a result and its telemetry.

    ``walks`` holds one iterable per device range, in layout order — a
    live :func:`walk_shard` or the list a pool worker shipped back — each
    yielding a step's :class:`ShardStep` per shard of its range. They are
    stepped in lockstep, so a live walk's injector advances its fault
    counters between samples. Integer series sum exactly; float series
    are ordered shard-partial sums (ranges and their shards are
    contiguous and ascending, so shard-major order is device order). This
    is the only code that publishes fleet metrics, trace events, SMART
    probes and the summary series.

    Returns the result and the seconds charged to each shard.
    """
    config, mode = rules.config, rules.mode
    # Bound once; with observability disabled the per-step cost is a
    # handful of ``is None`` checks (docs/OBSERVABILITY.md's 5% budget).
    ctx = context.current()
    instr = fleet_instruments(mode)
    tracer, sampler = ctx.tracer, ctx.timeseries
    steps = rules.steps
    days = np.zeros(steps)
    functioning = np.zeros(steps, dtype=np.int64)
    capacity = np.zeros(steps)
    lost = np.zeros(steps)
    death_day: list[float] = [np.inf] * config.devices
    walk_seconds: list[float] = []
    previous_capacity = rules.adv0_bytes * config.devices
    n_census = rules.reuse_ceiling + 2

    day_now = [0.0]
    previous_clock = None
    if tracer is not None:
        # The fleet model is the time authority while it runs: stamp
        # trace records with the simulated day rather than wall clock.
        previous_clock = tracer.set_clock(lambda: day_now[0])
    # Timeseries probes: fleet aggregates plus population SMART health,
    # labelled by mode so per-mode runs sharing one sampler stay distinct.
    smart_state: dict[str, float] = {}
    probe_handles: list = []
    if sampler is not None:
        smart_state, probe_handles = _register_fleet_probes(
            sampler, mode, rules.reuse_ceiling)
    try:
        for step, steps_now in enumerate(zip(*walks)):
            parts = [part for walk_step in steps_now for part in walk_step]
            if not walk_seconds:
                walk_seconds = [0.0] * len(parts)
            day = (step + 1) * config.step_days
            day_f = float(day)
            day_now[0] = day_f
            alive_count = 0
            total_capacity = 0.0
            step_wall = 0.0
            for shard, (alive, adv, deaths, _, seconds) in enumerate(parts):
                alive_count += alive
                total_capacity += adv
                step_wall += seconds
                walk_seconds[shard] += seconds
                for index, cause in deaths:
                    death_day[index] = day
                    if instr is not None:
                        instr.device_deaths.labels(mode=mode,
                                                   cause=cause).inc()
                    if tracer is not None:
                        tracer.event("fleet.device_death", mode=mode,
                                     device=index, day=day, cause=cause)
            days[step] = day
            functioning[step] = alive_count
            capacity[step] = total_capacity
            lost[step] = max(0.0, previous_capacity - total_capacity)
            previous_capacity = total_capacity
            if instr is not None:
                instr.step_duration.observe(step_wall)
                instr.devices_functioning.set(alive_count)
                instr.capacity_bytes.set(total_capacity)
                instr.capacity_lost_bytes.inc(float(lost[step]))
            if parts[0].sample is not None:  # every shard, or none
                census = [0] * n_census
                wears: list[float] = []
                burn_total = 0.0
                for part in parts:
                    shard_census, shard_wears, shard_burn = part.sample
                    for i in range(n_census):
                        census[i] += shard_census[i]
                    wears.extend(shard_wears)
                    burn_total += shard_burn
                wears.sort()
                _fill_smart_sample(smart_state, rules, alive_count,
                                   total_capacity, float(lost[step]),
                                   census, wears, burn_total)
                sampler.maybe_sample(day_f)
    finally:
        # The probes close over this run's state and the clock over its
        # day: detach both so a sampler or tracer shared with whatever
        # runs next never reads a finished fleet.
        for handle in probe_handles:
            handle.remove()
        if tracer is not None:
            tracer.set_clock(previous_clock)

    result = FleetResult(
        mode=mode,
        days=days,
        functioning=functioning,
        capacity_bytes=capacity,
        capacity_lost_bytes=lost,
        # From a list on purpose: an all-dead fleet stays an integer
        # array, which is how the artifacts have always printed it.
        death_day=np.array(death_day),
        initial_capacity_bytes=rules.adv0_bytes * config.devices,
    )
    if sampler is not None:
        # Scalar outcomes the claim checker reads directly (stamped at
        # the horizon so the series stays monotone in time).
        _record_fleet_summary(sampler, result)
    return result, walk_seconds


def simulate_fleet(config: FleetConfig, mode: str,
                   seed: int | np.random.Generator | None = None,
                   rber_model: RBERModel | None = None,
                   faults: FaultPlan | FaultInjector | None = None,
                   ) -> FleetResult:
    """Run one fleet under one device discipline, in this process.

    The one-shard layout: :func:`walk_shard` over ``[0, devices)``,
    stepped by :func:`assemble_fleet`. ``config.shards`` is ignored.

    Pass the same ``seed`` for every mode to compare disciplines on
    identical hardware draws (the AFR stream is forked per mode from the
    same root, so background failures are statistically — not samplewise —
    identical).

    ``faults`` schedules injected failures against the ``fleet.step``
    site: a :class:`~repro.faults.FaultPlan` gets a *fresh* injector per
    call (so parallel sweeps stay byte-identical regardless of worker
    count), an explicit :class:`~repro.faults.FaultInjector` is used as
    given, and ``None`` falls back to the run context's injector.
    """
    rules = FleetRules(config, mode, rber_model)
    injector = resolve_injector(faults)
    task = ShardTask(config, mode, seed, 0, config.devices,
                     sample_schedule(rules))
    result, _ = assemble_fleet(rules, [walk_shard(task, rules, injector)])
    return result
