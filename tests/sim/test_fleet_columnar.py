"""The columnar fleet state against its scalar oracles.

Two layers, both held to *equality*, not closeness:

* ``FleetRules.advertised_bytes`` over a device range against the
  per-device function it replaced (``fleet_oracle.py``): capacity and
  census, every mode and rule, both RBER model families, wear vectors
  that include 0 (the ``rber <= 0`` branch) and wear past every level.
  The range is partial and reads the whole-fleet tables of
  ``fleet_hardware`` while the oracle builds its own devices one by
  one: a range over the shared table equals a per-device build.
* ``_BandedRows.count`` — the batched "values <= t per row" kernel —
  against ``np.searchsorted(row, t, side="right")`` row by row, on
  thresholds chosen to sit on, just under and just over stored values,
  over tables in cache (one plain search a group) and tables above the
  size rule (saturated rows and the coarse index), whose coarse step
  must also fail three seeded off-by-ones.
"""

from __future__ import annotations

import functools
import inspect
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.flash.rber import ExponentialRBER
from repro.flash.tiredness import TirednessPolicy
from repro.rng import fork_rng, make_rng
from repro.sim import fleet as fleet_module
from repro.sim.fleet import (
    MODES,
    FleetConfig,
    FleetRules,
    _BandedRows,
    _FleetColumns,
    fleet_hardware,
)
from tests.sim import fleet_oracle

CONFIG = FleetConfig(
    devices=24,
    geometry=FlashGeometry(blocks=16, fpages_per_block=8),
    pec_limit_l0=800.0,
)


def _model(name: str):
    """None is the rules' own calibrated power law."""
    if name == "power-law":
        return None
    policy = TirednessPolicy(geometry=CONFIG.geometry)
    return ExponentialRBER.calibrated(pec_limit=250.0,
                                      max_rber=policy.max_rber(0))


def _columns(config: FleetConfig, seed: int, start: int,
             stop: int) -> _FleetColumns:
    """Devices ``[start, stop)`` as ``walk_shard`` sets them up."""
    tables = fleet_hardware(config, seed, make_rng(seed))
    return _FleetColumns(np.zeros(stop - start), start, *tables)


def _wear_vectors(rules: FleetRules, count: int, seed: int):
    """Fresh, mid-life, past-everything and mixed wear, zeros included."""
    rng = np.random.default_rng(seed)
    last_limit = max(rules.policy.pec_limits(rules.model).values())
    yield np.zeros(count)
    yield np.full(count, 4.0 * last_limit)
    for spread in (0.5, 1.5, 4.0):
        wear = rng.uniform(0.0, spread * last_limit, count)
        wear[rng.random(count) < 0.2] = 0.0
        wear[rng.random(count) < 0.1] = 1e9
        yield wear


@pytest.mark.parametrize("model_name", ["power-law", "exponential"])
@pytest.mark.parametrize("regen_max_level", [1, 2, 3])
@pytest.mark.parametrize("cvss_rule", ["first-page", "avg-rber"])
@pytest.mark.parametrize("mode", MODES)
def test_columnar_capacity_and_census_equal_the_scalar_oracle(
        mode, cvss_rule, regen_max_level, model_name):
    config = replace(CONFIG, cvss_rule=cvss_rule,
                     regen_max_level=regen_max_level)
    rules = FleetRules(config, mode, _model(model_name))
    start, stop = 3, config.devices - 2     # a partial range, like a shard
    fleet = _columns(config, 11, start, stop)
    devices = fleet_oracle.build_devices(
        rules, fork_rng(make_rng(11), "hardware"), start, stop)
    n_census = rules.reuse_ceiling + 2
    for number, wear in enumerate(_wear_vectors(rules, stop - start, 5)):
        fleet.wear[:] = wear
        rows = np.flatnonzero(np.arange(stop - start) % 5 != number)
        with np.errstate(over="ignore"):    # exp(1e9 / tau) is inf: fine
            adv, census = rules.advertised_bytes(fleet, rows, census=True)
            plain, no_census = rules.advertised_bytes(fleet, rows)
        assert no_census is None and np.array_equal(plain, adv)
        assert census.shape == (rows.size, n_census)
        for position, row in enumerate(rows.tolist()):
            devices[row].wear = float(wear[row])
            expected = [-1] * n_census
            with np.errstate(over="ignore"):
                assert adv[position] == fleet_oracle.advertised_bytes(
                    rules, devices[row], expected), (number, row)
                assert adv[position] == fleet_oracle.advertised_bytes(
                    rules, devices[row])
            assert census[position].tolist() == expected, (number, row)


@pytest.mark.parametrize("blocks, fpages_per_block", [(16, 8), (4, 256)])
def test_columns_hold_the_oracle_devices_factors(blocks, fpages_per_block):
    """Unscaled, every banded row is the oracle's sorted array (256
    pages per block: the block mean is a pairwise sum)."""
    config = replace(CONFIG, geometry=FlashGeometry(
        blocks=blocks, fpages_per_block=fpages_per_block))
    rules = FleetRules(config, "regen")
    fleet = _columns(config, 3, 0, 24)
    devices = fleet_oracle.build_devices(
        rules, fork_rng(make_rng(3), "hardware"), 0, 24)
    for banded, name in ((fleet.pages, "sorted_pages"),
                         (fleet.block_max, "sorted_block_max"),
                         (fleet.block_mean, "sorted_block_mean")):
        width = getattr(devices[0], name).size
        stored = np.concatenate(banded.flats).reshape(-1, width)
        unscaled = np.ldexp(stored, -banded.shift[:, None])
        for row, dev in enumerate(devices):
            assert np.array_equal(unscaled[row], getattr(dev, name))


# -- the batched count --------------------------------------------------------

def _matrix(seed: int, count: int, width: int, sigma: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        matrix = (np.ones((count, width)) if sigma == 0 else
                  rng.lognormal(0.0, sigma, size=(count, width)))
    matrix.sort(axis=1)
    return matrix


def _reference(matrix, rows, thresholds) -> np.ndarray:
    return np.array([int(np.searchsorted(matrix[row], t, side="right"))
                     for row, t in zip(rows, thresholds)], dtype=np.intp)


def _probe(matrix: np.ndarray, row: int, kind: int, column: int,
           free: float) -> float:
    """One adversarial threshold for ``row``."""
    values = matrix[row]
    stored = values[column % values.size]
    return [stored, np.nextafter(stored, -np.inf),
            np.nextafter(stored, np.inf),
            0.0, 5e-324, np.inf, -np.inf, -1.0,
            np.nextafter(values[0], -np.inf),
            np.nextafter(values[-1], np.inf),
            matrix.min(), matrix.max(), free][kind]


#: sigma -> what it does to the layout at these sizes: all-ones rows; the
#: production spread (one group); a few rows per group; one row per group
#: with factors still finite; factors that overflow to inf / underflow to 0.
SIGMAS = (0.0, 0.35, 40.0, 200.0, 400.0)


#: Tables above ``_BandedRows.COARSE_ABOVE``, so a group keeps a coarse
#: index: a width the block divides, one it does not (a group's tail is
#: short of a block), all-equal factors, and the unscaled per-row
#: fallback with rows that alone exceed the rule.
BIG = ((300, 4096, 0.35), (300, 4099, 0.35), (300, 4096, 0.0),
       (2, (1 << 20) + 37, 400.0))


@functools.lru_cache(maxsize=None)
def _big(shape: tuple[int, int, float]) -> tuple[np.ndarray, _BandedRows]:
    matrix = _matrix(7, *shape)
    banded = _BandedRows(matrix.copy())
    assert any(coarse is not None for coarse in banded.coarse)
    return matrix, banded


def _assert_counts(matrix, banded, rows, thresholds) -> None:
    """One threshold row, and three stacked (one per tiredness level)."""
    expected = _reference(matrix, rows, thresholds)
    assert np.array_equal(banded.count(rows, thresholds), expected)
    with np.errstate(over="ignore"):
        stacked = np.vstack((thresholds, thresholds * 2.0,
                             thresholds[::-1]))
    found = banded.count(rows, stacked)
    assert np.array_equal(found[0], expected)
    assert np.array_equal(found[1], _reference(matrix, rows, stacked[1]))
    assert np.array_equal(found[2], _reference(matrix, rows, stacked[2]))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 40),
       width=st.integers(1, 9), sigma=st.sampled_from(SIGMAS),
       big=st.sampled_from((None, *BIG)), data=st.data())
def test_banded_count_equals_per_row_searchsorted(seed, count, width,
                                                  sigma, big, data):
    """Small tables of every layout, and (``big``) the tables above the
    size rule, searched through their coarse index."""
    if big is None:
        matrix = _matrix(seed, count, width, sigma)
        banded = _BandedRows(matrix.copy())
    else:
        matrix, banded = _big(big)
    count, width = matrix.shape
    rows = np.array(sorted(data.draw(st.lists(
        st.integers(0, count - 1), unique=True, max_size=64))),
        dtype=np.intp)
    probes = data.draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, width - 1),
                  st.floats(min_value=0.0, allow_nan=False)),
        min_size=rows.size, max_size=rows.size))
    thresholds = np.array([_probe(matrix, row, *probe)
                           for row, probe in zip(rows.tolist(), probes)],
                          dtype=float)
    _assert_counts(matrix, banded, rows, thresholds)


def _coarse_probes(matrix: np.ndarray, banded: _BandedRows):
    """``(rows, thresholds)`` pairs that reach every branch of the
    coarse search: the stored values of each group's first, middle and
    last rows, on and a hair either side (every block's last factor, a
    group's short tail and each row's top among them; every 128th of a
    fallback row's million, and its last 130); needles below a row's
    minimum; saturated rows; a mix of every row; and nothing."""
    count, width = matrix.shape
    starts = banded.starts.tolist()
    picked = sorted({row for start, end in zip(starts, starts[1:] + [count])
                     for row in (start, (start + end) // 2, end - 1)})
    step = -(-width // 8192)
    columns = np.unique(np.r_[0:width:step, max(0, width - 130):width])
    for row in picked:
        values = matrix[row, columns]
        rows = np.full(values.size, row, dtype=np.intp)
        for nudge in (0.0, -np.inf, np.inf):
            yield rows, (values if nudge == 0.0
                         else np.nextafter(values, nudge))
    everyone = np.arange(count)
    tops, bottoms = matrix[:, -1], matrix[:, 0]
    yield everyone, tops                                # saturated
    yield everyone, np.nextafter(bottoms, -np.inf)      # below every value
    yield everyone, np.where(everyone % 2, tops, np.nextafter(tops, -np.inf))
    yield everyone, matrix[everyone, everyone * 7 % width]
    yield everyone[:0], np.empty(0)                     # an empty range


def _check_coarse(shape) -> None:
    """Each probe set of :func:`_coarse_probes`, as one threshold row
    and stacked with its reverse, against a per-row ``searchsorted``
    (rows may repeat: the kernel needs them ascending, not distinct)."""
    matrix, banded = _big(shape)
    for rows, thresholds in _coarse_probes(matrix, banded):
        expected = np.empty(rows.size, dtype=np.intp)
        for row in np.unique(rows).tolist():
            mine = rows == row
            expected[mine] = matrix[row].searchsorted(thresholds[mine],
                                                      side="right")
        assert np.array_equal(banded.count(rows, thresholds), expected)
        found = banded.count(rows, np.vstack((thresholds, thresholds)))
        assert np.array_equal(found[0], expected)
        assert np.array_equal(found[1], expected)


@pytest.mark.parametrize("shape", BIG)
def test_coarse_index_counts_equal_per_row_searchsorted(shape):
    _check_coarse(shape)


#: Off-by-ones in the coarse step -> source edits of ``_coarse_search``.
COARSE_MUTATIONS = {
    "a needle on a block's last factor lands in that block": (
        'coarse.searchsorted(needles, side="right")',
        'coarse.searchsorted(needles, side="left")'),
    "the tail window starts one factor early": (
        "flat.size - block", "flat.size - block - 1"),
    "a search step probes one factor late": (
        "flat.take(found + (step - 1))", "flat.take(found + step)"),
}


@pytest.mark.parametrize("name", COARSE_MUTATIONS)
def test_coarse_off_by_ones_are_caught(name, monkeypatch):
    old, new = COARSE_MUTATIONS[name]
    source = textwrap.dedent(inspect.getsource(_BandedRows._coarse_search))
    assert old in source, f"mutation target vanished: {old!r}"
    namespace: dict = {}
    exec(source.replace(old, new, 1), vars(fleet_module), namespace)
    monkeypatch.setattr(_BandedRows, "_coarse_search",
                        namespace["_coarse_search"])
    with pytest.raises((AssertionError, IndexError)):
        for shape in BIG:
            _check_coarse(shape)


@pytest.mark.parametrize("sigma, count, groups", [
    (0.0, 700, 1),        # band 2: 1022 rows fit one group
    (0.35, 700, 2),       # band 5 at this width: 408 rows per group
    (1.2, 700, 6),
    (40.0, 40, 8),        # five rows per group
    (200.0, 12, 12),      # one row per group, still banded
    (400.0, 12, 12),      # inf / 0 factors: unscaled per-row fallback
])
def test_group_layout_and_boundary_straddling_selections(sigma, count,
                                                         groups):
    matrix = _matrix(1, count, 16, sigma)
    banded = _BandedRows(matrix.copy())
    assert len(banded.flats) == groups
    for flat in banded.flats:
        assert np.all(np.diff(flat) >= 0)       # globally sorted
    if sigma == 400.0:
        assert not banded.shift.any() and banded.clip == (-np.inf, np.inf)
    per_group = -(-count // groups)
    selections = [np.arange(count), np.arange(0, count, 7),
                  np.array([], dtype=np.intp),
                  np.array([count - 1]),
                  # the last row of one group and the first of the next
                  np.array([per_group - 1, per_group]) % count]
    rng = np.random.default_rng(2)
    for rows in selections:
        rows = np.unique(rows)
        columns = rng.integers(0, 16, rows.size)
        thresholds = matrix[rows, columns]
        for nudge in (-np.inf, 0.0, np.inf):
            probes = (thresholds if nudge == 0.0
                      else np.nextafter(thresholds, nudge))
            assert np.array_equal(banded.count(rows, probes),
                                  _reference(matrix, rows, probes))


def test_empty_range_counts_nothing():
    banded = _BandedRows(np.empty((0, 16)))
    rows = np.array([], dtype=np.intp)
    assert banded.count(rows, np.empty(0)).shape == (0,)
    assert banded.count(rows, np.empty((2, 0))).shape == (2, 0)
