"""Determinism contract of the process-parallel sweep runner.

The headline property: a sweep artifact (a ``fleet`` scenario with
``"runs"``) produced with ``--jobs N`` must be **byte-identical** to one
produced with ``--jobs 1``. Everything else here (seed derivation
invariance, order preservation) is a supporting lemma of that contract.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry
from repro.scenarios import run_scenario
from repro.sim import parallel
from repro.sim.fleet import MODES, FleetConfig
from repro.sim.parallel import (
    derive_seeds,
    fleet_tasks,
    parallel_map,
    resolve_jobs,
)

#: Small enough for CI, big enough for GC + wear + deaths to occur.
TINY_CONFIG = FleetConfig(
    devices=6,
    geometry=FlashGeometry(blocks=16, fpages_per_block=16),
    pec_limit_l0=300.0,
    variation_sigma=0.35,
    dwpd=2.0,
    write_amplification=2.0,
    afr=0.02,
    horizon_days=730,
    step_days=10,
)


def _square(x: int) -> int:
    return x * x


class TestSeedDerivation:
    def test_deterministic_and_jobs_invariant(self):
        # Seeds derive in the parent before dispatch: the schedule is a
        # pure function of (root_seed, count), never of worker count.
        assert derive_seeds(2025, 6) == derive_seeds(2025, 6)

    def test_prefix_stable(self):
        # Growing a sweep keeps the existing runs' seeds.
        assert derive_seeds(7, 3) == derive_seeds(7, 8)[:3]

    def test_distinct_roots_diverge(self):
        assert derive_seeds(1, 4) != derive_seeds(2, 4)

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            derive_seeds(1, 0)


class TestParallelMap:
    def test_preserves_order(self):
        tasks = list(range(37))
        assert parallel_map(_square, tasks, jobs=4) == \
            [x * x for x in tasks]

    def test_sequential_fallback(self):
        assert parallel_map(_square, [3], jobs=8) == [9]

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_resolve_jobs_auto(self):
        # There is no 'auto': 0 is all cores, and a string is refused.
        with pytest.raises(ConfigError, match="must be an int"):
            resolve_jobs("auto")

    def test_resolve_jobs_rejects_other_strings_and_bools(self):
        for value in ("fast", "2"):
            with pytest.raises(ConfigError):
                resolve_jobs(value)
        with pytest.raises(ConfigError):
            resolve_jobs(True)

    def test_fork_unavailable_falls_back_serially(self, monkeypatch):
        # Platforms without the fork start method degrade to the serial
        # path with a warning — results identical, never a spawn pool.
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        with pytest.warns(RuntimeWarning, match="fork"):
            results = parallel_map(_square, list(range(7)), jobs=4)
        assert results == [x * x for x in range(7)]

    def test_fork_unavailable_single_task_stays_quiet(self, monkeypatch):
        # One task never needs a pool, so no fallback warning either.
        monkeypatch.setattr(parallel, "_fork_context", lambda: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parallel_map(_square, [5], jobs=2) == [25]


class TestTaskEnumeration:
    def test_seed_major_canonical_order(self):
        tasks = fleet_tasks(TINY_CONFIG, ("baseline", "regen"), (5, 9))
        assert [(t.mode, t.seed) for t in tasks] == [
            ("baseline", 5), ("regen", 5), ("baseline", 9), ("regen", 9)]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            fleet_tasks(TINY_CONFIG, ("warp",), (1,))


def sweep_scenario(runs: int) -> dict:
    """TINY_CONFIG as a ``fleet`` scenario with ``runs`` seeds."""
    params = dataclasses.asdict(TINY_CONFIG)
    return {"name": "tiny-sweep", "kind": "fleet", "seed": 2025,
            "runs": runs, "params": params}


class TestSweepByteIdentity:
    """The satellite's acceptance check, as a test."""

    @pytest.fixture(scope="class")
    def seeds(self):
        return derive_seeds(2025, 2)

    def test_jobs2_artifact_matches_jobs1_bytes(self, seeds, tmp_path):
        paths = {jobs: run_scenario(sweep_scenario(len(seeds)),
                                    jobs=jobs).write(tmp_path / f"j{jobs}")
                 for jobs in (1, 2)}
        assert paths[1].read_bytes() == paths[2].read_bytes()

    def test_artifact_round_trips_and_summarizes(self, seeds, tmp_path):
        writer = run_scenario(sweep_scenario(len(seeds)))
        loaded = json.loads(writer.write(tmp_path).read_text())
        assert loaded == json.loads(json.dumps(writer.document()))
        assert {name.split("/")[1] for name in loaded["series"]} == \
            {str(seed) for seed in seeds}
        rows = loaded["tables"]["by_mode"]["rows"]
        assert [row[0] for row in rows] == list(MODES)
        for mode, runs, lifetime, *_ in rows:
            assert runs == len(seeds)
            assert lifetime > 0
