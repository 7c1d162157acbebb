"""Tests for idle-time (background) garbage collection."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.ssd.ftl import FTLConfig, PageMappedFTL


@pytest.fixture
def loaded_ftl(make_chip, ftl_config):
    """An FTL churned until the free pool is tight."""
    ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                 ftl_config)
    rng = np.random.default_rng(0)
    hot = int(ftl.n_lbas * 0.8)
    for _ in range(3 * ftl.n_lbas):
        ftl.write(int(rng.integers(0, hot)), b"x")
    return ftl


class TestBackgroundGC:
    def test_ticks_grow_the_free_pool(self, loaded_ftl):
        before = len(loaded_ftl._free_blocks.ordered())
        performed = loaded_ftl.background_tick(max_collections=3,
                                               watermark_blocks=8)
        after = len(loaded_ftl._free_blocks.ordered())
        assert performed > 0
        assert after >= before

    def test_respects_watermark(self, loaded_ftl):
        # Bring the pool up to a watermark, then further ticks are no-ops.
        while loaded_ftl.background_tick(max_collections=1,
                                         watermark_blocks=6):
            pass
        assert loaded_ftl.background_tick(max_collections=5,
                                          watermark_blocks=6) == 0

    def test_idle_gc_shrinks_foreground_tails(self, make_chip, ftl_config):
        from repro.workloads.generators import stamp_payload

        def run(with_idle_gc: bool) -> float:
            ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                         ftl_config)
            rng = np.random.default_rng(1)
            hot = int(ftl.n_lbas * 0.8)
            for i in range(6 * ftl.n_lbas):
                ftl.write(int(rng.integers(0, hot)), stamp_payload(i, i))
                if with_idle_gc and i % 4 == 0:
                    ftl.background_tick(max_collections=1,
                                        watermark_blocks=5)
            return ftl.stats.write_latency.percentile(99)

        assert run(True) <= run(False)

    def test_data_intact_after_background_work(self, make_chip, ftl_config):
        from repro.workloads.generators import stamp_payload
        ftl = PageMappedFTL.for_chip(make_chip(variation_sigma=0.0),
                                     ftl_config)
        rng = np.random.default_rng(2)
        latest = {}
        for i in range(4 * ftl.n_lbas):
            lba = int(rng.integers(0, ftl.n_lbas // 2))
            payload = stamp_payload(lba, i)
            ftl.write(lba, payload)
            latest[lba] = payload
            # Note the modest watermark: an aggressive one would burn
            # erase cycles on futile net-zero collections (GC churn).
            ftl.background_tick(max_collections=1, watermark_blocks=5)
        for lba, payload in latest.items():
            assert ftl.read(lba).rstrip(b"\0") == payload

    def test_validation(self, loaded_ftl):
        with pytest.raises(ConfigError):
            loaded_ftl.background_tick(max_collections=-1)
