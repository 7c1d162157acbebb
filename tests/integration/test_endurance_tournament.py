"""Integration: the four-device lifetime tournament on identical hardware.

Each contender runs on a chip with the same geometry, wear model and
variation draw (same seed), driven by the same workload discipline — so
lifetime differences are pure policy. This is the functional-simulator
counterpart of the paper's §4 lifetime analysis.
"""

import pytest

from repro.sim.lifetime import run_write_lifetime, tournament_devices


@pytest.fixture(scope="module")
def tournament():
    return {name: run_write_lifetime(device, utilization=0.6,
                                     capacity_floor_fraction=0.3, seed=0)
            for name, device in tournament_devices().items()}


class TestTournament:
    def test_paper_ordering(self, tournament):
        writes = {name: r.host_writes for name, r in tournament.items()}
        assert writes["baseline"] < writes["cvss"]
        assert writes["cvss"] <= writes["shrinks"]
        assert writes["shrinks"] < writes["regens"]

    def test_cvss_gain_near_cited_20_percent(self, tournament):
        gain = (tournament["cvss"].host_writes
                / tournament["baseline"].host_writes - 1)
        assert 0.0 < gain < 0.5

    def test_regen_gain_substantial(self, tournament):
        # The paper claims "up to 1.5x" total lifetime for Salamander.
        ratio = (tournament["regens"].host_writes
                 / tournament["baseline"].host_writes)
        assert ratio > 1.3

    def test_wear_extracted_ordering(self, tournament):
        # More lifetime means more PEC actually pulled out of the flash.
        pec = {name: r.mean_pec_at_death for name, r in tournament.items()}
        assert pec["baseline"] < pec["shrinks"] < pec["regens"]

    def test_baseline_dies_at_full_capacity(self, tournament):
        # The baseline never shrinks — it bricks with capacity intact.
        assert tournament["baseline"].capacity_fraction == 1.0

    def test_salamander_devices_shrank(self, tournament):
        assert tournament["shrinks"].capacity_fraction < 1.0
        assert tournament["regens"].capacity_fraction < 1.0

    def test_write_amplification_sane_everywhere(self, tournament):
        for name, result in tournament.items():
            waf = result.stats["write_amplification"]
            assert 1.0 <= waf < 6.0, (name, waf)
