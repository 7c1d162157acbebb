"""Unit tests for minidisk objects and the table that owns them."""

import pytest

from repro.errors import ConfigError
from repro.salamander.minidisk import (
    Minidisk,
    MinidiskStatus,
    MinidiskTable,
)


class TestMinidisk:
    def test_flat_addressing(self):
        mdisk = Minidisk(mdisk_id=3, size_lbas=256)
        assert mdisk.flat_base == 768
        assert mdisk.flat_lba(0) == 768
        assert mdisk.flat_lba(255) == 1023

    def test_lba_bounds(self):
        mdisk = Minidisk(mdisk_id=0, size_lbas=16)
        with pytest.raises(ConfigError):
            mdisk.flat_lba(16)
        with pytest.raises(ConfigError):
            mdisk.flat_lba(-1)

    def test_decommission_lifecycle(self):
        table = MinidiskTable(16, count=2)
        mdisk = table.minidisks[1]
        assert mdisk.is_active
        table.decommission(mdisk, seq=9)
        assert not mdisk.is_active
        assert mdisk.status is MinidiskStatus.DECOMMISSIONED
        assert mdisk.decommissioned_seq == 9

    def test_double_decommission_rejected(self):
        table = MinidiskTable(16, count=2)
        mdisk = table.minidisks[1]
        table.decommission(mdisk, seq=1)
        with pytest.raises(ConfigError):
            table.decommission(mdisk, seq=2)

    def test_regenerated_disk_carries_level(self):
        mdisk = Minidisk(mdisk_id=5, size_lbas=16, level=1, created_seq=12)
        assert mdisk.level == 1
        assert mdisk.created_seq == 12

    @pytest.mark.parametrize("kwargs", [
        {"mdisk_id": -1, "size_lbas": 16},
        {"mdisk_id": 0, "size_lbas": 0},
        {"mdisk_id": 0, "size_lbas": 16, "level": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            Minidisk(**kwargs)


class TestMinidiskTable:
    def test_fresh_census(self):
        table = MinidiskTable(16, count=3)
        assert [m.mdisk_id for m in table.active] == [0, 1, 2]
        assert table.advertised_lbas == 48
        assert table.draining == []
        table.audit()

    def test_decommission_leaves_the_active_set(self):
        table = MinidiskTable(16, count=3)
        held = table.active
        table.decommission(table.minidisks[1], seq=4)
        assert [m.mdisk_id for m in table.active] == [0, 2]
        assert table.advertised_lbas == 32
        # The active set is replaced, never mutated under a reader.
        assert [m.mdisk_id for m in held] == [0, 1, 2]
        table.audit()

    def test_grace_path_drains_then_releases(self):
        table = MinidiskTable(16, count=3)
        for mdisk_id in (2, 0):
            table.decommission(table.minidisks[mdisk_id], seq=mdisk_id + 1,
                               draining=True)
        assert table.draining == [2, 0]          # FIFO, not id order
        assert [m.mdisk_id for m in table.active] == [1]
        assert table.minidisks[2].is_readable
        table.audit()
        table.release(table.minidisks[2])
        assert table.draining == [0]
        assert table.minidisks[2].status is MinidiskStatus.DECOMMISSIONED
        assert table.minidisks[2].decommissioned_seq == 3
        table.audit()

    def test_draining_minidisk_cannot_be_decommissioned_again(self):
        table = MinidiskTable(16, count=2)
        table.decommission(table.minidisks[0], seq=1, draining=True)
        with pytest.raises(ConfigError):
            table.decommission(table.minidisks[0], seq=2, draining=True)
        with pytest.raises(ConfigError):
            table.decommission(table.minidisks[0], seq=2)
        table.audit()

    def test_release_requires_draining(self):
        table = MinidiskTable(16, count=2)
        with pytest.raises(ConfigError):
            table.release(table.minidisks[0])

    def test_mint_appends_in_id_order(self):
        table = MinidiskTable(16, count=2)
        table.decommission(table.minidisks[0], seq=1)
        minted = table.mint(level=1, seq=2)
        assert (minted.mdisk_id, minted.level, minted.created_seq) == (2, 1, 2)
        assert [m.mdisk_id for m in table.active] == [1, 2]
        assert table.advertised_lbas == 32
        table.audit()

    def test_restore_round_trips_rows(self):
        table = MinidiskTable(16, count=4)
        table.decommission(table.minidisks[3], seq=1, draining=True)
        table.decommission(table.minidisks[1], seq=2, draining=True)
        table.release(table.minidisks[3])
        table.mint(level=1, seq=3)
        restored = MinidiskTable(16, count=1)
        restored.restore(table.rows(), table.draining)
        assert restored.rows() == table.rows()
        assert restored.draining == [1]
        assert ([m.mdisk_id for m in restored.active]
                == [m.mdisk_id for m in table.active] == [0, 2, 4])
        assert restored.advertised_lbas == table.advertised_lbas == 48
        restored.audit()

    def test_audit_catches_a_status_assigned_behind_the_table(self):
        table = MinidiskTable(16, count=2)
        table.minidisks[0].status = MinidiskStatus.DECOMMISSIONED
        with pytest.raises(AssertionError):
            table.audit()
