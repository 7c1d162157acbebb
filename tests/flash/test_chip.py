"""Unit tests for the functional flash chip."""

import inspect
import textwrap

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    EraseError,
    ProgramError,
    UncorrectableError,
)
from repro.flash import chip as chip_module
from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.ssd.ftl import PageMappedFTL


@pytest.fixture
def chip(tiny_geometry, policy, fast_model):
    return FlashChip(tiny_geometry, rber_model=fast_model, policy=policy,
                     seed=5, variation_sigma=0.0)


def payloads_for(chip, fpage):
    count = chip.policy.data_opages(chip.level(fpage))
    return [f"data-{fpage}-{slot}".encode() for slot in range(count)]


class TestProgramRead:
    def test_roundtrip(self, chip):
        chip.program(3, payloads_for(chip, 3))
        data, latency = chip.read(3, 1)
        assert data.rstrip(b"\0") == b"data-3-1"
        assert latency > 0

    def test_payload_padded_to_opage(self, chip, ftl_config):
        # The chip stores an oPage as written; padding to the oPage size
        # happens where bytes leave the device, in the FTL's reads.
        chip.program(0, payloads_for(chip, 0))
        assert chip.read(0, 0)[0] == b"data-0-0"
        assert chip.read(0)[0] == tuple(payloads_for(chip, 0))
        ftl = PageMappedFTL(chip, 32, ftl_config)
        ftl.write(5, b"short")
        ftl.flush()
        assert ftl.read(5) == b"short".ljust(chip.geometry.opage_bytes,
                                             b"\0")

    def test_cannot_program_written_page(self, chip):
        chip.program(0, payloads_for(chip, 0))
        with pytest.raises(ProgramError):
            chip.program(0, payloads_for(chip, 0))

    def test_wrong_payload_count_rejected(self, chip):
        with pytest.raises(ProgramError):
            chip.program(0, [b"only-one"])

    def test_oversized_payload_rejected(self, chip):
        big = b"x" * (chip.geometry.opage_bytes + 1)
        with pytest.raises(ProgramError):
            chip.program(0, [big, b"", b"", b""])

    def test_read_unwritten_page_rejected(self, chip):
        with pytest.raises(ProgramError):
            chip.read(0, 0)

    def test_read_slot_out_of_range(self, chip):
        chip.program(0, payloads_for(chip, 0))
        with pytest.raises(IndexError):
            chip.read(0, 4)

    def test_stats_count_operations(self, chip):
        chip.program(0, payloads_for(chip, 0))
        chip.read(0, 0)
        chip.erase(1)
        assert chip.stats.programs == 1
        assert chip.stats.reads == 1
        assert chip.stats.erases == 1
        assert chip.stats.busy_us > 0


class TestErase:
    def test_erase_increments_pec_and_frees(self, chip):
        chip.program(0, payloads_for(chip, 0))
        assert chip.state(0) is PageState.WRITTEN
        chip.erase(0)
        assert chip.state(0) is PageState.FREE
        for fpage in chip.geometry.fpage_range_of_block(0):
            assert chip.pec(fpage) == 1

    def test_erase_drops_data(self, chip):
        chip.program(0, payloads_for(chip, 0))
        chip.erase(0)
        with pytest.raises(ProgramError):
            chip.read(0, 0)

    def test_erase_fully_retired_block_rejected(self, chip):
        for fpage in chip.geometry.fpage_range_of_block(2):
            chip.retire(fpage)
        with pytest.raises(EraseError):
            chip.erase(2)

    def test_erase_skips_retired_pages(self, chip):
        pages = list(chip.geometry.fpage_range_of_block(0))
        chip.retire(pages[0])
        chip.erase(0)
        assert chip.state(pages[0]) is PageState.RETIRED
        assert chip.state(pages[1]) is PageState.FREE


def _walk_oob(chip) -> None:
    """Program, erase and retire pages; after each step, ``read_oob`` must
    be ``(LBAs padded with None to the level's data oPages, sequence)``
    for a written page with OOB and None for every other page."""
    expected = {}

    def check():
        chip._audit_store()
        assert [chip.read_oob(f)
                for f in range(chip.geometry.total_fpages)] == [
            expected.get(f) for f in range(chip.geometry.total_fpages)]

    chip.program(2, payloads_for(chip, 2), oob=((10, 11, 12, 13), 1))
    expected[2] = ((10, 11, 12, 13), 1)
    check()
    chip.program_trusted(1, 0, [20, 21], [b"a", b"b"], 2)         # short
    expected[1] = ((20, 21, None, None), 2)
    check()
    chip.set_level(9, 1)
    chip.program_trusted(9, 1, [30, None], [b"c", b"d"], 3)
    expected[9] = ((30, None, None), 3)
    chip.program(3, payloads_for(chip, 3))                      # no OOB
    chip.program_trusted(10, 0, None, [b"e"], 4)                 # no OOB
    check()
    chip.erase(0)
    del expected[1], expected[2]
    check()
    chip.program_trusted(1, 0, [40], [b"f"], 5)
    expected[1] = ((40, None, None, None), 5)
    chip.retire(9)
    del expected[9]
    check()


#: Seeded breakages of the chip's store -> (method, source edits); the
#: walk (its audit or its ``read_oob`` comparison) must notice each.
STORE_MUTATIONS = {
    "erase keeps the OOB columns": ("erase", [
        ("self._data[start:stop] = self._oob_seq[start:stop] = nothing",
         "self._data[start:stop] = nothing"),
        ("self._oob_lbas[start * spf:stop * spf] = nothing * spf", "pass")]),
    "retire keeps the sequence": ("retire", [
        ("self._data[fpage] = self._oob_seq[fpage] = None",
         "self._data[fpage] = None")]),
    "program skips the pad slots": ("program_trusted", [
        ("(*lbas, *(None,) * pad)", "lbas")]),
}


class TestOutOfBand:
    def test_read_oob_returns_each_page_state_exactly(self, chip):
        _walk_oob(chip)

    @pytest.mark.parametrize("name", STORE_MUTATIONS)
    def test_seeded_mutations_are_caught(self, chip, name, monkeypatch):
        method, edits = STORE_MUTATIONS[name]
        source = textwrap.dedent(inspect.getsource(getattr(FlashChip,
                                                           method)))
        for old, new in edits:
            assert old in source, f"mutation target vanished: {old!r}"
            source = source.replace(old, new, 1)
        namespace: dict = {}
        exec(source, vars(chip_module), namespace)
        monkeypatch.setattr(FlashChip, method, namespace[method])
        with pytest.raises(AssertionError):
            _walk_oob(chip)


class TestLevels:
    def test_set_level_reduces_payload_count(self, chip):
        chip.set_level(0, 1)
        assert chip.policy.data_opages(chip.level(0)) == 3
        chip.program(0, [b"a", b"b", b"c"])
        assert chip.read(0, 2)[0].rstrip(b"\0") == b"c"

    def test_level_cannot_decrease(self, chip):
        chip.set_level(0, 2)
        with pytest.raises(ConfigError):
            chip.set_level(0, 1)

    def test_dead_level_retires(self, chip):
        chip.set_level(0, chip.policy.dead_level)
        assert chip.state(0) is PageState.RETIRED

    def test_cannot_change_level_of_written_page(self, chip):
        chip.program(0, payloads_for(chip, 0))
        with pytest.raises(ProgramError):
            chip.set_level(0, 1)

    def test_program_dead_page_rejected(self, chip):
        chip.set_level(0, chip.policy.dead_level)
        with pytest.raises(ProgramError):
            chip.program(0, [])


class TestWearAndErrors:
    def test_rber_grows_with_wear(self, chip):
        before = chip.rber_of(0)
        for _ in range(5):
            chip.erase(0)
        assert chip.rber_of(0) > before

    def test_required_level_rises_with_wear(self, tiny_geometry, policy,
                                            fast_model):
        chip = FlashChip(tiny_geometry, rber_model=fast_model, policy=policy,
                         seed=5, variation_sigma=0.0)
        assert chip.required_level(0) == 0
        limit = policy.pec_limits(fast_model)[0]
        for _ in range(int(limit) + 1):
            chip.erase(0)
        assert chip.required_level(0) >= 1
        assert chip.is_overworn(0)

    def test_worn_page_reads_eventually_fail(self, tiny_geometry, policy,
                                             fast_model):
        chip = FlashChip(tiny_geometry, rber_model=fast_model, policy=policy,
                         seed=5, variation_sigma=0.0)
        # Push the page far past its L0 limit so failures are certain-ish.
        for _ in range(4 * int(policy.pec_limits(fast_model)[0])):
            chip.erase(0)
        chip.program(0, [b"a", b"b", b"c", b"d"])
        with pytest.raises(UncorrectableError) as excinfo:
            for _ in range(50):
                chip.read(0, 0)
        assert excinfo.value.bit_errors > excinfo.value.correctable
        assert chip.stats.uncorrectable_reads >= 1

    def test_inject_errors_false_never_fails(self, tiny_geometry, policy,
                                             fast_model):
        chip = FlashChip(tiny_geometry, rber_model=fast_model, policy=policy,
                         seed=5, variation_sigma=0.0, inject_errors=False)
        for _ in range(4 * int(policy.pec_limits(fast_model)[0])):
            chip.erase(0)
        chip.program(0, [b"a", b"b", b"c", b"d"])
        for _ in range(50):
            data, _ = chip.read(0, 0)
            assert data.rstrip(b"\0") == b"a"

    def test_variation_is_per_page_and_deterministic(self, tiny_geometry):
        a = FlashChip(tiny_geometry, seed=9, variation_sigma=0.4)
        b = FlashChip(tiny_geometry, seed=9, variation_sigma=0.4)
        assert np.array_equal(a.variation_array(), b.variation_array())
        assert len(np.unique(a.variation_array())) > 1

    def test_wear_summary(self, chip):
        chip.erase(0)
        chip.retire(10)
        summary = chip.wear_summary()
        assert summary["max_pec"] == 1
        assert summary["retired_fpages"] == 1

    def test_policy_geometry_mismatch_rejected(self, policy):
        other = FlashGeometry(blocks=4)
        with pytest.raises(ConfigError):
            FlashChip(other, policy=policy)
