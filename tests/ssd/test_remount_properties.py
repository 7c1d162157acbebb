"""Property tests: crash-at-any-point consistency and state equality.

Hypothesis drives a random op sequence, crashes the device at an arbitrary
point (NVRAM intact), remounts, and checks that the recovered device
agrees with a shadow model for every acknowledged write — the fundamental
durability contract.

The state-equality class goes further: after a crash with no pending
trims (trims are not journaled, so trimmed data legitimately resurrects),
``_rebuild_from_flash`` must reconstruct the *exact* fast-path state the
live device held — mapping tables, per-block valid counts, erase counts,
dead/free/closed block sets, live-LBA counter — not merely equivalent
data. This pins the rebuild path to the same invariants
``_audit_fastpath`` enforces on the incremental path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ssd.ftl import FTLConfig, PageMappedFTL

N_LBAS = 96

operation = st.one_of(
    st.tuples(st.just("write"), st.integers(0, N_LBAS - 1),
              st.binary(min_size=1, max_size=12)),
    st.tuples(st.just("flush"), st.none(), st.none()),
)


def fresh_ftl() -> PageMappedFTL:
    geometry = FlashGeometry(blocks=12, fpages_per_block=4)
    chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                     inject_errors=False)
    return PageMappedFTL(chip, N_LBAS,
                         FTLConfig(buffer_opages=6, gc_reserve_blocks=2))


class TestCrashConsistency:
    @given(ops=st.lists(operation, min_size=1, max_size=80),
           crash_fraction=st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_remount_agrees_with_shadow(self, ops, crash_fraction):
        ftl = fresh_ftl()
        shadow: dict[int, bytes] = {}
        crash_point = max(1, int(len(ops) * crash_fraction))
        for op, lba, payload in ops[:crash_point]:
            if op == "write":
                ftl.write(lba, payload)
                shadow[lba] = payload
            else:
                ftl.flush()
        # Power loss with NVRAM intact: buffer contents survive.
        entries = [(lba, ftl.buffer.get(lba)) for lba in ftl.buffer.keys()]
        recovered = PageMappedFTL.remount(ftl.chip, N_LBAS, ftl.config,
                                          entries)
        for lba in range(N_LBAS):
            expected = shadow.get(lba, b"")
            assert recovered.read(lba).rstrip(b"\0") == \
                expected.rstrip(b"\0")

    @given(ops=st.lists(operation, min_size=1, max_size=60))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_nvram_loss_preserves_flushed_prefix(self, ops):
        ftl = fresh_ftl()
        durable: dict[int, bytes] = {}   # state as of the last flush
        pending: dict[int, bytes] = {}
        for op, lba, payload in ops:
            if op == "write":
                ftl.write(lba, payload)
                pending[lba] = payload
            else:
                ftl.flush()
                durable.update(pending)
                pending.clear()
        recovered = PageMappedFTL.remount(ftl.chip, N_LBAS, ftl.config,
                                          buffer_entries=None)
        for lba, expected in durable.items():
            if lba in pending:
                # Rewritten after the flush: the device may legitimately
                # hold either the durable or a later (drained) version.
                got = recovered.read(lba).rstrip(b"\0")
                assert got in (expected.rstrip(b"\0"),
                               pending[lba].rstrip(b"\0"))
            else:
                assert recovered.read(lba).rstrip(b"\0") == \
                    expected.rstrip(b"\0")


def assert_state_equal(live: PageMappedFTL,
                       recovered: PageMappedFTL) -> None:
    """Recovered fast-path state must equal the live device's, exactly.

    Open blocks are the one sanctioned difference: remount deliberately
    closes any partially written open block (and frees never-written
    ones), so the expected closed/free sets are adjusted for blocks that
    were open at crash time.
    """
    recovered._audit_fastpath()
    assert recovered._l2p == live._l2p
    assert recovered._valid_counts == live._valid_counts
    assert recovered._mapped_lbas == live._mapped_lbas
    assert recovered.live_lbas() == live.live_lbas()
    # Erase counts need no rebuild: the allocator reads them off the
    # chip, which is all that survives the crash.
    assert recovered.chip is live.chip
    assert recovered._dead_blocks == live._dead_blocks
    assert recovered.usable_opage_slots() == live.usable_opage_slots()
    # Partition check: open blocks with >=1 programmed fPage close on
    # remount; untouched open blocks return to the free pool.
    expected_closed = set(live._closed_blocks)
    expected_free = set(live._free_blocks.ordered())
    for state in live._open.values():
        if state is None:
            continue
        block, cursor = state
        (expected_closed if cursor > 0 else expected_free).add(block)
    assert set(recovered._closed_blocks.ordered()) == expected_closed
    assert set(recovered._free_blocks.ordered()) == expected_free
    assert {k: recovered.buffer.get(k) for k in recovered.buffer.keys()} \
        == {k: live.buffer.get(k) for k in live.buffer.keys()}


class TestRemountStateEquality:
    @given(ops=st.lists(operation, min_size=1, max_size=80),
           crash_fraction=st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_rebuild_reconstructs_fastpath_state(self, ops,
                                                 crash_fraction):
        ftl = fresh_ftl()
        crash_point = max(1, int(len(ops) * crash_fraction))
        for op, lba, payload in ops[:crash_point]:
            if op == "write":
                ftl.write(lba, payload)
            else:
                ftl.flush()
        entries = [(lba, ftl.buffer.get(lba)) for lba in ftl.buffer.keys()]
        recovered = PageMappedFTL.remount(ftl.chip, N_LBAS, ftl.config,
                                          entries)
        assert_state_equal(ftl, recovered)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_state_equality_under_wear(self, make_chip, ftl_config, seed):
        """Same property on a worn device: low PEC limit and process
        variation drive pages through tiredness levels (and blocks to
        death) before the crash."""
        ftl = PageMappedFTL.for_chip(
            make_chip(seed=seed, inject_errors=False), ftl_config)
        rng = np.random.default_rng(seed)
        payload_pool = [bytes([i]) * 12 for i in range(7)]
        for i in range(1200):
            lba = int(rng.integers(0, ftl.n_lbas))
            ftl.write(lba, payload_pool[i % 7])
            if i % 97 == 0:
                ftl.flush()
        entries = [(lba, ftl.buffer.get(lba)) for lba in ftl.buffer.keys()]
        recovered = PageMappedFTL.remount(ftl.chip, ftl.n_lbas,
                                          ftl.config, entries)
        assert_state_equal(ftl, recovered)
        # And the recovered device keeps serving the same data.
        for lba in range(ftl.n_lbas):
            assert recovered.read(lba) == ftl.read(lba)
