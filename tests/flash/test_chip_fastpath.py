"""Equivalence tests for the chip-level fast paths.

The chip precomputes per-level ECC tables, memoises the wear RBER per PEC
value and maintains per-block capacity counters incrementally. Each
shortcut must be observationally identical to the straightforward
recomputation it replaced. GC's relocation reader reads slot by slot
through the point ``read`` and must consume *exactly the same RNG draws
in the same order* as those reads made one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import context
from repro.errors import ProgramError, ProgramFaultError, UncorrectableError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.flash.chip import FlashChip, PageState
from repro.flash.geometry import FlashGeometry
from repro.flash.tiredness import TirednessPolicy, calibrate_power_law
from repro.obs.endurance import EnduranceLedger
from repro.ssd.ftl import LOST, PageMappedFTL


def make_one(seed: int = 21, **kwargs) -> FlashChip:
    """An 8x8 chip; the same arguments make the same chip (same
    variation, same RNG)."""
    geometry = FlashGeometry(blocks=8, fpages_per_block=8)
    policy = TirednessPolicy(geometry=geometry)
    model = calibrate_power_law(policy, pec_limit_l0=50)
    return FlashChip(geometry, rber_model=model, policy=policy, seed=seed,
                     **kwargs)


def make_pair(seed: int = 21, **kwargs) -> tuple[FlashChip, FlashChip]:
    """Two chips with identical construction (same variation, same RNG)."""
    return make_one(seed, **kwargs), make_one(seed, **kwargs)


class TestRberMemo:
    def test_rber_of_matches_direct_model_evaluation(self, make_chip):
        chip = make_chip(seed=20)
        for _ in range(3):
            chip.erase(1)
        for fpage in chip.geometry.fpage_range_of_block(1):
            expected = (float(chip.rber_model.rber(chip.pec(fpage)))
                        * chip.variation(fpage))
            assert chip.rber_of(fpage) == pytest.approx(expected, rel=0,
                                                        abs=0.0)

    def test_memo_survives_pec_changes(self, make_chip):
        chip = make_chip(seed=20)
        before = chip.rber_of(0)
        chip.erase(0)
        after = chip.rber_of(0)
        assert after > before  # wear moved; the memo did not go stale


class TestRequiredLevel:
    def test_matches_naive_ladder_walk(self, make_chip):
        chip = make_chip(seed=22)
        rng = np.random.default_rng(22)
        for _ in range(40):
            block = int(rng.integers(0, chip.geometry.blocks))
            chip.erase(block)
        for fpage in range(chip.geometry.total_fpages):
            rber = chip.rber_of(fpage)
            naive = chip.policy.dead_level
            for level in chip.policy.usable_levels:
                if rber <= chip.policy.max_rber(level):
                    naive = level
                    break
            assert chip.required_level(fpage) == naive

    def test_worn_free_pages_matches_per_page_sweep(self, make_chip):
        chip = make_chip(seed=23, variation_sigma=0.5)
        for _ in range(30):
            chip.erase(2)
        expected = []
        for fpage in chip.geometry.fpage_range_of_block(2):
            if chip.state(fpage) is not PageState.FREE:
                continue
            required = chip.required_level(fpage)
            if required > chip.level(fpage):
                expected.append((fpage, required))
        assert chip.worn_free_pages(2) == expected


def remounted_pair(fpage: int, seed: int, wear: int = 0, **kwargs):
    """Two same-seed FTLs whose map puts the four LBAs from ``fpage // 2``
    on the four slots of ``fpage``: programmed raw, ``wear`` cycles added
    by hand under the data (nothing read yet, so no cost to forget),
    found by the OOB replay."""
    ftls = []
    for chip in make_pair(seed, **kwargs):
        first = fpage // 2
        chip.program(fpage, [bytes([i]) * 8 for i in range(4)],
                     oob=(tuple(range(first, first + 4)), 1))
        chip._block_pec[fpage // chip.geometry.fpages_per_block] += wear
        ftls.append(PageMappedFTL.remount(chip, 64))
    return ftls


def live_versus_point_reads(relocating, pointwise, fpage: int) -> int:
    """``relocating._read_live(fpage, 1)`` equals per-slot ``read()`` of
    the mapped slots on the twin: payloads or loss, RNG state, stats and
    per-channel busy time. Returns how many slots were lost."""
    spf = relocating._slots_per_fpage_max
    owners = relocating._p2l[fpage * spf:(fpage + 1) * spf]
    lbas, payloads = relocating._read_live(fpage, 1)
    got = dict(zip(lbas, payloads))
    lost = 0
    for slot, lba in enumerate(owners):
        if lba < 0:
            continue
        try:
            data, _latency = pointwise.chip.read(fpage, slot)
        except UncorrectableError:
            assert lba not in got and relocating._l2p[lba] == LOST
            lost += 1
        else:
            assert got.pop(lba) == data
    assert not got
    batch, sequential = relocating.chip, pointwise.chip
    assert (batch.rng.bit_generator.state
            == sequential.rng.bit_generator.state)
    assert batch.stats.snapshot() == sequential.stats.snapshot()
    assert batch.channel_busy_us == sequential.channel_busy_us
    assert (batch._reads_since_erase == sequential._reads_since_erase).all()
    return lost


class TestReadOpagesBitIdentity:
    """GC and scrub relocation (``_read_live``) reads each live slot
    through the point ``read``, in slot order, and marks a slot that
    fails ECC lost instead of raising."""

    @pytest.mark.parametrize("kwargs", [
        {},
        {"read_disturb_rber": 1e-9},
    ])
    def test_same_rng_draws_and_stats_as_sequential_reads(self, kwargs):
        # Worn to where this seed's ECC draws fail some slots, not all.
        twins = remounted_pair(0, seed=24, wear=47, **kwargs)
        assert 0 < live_versus_point_reads(*twins, fpage=0) < 4

    def test_subset_of_slots(self):
        twins = remounted_pair(8, seed=25)
        for ftl in twins:
            ftl.trim(4)
            ftl.trim(6)
        assert live_versus_point_reads(*twins, fpage=8) == 0


OPAGE = FlashGeometry().opage_bytes
#: One step of a program walk: ``("erase", block)``, or ``("program",
#: fpage, level to raise a FREE page to first, payloads)`` — short
#: payloads, full-size ones, more than any level holds.
payload = st.one_of(st.binary(max_size=12), st.just(b"\x5a" * OPAGE))
step = st.one_of(
    st.tuples(st.just("erase"), st.integers(0, 7)),
    st.tuples(st.just("program"), st.integers(0, 63), st.integers(0, 3),
              st.lists(payload, min_size=1, max_size=5)))


def make_twins(when: int, count: int) -> list[FlashChip]:
    """Two same-seed chips, each with its own injector (refusing
    programs ``when`` .. ``when + count - 1``) and wear ledger."""
    plan = FaultPlan(events=(FaultSpec(site="chip.program", fault="fail",
                                       when=when, count=count),))
    twins = []
    for _ in range(2):
        with context.scoped(faults=FaultInjector(plan),
                            endurance=EnduranceLedger()):
            twins.append(make_one(seed=28, now_fn=lambda: 86400.0))
    return twins


class TestProgramTrusted:
    """``program_trusted`` is the body of ``program``: a valid batch
    through either entry leaves every observable the same."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(step, max_size=40), when=st.integers(1, 12),
           count=st.integers(1, 3))
    def test_public_and_trusted_entries_agree(self, steps, when, count):
        public, trusted = make_twins(when, count)
        for sequence, (kind, target, *rest) in enumerate(steps, start=1):
            if kind == "erase":
                assert public.erase(target) == trusted.erase(target)
                continue
            level, payloads = rest
            if not public.is_free(target):
                continue
            for chip in (public, trusted):
                if level > chip.level(target):
                    chip.set_level(target, level)
            level = public.level(target)
            capacity = public.policy.data_opages(level)
            payloads = payloads[:capacity]
            lbas = [sequence * 8 + slot for slot in range(len(payloads))]
            pad = capacity - len(payloads)
            outcomes = []
            for program in (
                    lambda: public.program(
                        target, payloads + [b""] * pad,
                        oob=(tuple(lbas) + (None,) * pad, sequence)),
                    lambda: trusted.program_trusted(
                        target, level, lbas, payloads, sequence)):
                try:
                    outcomes.append(program())
                except ProgramFaultError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
        assert public._data == trusted._data
        pages = range(public.geometry.total_fpages)
        assert [*map(public.read_oob, pages)] == [
            *map(trusted.read_oob, pages)]
        assert public._state == trusted._state
        assert (public._programmed_at == trusted._programmed_at).all()
        assert public.stats.snapshot() == trusted.stats.snapshot()
        assert public.channel_busy_us == trusted.channel_busy_us
        assert (public._faults.hits("chip.program")
                == trusted._faults.hits("chip.program"))
        assert public._faults.fired == trusted._faults.fired
        for attribute in ("programs", "program_opages", "total_programs",
                          "total_program_opages"):
            assert (getattr(public._endurance, attribute)
                    == getattr(trusted._endurance, attribute))

    @pytest.mark.parametrize("rejection", [
        "retired", "written", "dead level", "wrong count", "oversize",
        "oob length"])
    def test_public_program_still_rejects(self, rejection):
        # Every attempt after the first fails: a rejection that counted
        # as an attempt would surface as the injected failure instead.
        plan = FaultPlan(events=(FaultSpec(site="chip.program",
                                           fault="fail", when=2,
                                           count=10),))
        with context.scoped(faults=FaultInjector(plan)):
            chip = make_one(seed=29)
        payloads, oob = [b"a"] * 4, None
        if rejection == "retired":
            chip.retire(0)
        elif rejection == "written":
            chip.program_trusted(0, 0, [1], [b"a"], 1)
        elif rejection == "dead level":
            chip._level[0] = chip.policy.dead_level
        elif rejection == "wrong count":
            payloads = [b"a"] * 3
        elif rejection == "oversize":
            payloads = [b"a", bytes(OPAGE + 1), b"", b""]
        else:
            oob = ((1, 2, 3), 1)
        hits = chip._faults.hits("chip.program")
        with pytest.raises(ProgramError) as refused:
            chip.program(0, payloads, oob=oob)
        assert type(refused.value) is ProgramError
        assert chip._faults.hits("chip.program") == hits
        assert chip.stats.programs == (rejection == "written")


class TestBlockAccounting:
    def test_usable_slots_track_retire_and_promote(self, make_chip):
        chip = make_chip(seed=26)
        policy = chip.policy
        rng = np.random.default_rng(26)
        for _ in range(200):
            fpage = int(rng.integers(0, chip.geometry.total_fpages))
            action = rng.random()
            if action < 0.4:
                chip.retire(fpage)
            elif action < 0.8:
                current = chip.level(fpage)
                if (chip.state(fpage) is not PageState.WRITTEN
                        and current < policy.dead_level):
                    chip.set_level(fpage, current + 1)
            else:
                block = fpage // chip.geometry.fpages_per_block
                try:
                    chip.erase(block)
                except Exception:
                    pass
        # Recompute from scratch and compare with the incremental counters.
        states = chip.state_array()
        levels = chip.level_array()
        per_fpage = np.where(states == 2, 0, policy.dead_level - levels)
        per_block = per_fpage.reshape(
            chip.geometry.blocks, chip.geometry.fpages_per_block).sum(axis=1)
        all_blocks = np.arange(chip.geometry.blocks)
        assert (chip.usable_slots_of_blocks(all_blocks) == per_block).all()
        assert chip.usable_slots_total() == int(per_block.sum())
        retired = (states == 2).reshape(
            chip.geometry.blocks, chip.geometry.fpages_per_block)
        for block in range(chip.geometry.blocks):
            assert chip.block_fully_retired(block) == bool(
                retired[block].all())

    @pytest.mark.parametrize("seed", [27, 28, 29])
    def test_wear_views_equal_a_per_fpage_recount(self, make_chip, seed):
        """The chip keeps one P/E count per block and one level list;
        every per-fPage view of them equals a count kept per fPage, the
        way the chip once kept it, after random erase, ``set_level``,
        retire and program steps."""
        chip = make_chip(seed=seed)
        policy, fpb = chip.policy, chip.geometry.fpages_per_block
        n = chip.geometry.total_fpages
        pec, level = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        rng = np.random.default_rng(seed)
        for _ in range(300):
            fpage = int(rng.integers(0, n))
            block = fpage // fpb
            action = rng.random()
            if action < 0.35:
                if not chip.block_fully_retired(block):
                    chip.erase(block)
                    pec[block * fpb:(block + 1) * fpb] += 1
            elif action < 0.6:
                if (chip.state(fpage) is not PageState.WRITTEN
                        and level[fpage] < policy.dead_level):
                    target = int(rng.integers(level[fpage],
                                              policy.dead_level + 1))
                    chip.set_level(fpage, target)
                    level[fpage] = target
            elif action < 0.7:
                chip.retire(fpage)
            elif chip.state(fpage) is PageState.FREE:
                chip.program(fpage, [b"w"] * policy.data_opages(
                    int(level[fpage])))
            assert chip.pec(fpage) == pec[fpage]
            assert chip.level(fpage) == level[fpage]
        assert [chip.pec(f) for f in range(n)] == pec.tolist()
        assert [chip.level(f) for f in range(n)] == level.tolist()
        for view, recount in ((chip.pec_array(), pec),
                              (chip.level_array(), level)):
            assert view.dtype == np.int64
            assert np.array_equal(view, recount)
        retired = int(np.count_nonzero(chip.state_array() == 2))
        summary = chip.wear_summary()
        assert summary == {
            "mean_pec": float(pec.mean()),
            "max_pec": int(pec.max()),
            "retired_fpages": retired,
            "retired_fraction": retired / n,
            "mean_level": float(level.mean()),
        }
        assert [type(v) for v in summary.values()] == [
            float, int, int, float, float]
        assert {type(v) for v in chip._block_pec + chip._level} == {int}
