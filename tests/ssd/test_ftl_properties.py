"""Property-based tests: the FTL is a correct block device.

Hypothesis drives random write/trim/read/flush sequences against a shadow
dict; the FTL must agree with the shadow at every point. Error injection is
off so any divergence is a logic bug, not a media event.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ssd.ftl import FTLConfig, PageMappedFTL

N_LBAS = 96

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, N_LBAS - 1),
                  st.binary(min_size=0, max_size=16)),
        st.tuples(st.just("trim"), st.integers(0, N_LBAS - 1), st.none()),
        st.tuples(st.just("read"), st.integers(0, N_LBAS - 1), st.none()),
        st.tuples(st.just("flush"), st.none(), st.none()),
    ),
    min_size=1, max_size=120,
)


def fresh_ftl() -> PageMappedFTL:
    geometry = FlashGeometry(blocks=12, fpages_per_block=4)
    chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                     inject_errors=False)
    return PageMappedFTL(chip, N_LBAS,
                         FTLConfig(buffer_opages=6, gc_reserve_blocks=2))


class TestFTLAgainstShadow:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_shadow_dict(self, ops):
        ftl = fresh_ftl()
        shadow: dict[int, bytes] = {}
        for op, lba, payload in ops:
            if op == "write":
                ftl.write(lba, payload)
                shadow[lba] = payload
            elif op == "trim":
                ftl.trim(lba)
                shadow.pop(lba, None)
            elif op == "flush":
                ftl.flush()
            else:  # read
                expected = shadow.get(lba, b"")
                assert ftl.read(lba).rstrip(b"\0") == expected.rstrip(b"\0")
        ftl.flush()
        for lba in range(N_LBAS):
            expected = shadow.get(lba, b"")
            assert ftl.read(lba).rstrip(b"\0") == expected.rstrip(b"\0")

    @given(ops=operations)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_accounting_invariants(self, ops):
        ftl = fresh_ftl()
        shadow: dict[int, bytes] = {}
        for op, lba, payload in ops:
            if op == "write":
                ftl.write(lba, payload)
                shadow[lba] = payload
            elif op == "trim":
                ftl.trim(lba)
                shadow.pop(lba, None)
            elif op == "flush":
                ftl.flush()
            else:
                ftl.read(lba)
            # Live LBAs always equals the shadow's population.
            assert ftl.live_lbas() == len(shadow)
            # Valid counts never go negative or exceed block capacity.
            block_slots = (ftl.geometry.fpages_per_block
                           * ftl.geometry.opages_per_fpage)
            assert min(ftl._valid_counts) >= 0
            assert max(ftl._valid_counts) <= block_slots

    @given(seed=st.integers(0, 2**16), burst=st.integers(100, 400))
    @settings(max_examples=15, deadline=None)
    def test_heavy_uniform_churn_never_corrupts(self, seed, burst):
        import numpy as np
        ftl = fresh_ftl()
        rng = np.random.default_rng(seed)
        latest = {}
        for i in range(burst):
            lba = int(rng.integers(0, N_LBAS))
            payload = f"{lba}:{i}".encode()
            ftl.write(lba, payload)
            latest[lba] = payload
        for lba, payload in latest.items():
            assert ftl.read(lba).rstrip(b"\0") == payload
