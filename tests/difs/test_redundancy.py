"""Unit tests for the redundancy-scheme abstraction."""

import pytest

from repro.errors import ConfigError, DiFSError
from repro.difs.redundancy import (
    ErasureCoding,
    Replication,
    make_scheme,
)

OPAGE = 64  # small pages keep the tests readable


class TestReplication:
    def test_shape(self):
        scheme = Replication(3)
        assert scheme.total_units == 3
        assert scheme.min_units == 1
        assert scheme.unit_lbas(16) == 16
        assert scheme.storage_overhead == 3.0

    def test_encode_identical_units(self):
        scheme = Replication(2)
        units = scheme.encode(b"hello", 4, OPAGE)
        assert len(units) == 2
        assert units[0] == units[1]
        assert len(units[0]) == 4
        assert units[0][0].startswith(b"hello")

    def test_decode_any_unit(self):
        scheme = Replication(3)
        units = scheme.encode(b"payload", 2, OPAGE)
        out = scheme.decode({2: units[2]}, 2, OPAGE)
        assert out.rstrip(b"\0") == b"payload"

    def test_rebuild_is_copy(self):
        scheme = Replication(3)
        units = scheme.encode(b"x", 2, OPAGE)
        assert scheme.rebuild(1, {0: units[0]}, 2, OPAGE) == units[0]

    def test_errors(self):
        scheme = Replication(2)
        with pytest.raises(DiFSError):
            scheme.decode({}, 2, OPAGE)
        with pytest.raises(ConfigError):
            scheme.rebuild(5, {0: [b""]}, 2, OPAGE)
        with pytest.raises(ConfigError):
            Replication(0)


class TestErasureCoding:
    def test_shape(self):
        scheme = ErasureCoding(4, 2)
        assert scheme.total_units == 6
        assert scheme.min_units == 4
        assert scheme.unit_lbas(16) == 4
        assert scheme.unit_lbas(17) == 5  # ceil
        assert scheme.storage_overhead == pytest.approx(1.5)

    def test_roundtrip_via_any_k_units(self):
        scheme = ErasureCoding(4, 2)
        data = b"the quick brown fox" * 11
        units = scheme.encode(data, 16, OPAGE)
        assert len(units) == 6
        picked = {i: units[i] for i in (0, 2, 4, 5)}
        out = scheme.decode(picked, 16, OPAGE)
        assert out.rstrip(b"\0") == data

    def test_systematic_data_units_hold_data(self):
        scheme = ErasureCoding(2, 1)
        data = b"A" * OPAGE + b"B" * OPAGE
        units = scheme.encode(data, 2, OPAGE)
        assert units[0][0] == b"A" * OPAGE
        assert units[1][0] == b"B" * OPAGE

    def test_rebuild_matches_original_unit(self):
        scheme = ErasureCoding(3, 2)
        units = scheme.encode(b"payload" * 40, 9, OPAGE)
        for missing in range(5):
            survivors = {i: units[i] for i in range(5) if i != missing}
            rebuilt = scheme.rebuild(missing, survivors, 9, OPAGE)
            assert rebuilt == units[missing]

    def test_page_granular_units(self):
        scheme = ErasureCoding(4, 2)
        units = scheme.encode(b"z" * 100, 16, OPAGE)
        for unit in units:
            assert len(unit) == 4
            assert all(len(page) == OPAGE for page in unit)


class TestFactory:
    def test_replication(self):
        scheme = make_scheme("replication", replication=2)
        assert isinstance(scheme, Replication)
        assert scheme.total_units == 2

    def test_rs(self):
        scheme = make_scheme("rs", rs_k=6, rs_m=3)
        assert isinstance(scheme, ErasureCoding)
        assert scheme.total_units == 9

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_scheme("raid5")


CHUNK_LBAS = 8
CHUNK_BYTES = CHUNK_LBAS * OPAGE
SCHEMES = {"replication": lambda: Replication(3),
           "rs": lambda: ErasureCoding(4, 2)}


def _pattern(length: int) -> bytes:
    return bytes((7 * i + 1) % 251 or 1 for i in range(length))


@pytest.mark.parametrize("scheme_name", SCHEMES)
class TestEncodePages:
    """Encode pads nothing twice and manufactures no zero pages."""

    @pytest.mark.parametrize("length", [0, 1, OPAGE - 1, OPAGE, OPAGE + 1,
                                        CHUNK_BYTES])
    def test_round_trip_is_the_padded_chunk(self, scheme_name, length):
        scheme = SCHEMES[scheme_name]()
        data = _pattern(length)
        units = scheme.encode(data, CHUNK_LBAS, OPAGE)
        assert len(units) == scheme.total_units
        for unit in units:
            assert len(unit) == scheme.unit_lbas(CHUNK_LBAS)
            assert all(type(page) is bytes for page in unit)
            # Only the tail page may be short, and it is the caller's bytes.
            short = [i for i, page in enumerate(unit) if len(page) != OPAGE]
            assert short in ([], [length // OPAGE])
            if short:
                assert unit[short[0]] == data[short[0] * OPAGE:]
        first = dict(list(enumerate(units))[:scheme.min_units])
        last = dict(list(enumerate(units))[-scheme.min_units:])
        for picked in (first, last):
            assert scheme.decode(picked, CHUNK_LBAS, OPAGE) == data.ljust(
                CHUNK_BYTES, b"\0")

    def test_whole_pages_are_the_callers_bytes(self, scheme_name):
        scheme = SCHEMES[scheme_name]()
        data = _pattern(CHUNK_BYTES)
        units = scheme.encode(data, CHUNK_LBAS, OPAGE)
        pages = [page for unit in units[:scheme.min_units] for page in unit]
        assert b"".join(pages) == data


def test_tail_pages_of_a_short_chunk_are_one_object():
    units = Replication(3).encode(b"short body", CHUNK_LBAS, OPAGE)
    tails = [page for unit in units for page in unit[1:]]
    assert len(tails) == 3 * (CHUNK_LBAS - 1)
    assert all(page is tails[0] for page in tails)      # not just equal
    assert tails[0] == bytes(OPAGE)
    assert units[0][0] == b"short body"
    # The next chunk's tail, an empty chunk and an RS fragment's pages
    # past the end of a short fragment are that same page.
    assert Replication(2).encode(b"x", 2, OPAGE)[1][1] is tails[0]
    assert Replication(1).encode(b"", 1, OPAGE)[0][0] is tails[0]
    from repro.difs.redundancy import _split_pages
    assert _split_pages(b"ab", OPAGE, 3)[2] is tails[0]
    assert _split_pages(b"a" * (2 * OPAGE + 5), OPAGE, 2) == [
        b"a" * OPAGE] * 2                               # truncates, as before


def test_short_chunk_updates_retain_no_padding(make_salamander):
    """200 updates of 32-byte chunks on a small cluster keep under 128 KiB
    of page-sized allocations alive (one fresh zero page per LBA: ~12 MiB;
    a 4 KiB padded tail page per chunk: ~270 KiB)."""
    import tracemalloc

    from repro.difs.cluster import Cluster, ClusterConfig

    cluster = Cluster(ClusterConfig(replication=3, chunk_lbas=16), seed=5)
    for node in range(4):
        cluster.add_node(f"n{node}")
        cluster.add_device(f"n{node}", make_salamander(
            seed=node + 1, inject_errors=False))
    for index in range(8):
        cluster.create_chunk(f"c{index}", bytes([index + 1]) * 32)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for op in range(200):
            cluster.update_chunk(f"c{op % 8}", bytes([op % 250 + 1]) * 32)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # Page-sized allocations still alive: payload pages kept by the
    # write buffers and chips (whatever module's line allocated them).
    retained = sum(stat.size_diff for stat in after.compare_to(
        before, "lineno") if stat.size_diff > 0 and stat.count_diff > 0
        and stat.size_diff / stat.count_diff >= 4096)
    assert retained < 128 << 10, f"{retained / 2**10:.0f} KiB of pages kept"
    assert cluster.read_chunk("c7") == (bytes([199 % 250 + 1]) * 32).ljust(
        16 * 4096, b"\0")
