"""Redundancy schemes: n-way replication and RS(k, m) erasure coding.

The diFS stores each chunk as ``total_units`` *units*, one per volume on
distinct nodes; any ``min_units`` of them reconstruct the chunk. The two
classic schemes:

* :class:`Replication` — n identical copies (min 1 to read). Cheap reads
  and repairs, n x storage overhead.
* :class:`ErasureCoding` — systematic RS(k, m): k data units + m parity
  units (min k to read). (k+m)/k x storage, but each repair must read k
  surviving units — *repair amplification*, which interacts interestingly
  with Salamander's many-small-failures model (see the EC bench).

Units are lists of oPage payloads so volumes can store them page by page;
a unit occupies ``unit_lbas(chunk_lbas)`` slots worth of LBAs. A page is
at most one oPage long: a short chunk's tail page is the caller's bytes,
which devices zero-fill on host reads, so decoding widens each page.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache

from repro.errors import ConfigError, DiFSError
from repro.difs.erasure import ReedSolomon


@lru_cache(maxsize=4)
def _zero_page(page_bytes: int) -> bytes:
    return bytes(page_bytes)


def _split_pages(data: bytes, page_bytes: int, pages: int) -> list[bytes]:
    """``data`` as ``pages`` payloads of at most ``page_bytes`` each.

    Whole pages are slices, a partial page is the rest of the data,
    unpadded (the FTL zero-fills it on host reads), and every page past
    the end of the data is the *same* zero page: devices keep every page
    as the object they were handed (write buffer,
    ``FlashChip.program_trusted``, GC relocation), so short chunks share it.
    """
    whole, tail = divmod(len(data), page_bytes)
    out = [data[i * page_bytes:(i + 1) * page_bytes]
           for i in range(min(whole, pages))]
    if tail and whole < pages:
        out.append(data[whole * page_bytes:])
    out.extend([_zero_page(page_bytes)] * (pages - len(out)))
    return out


class RedundancyScheme(ABC):
    """Chunk <-> storage-unit codec."""

    total_units: int
    min_units: int

    @abstractmethod
    def unit_lbas(self, chunk_lbas: int) -> int:
        """oPages one unit occupies for a ``chunk_lbas``-page chunk."""

    @abstractmethod
    def encode(self, data: bytes, chunk_lbas: int,
               opage_bytes: int) -> list[list[bytes]]:
        """Produce ``total_units`` units (page lists) for ``data``."""

    @abstractmethod
    def decode(self, units: dict[int, list[bytes]], chunk_lbas: int,
               opage_bytes: int) -> bytes:
        """Reconstruct the chunk from any ``min_units`` units."""

    @abstractmethod
    def rebuild(self, index: int, units: dict[int, list[bytes]],
                chunk_lbas: int, opage_bytes: int) -> list[bytes]:
        """Recompute the unit at ``index`` from ``min_units`` survivors."""

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per logical byte (1.0 = no redundancy)."""
        return self.total_units / self.min_units


class Replication(RedundancyScheme):
    """n identical copies."""

    def __init__(self, copies: int) -> None:
        if copies < 1:
            raise ConfigError(f"copies must be >= 1, got {copies!r}")
        self.total_units = copies
        self.min_units = 1

    def unit_lbas(self, chunk_lbas: int) -> int:
        return chunk_lbas

    def encode(self, data, chunk_lbas, opage_bytes):
        # One page list for every copy: nothing downstream mutates it.
        return [_split_pages(data, opage_bytes, chunk_lbas)] * self.total_units

    def decode(self, units, chunk_lbas, opage_bytes):
        if not units:
            raise DiFSError("no units available to decode")
        pages = next(iter(units.values()))
        return b"".join([page.ljust(opage_bytes, b"\0") for page in pages])

    def rebuild(self, index, units, chunk_lbas, opage_bytes):
        if not 0 <= index < self.total_units:
            raise ConfigError(f"unit index {index} out of range")
        if not units:
            raise DiFSError("no units available to rebuild from")
        return next(iter(units.values()))

    @property
    def storage_overhead(self) -> float:
        return float(self.total_units)


class ErasureCoding(RedundancyScheme):
    """Systematic RS(k, m) over GF(2^8)."""

    def __init__(self, k: int, m: int) -> None:
        self.rs = ReedSolomon(k, m)
        self.total_units = k + m
        self.min_units = k

    @property
    def k(self) -> int:
        return self.rs.k

    @property
    def m(self) -> int:
        return self.rs.m

    def unit_lbas(self, chunk_lbas: int) -> int:
        return -(-chunk_lbas // self.k)  # ceil

    def _unit_bytes(self, chunk_lbas: int, opage_bytes: int) -> int:
        return self.unit_lbas(chunk_lbas) * opage_bytes

    def encode(self, data, chunk_lbas, opage_bytes):
        # Pad to k whole units: the fragment length is then the unit
        # size and the systematic fragments align with whole oPages.
        stripe_bytes = self.k * self._unit_bytes(chunk_lbas, opage_bytes)
        fragments = self.rs.encode(
            data.ljust(stripe_bytes, b"\0")[:stripe_bytes])
        pages_per_unit = self.unit_lbas(chunk_lbas)
        return [_split_pages(fragment, opage_bytes, pages_per_unit)
                for fragment in fragments]

    def decode(self, units, chunk_lbas, opage_bytes):
        fragments = {index: b"".join(pages)
                     for index, pages in units.items()}
        data = self.rs.decode(fragments,
                              self.k * self._unit_bytes(chunk_lbas,
                                                        opage_bytes))
        return data[:chunk_lbas * opage_bytes]

    def rebuild(self, index, units, chunk_lbas, opage_bytes):
        fragments = {i: b"".join(pages) for i, pages in units.items()}
        fragment = self.rs.rebuild(index, fragments)
        return _split_pages(fragment, opage_bytes,
                            self.unit_lbas(chunk_lbas))


def make_scheme(name: str, *, replication: int = 3, rs_k: int = 4,
                rs_m: int = 2) -> RedundancyScheme:
    """Factory used by :class:`repro.difs.cluster.ClusterConfig`."""
    if name == "replication":
        return Replication(replication)
    if name == "rs":
        return ErasureCoding(rs_k, rs_m)
    raise ConfigError(
        f"unknown redundancy scheme {name!r}; use 'replication' or 'rs'")
