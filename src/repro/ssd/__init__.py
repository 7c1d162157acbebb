"""Baseline-SSD substrate: a functional page-mapped FTL over the flash chip.

Provides the device the paper's baseline distributed system uses — a
monolithic SSD that bricks when a small threshold of its blocks has gone
bad — plus the CVSS-like capacity-variant comparator from §4.

* :mod:`repro.ssd.write_buffer` — NVRAM coalescing buffer (oPages -> fPage).
* :mod:`repro.ssd.gc` — garbage-collection victim policies.
* :mod:`repro.ssd.badblocks` — bad-block ledger and the 2.5 % brick rule.
* :mod:`repro.ssd.ftl` — the page-mapped FTL core shared with Salamander.
* :mod:`repro.ssd.device` — :class:`BaselineSSD`.
* :mod:`repro.ssd.cvss` — :class:`CVSSDevice`, block-granular shrinking.
* :mod:`repro.ssd.stats` — device counters (WAF, wear, failure events).
"""

from repro.ssd.stats import SSDStats
from repro.ssd.badblocks import BadBlockLedger
from repro.ssd.write_buffer import WriteBuffer
from repro.ssd.gc import GreedyGC
from repro.ssd.ftl import FTLConfig, PageMappedFTL
from repro.ssd.device import BaselineSSD, SSDConfig
from repro.ssd.cvss import CVSSDevice, CVSSConfig

__all__ = [
    "SSDStats",
    "BadBlockLedger",
    "WriteBuffer",
    "GreedyGC",
    "FTLConfig",
    "PageMappedFTL",
    "BaselineSSD",
    "SSDConfig",
    "CVSSDevice",
    "CVSSConfig",
]
