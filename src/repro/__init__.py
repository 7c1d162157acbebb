"""Salamander: software fault tolerance for longer flash hardware lifespan.

A full reproduction of the HotOS '25 paper by Zuck, Johnson, Porter and
Tsafrir: SSDs that expose failure-granular *minidisks* so distributed
storage absorbs wear gradually (ShrinkS), and that regenerate worn capacity
at lower code rates (RegenS) — plus every substrate the paper's analysis
rests on: a NAND wear/ECC model, a functional page-mapped FTL, baseline and
CVSS comparator devices, a replicated distributed file system, workload
generators, fleet/lifetime simulators, and the §4 carbon/TCO/performance/
recovery models.

Quickstart::

    from repro import SalamanderSSD, SalamanderConfig

    device = SalamanderSSD.create(config=SalamanderConfig(mode="regen"))
    device.write(0, 0, b"hello")          # (minidisk, lba, payload)
    assert device.read(0, 0).rstrip(b"\\0") == b"hello"

See README.md for the architecture tour and DESIGN.md for the experiment
index mapping every paper figure/table to a benchmark.
"""

import importlib

#: Each top-level export and the module that defines it. They load on
#: first use (PEP 562), so ``import repro.<module>`` pulls in that
#: module's own imports and no more: a reader such as
#: :mod:`repro.reporting.claims` loads no simulator.
_EXPORTS = {
    **dict.fromkeys(("EccScheme", "ExponentialRBER", "FlashChip",
                     "FlashGeometry", "LatencyModel", "PowerLawRBER",
                     "TirednessLevel", "TirednessPolicy"), "repro.flash"),
    "calibrate_power_law": "repro.flash.tiredness",
    **dict.fromkeys(("BaselineSSD", "CVSSConfig", "CVSSDevice",
                     "FTLConfig", "SSDConfig"), "repro.ssd"),
    **dict.fromkeys(("SalamanderConfig", "SalamanderMode",
                     "SalamanderSSD"), "repro.salamander"),
    **dict.fromkeys(("Cluster", "ClusterConfig"), "repro.difs"),
    **dict.fromkeys(("FleetConfig", "run_write_lifetime",
                     "simulate_fleet"), "repro.sim"),
    **dict.fromkeys(("CarbonParams", "PerformanceModel", "TCOParams",
                     "carbon_savings", "tco_savings", "tiredness_tradeoff"),
                    "repro.models"),
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
