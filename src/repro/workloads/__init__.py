"""Synthetic workloads: access-pattern generators, arrivals, traces.

The paper's analysis is wear-driven, so workloads here are primarily write
streams: who writes, where, how much per day. Generators yield oPage-level
operations; :mod:`traces` records streams for replay;
:mod:`repro.workloads.arrivals` supplies per-tenant arrival-time
processes; and :mod:`repro.workloads.engine` composes all of them into the
deterministic multi-tenant traffic engine behind the ``traffic``
scenario kind of ``repro run``.
"""

from repro.workloads.generators import (
    MixedGenerator,
    Operation,
    OpType,
    SequentialGenerator,
    UniformGenerator,
    ZipfianGenerator,
    hotspot_mass,
)
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
    mmpp_rates,
)
from repro.workloads.traces import (
    Trace,
    parse_msr_trace,
    replay_on_device,
    synthesize_trace,
)

__all__ = [
    "ARRIVAL_KINDS",
    "Operation",
    "OpType",
    "UniformGenerator",
    "ZipfianGenerator",
    "SequentialGenerator",
    "MixedGenerator",
    "MMPPArrivals",
    "PoissonArrivals",
    "hotspot_mass",
    "make_arrivals",
    "mmpp_rates",
    "Trace",
    "synthesize_trace",
    "parse_msr_trace",
    "replay_on_device",
]
