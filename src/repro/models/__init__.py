"""Analytic models from the paper's §4 (implications).

* :mod:`repro.models.lifetime` — Fig. 2: capacity sacrificed vs PEC gain.
* :mod:`repro.models.performance` — Fig. 3c/3d: the 4/(4-L) access penalty.
* :mod:`repro.models.carbon` — Eq. 3 and Fig. 4: CO2e of a deployment.
* :mod:`repro.models.tco` — Eq. 4: total cost of ownership.
* :mod:`repro.models.recovery` — §4.3: recovery-traffic accounting.
"""

from repro.models.lifetime import TirednessTradeoff, tiredness_tradeoff
from repro.models.performance import (
    PerformanceModel,
    latency_factor,
    throughput_factor,
)
from repro.models.carbon import (
    CarbonParams,
    carbon_savings,
    fig4_configurations,
    relative_footprint,
)
from repro.models.tco import TCOParams, cost_upgrade_rate, tco_relative, tco_savings
from repro.models.recovery import RecoveryModel
from repro.models.capacity import (
    CapacityPlan,
    embodied_purchase_ratio,
    plan_constant_capacity,
)
from repro.models.sensitivity import (
    SensitivityPoint,
    gains_are_robust,
    sweep_parameter,
)
from repro.models.queueing import (
    mdc_latency_us,
    md1_wait_us,
    saturation_iops,
)

__all__ = [
    "TirednessTradeoff",
    "tiredness_tradeoff",
    "PerformanceModel",
    "throughput_factor",
    "latency_factor",
    "CarbonParams",
    "relative_footprint",
    "carbon_savings",
    "fig4_configurations",
    "TCOParams",
    "cost_upgrade_rate",
    "tco_relative",
    "tco_savings",
    "RecoveryModel",
    "CapacityPlan",
    "plan_constant_capacity",
    "embodied_purchase_ratio",
    "SensitivityPoint",
    "sweep_parameter",
    "gains_are_robust",
    "md1_wait_us",
    "mdc_latency_us",
    "saturation_iops",
]
