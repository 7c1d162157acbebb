"""The ``repro report`` claim checker: artifacts in, verdicts out.

The paper makes three quantitative headline claims this repo can check
mechanically against a run's observability artifacts:

1. **Lifetime extension** (§4, Fig. 3a): ShrinkS/RegenS extend mean
   device lifetime over the baseline, "up to 1.5x". The check reads
   per-mode mean lifetimes from the ``repro_fleet_mean_lifetime_days``
   timeseries and asserts the ratio lands in ``[1 - tol, 1.5 + tol]``.
2. **Throughput degradation** (§4.2, Fig. 3c): sequential throughput at
   tiredness level ``L`` degrades by ``4/(4-L)`` — i.e. a factor of
   ``(P - L)/P``. The check *measures* this on the functional flash
   chip (program a uniform-level population, sequentially scan it,
   divide bytes by busy time) and compares against the formula. No
   artifact needed: the claim is about the model itself, so the report
   re-derives it on every run.
3. **Recovery traffic** (§4.3): ShrinkS sheds capacity gracefully —
   many small re-replication bursts — where the baseline cliff loses a
   whole device at once. The check compares the *peak single-interval
   capacity drop* (fraction of initial capacity) between shrink and
   baseline trajectories, from the ``repro_fleet_capacity_bytes``
   timeseries.
4. **Queueing latency** (§4.2 load axis): the measured IO pipeline
   (:mod:`repro.io`) agrees with the analytic M/D/c model. The check
   runs one traffic-engine cell per utilisation — a single open-loop
   Poisson tenant issuing point reads through a real device queue —
   and compares the window's measured mean latency against
   :func:`repro.models.queueing.mdc_latency_us` evaluated at the
   *measured* mean service time. Self-contained like the throughput
   check — no artifact needed. Means (not p50) are compared because
   the analytic model predicts the mean; M/D/1 medians sit 25-35 %
   below it at moderate load. ``repro report --queue-depth``
   parameterises the queue under test.
5. **Traffic p99 under degradation** (§4.2's latency-sensitivity worry
   end to end): the multi-tenant traffic engine
   (:mod:`repro.workloads.engine`) driving fPage-spanning reads at a
   fixed utilisation sees per-tenant p99 latencies that agree with the
   analytic M/D/c quantile overlay at every RegenS tiredness level
   ``L in 0..3`` — the ``4/(4-L)`` per-byte degradation propagates
   into tail latency exactly as the queueing model predicts.
   Self-contained: the check runs one engine cell per level.
6. **Wear provenance** (the endurance trade behind §4's lifetime
   claim): Salamander's lifetime extension is paid for in measured,
   cause-attributed wear — not hidden amplification. Given a
   ``repro.obs.endurance/v1`` artifact (a run directory's
   ``endurance.jsonl``, written by ``repro slo --measure``), the checks
   assert the exact WAF identity ``WAF = 1 + overhead/host`` on every
   device record, that ``shrink``/``regen`` wear causes appear only on
   Salamander devices, and that each Salamander mode's WAF delta
   against the baseline decomposes exactly into its per-cause terms —
   the wear premium of the mode's lifetime extension, itemised.

Each check returns a :class:`ClaimResult` with status ``pass``,
``fail`` or ``skip`` (skip = the needed inputs were not supplied; the
report says what to rerun with). ``repro report`` renders the results
as markdown and/or the ``repro.report/v1`` JSON document, exiting 1
when any claim fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.analyze import analyze_trace, format_trace_summary
from repro.obs.endurance import CAUSES, validate_endurance_records

#: Version tag stamped into every report document.
REPORT_SCHEMA = "repro.report/v1"

#: Default relative tolerance for the claim checks.
DEFAULT_TOLERANCE = 0.10

#: The paper's headline lifetime-extension bound ("up to 1.5x").
LIFETIME_BOUND = 1.5

#: Relative tolerance for measured-vs-analytic queueing latency. Wider
#: than the default claim tolerance because a finite Poisson sample's
#: mean wait fluctuates (~600 arrivals leave a few percent of noise on
#: top of any model error).
QUEUEING_TOLERANCE = 0.15

#: Utilisations the queueing-latency claim samples (all below the 0.7
#: operating point the acceptance band is specified at).
QUEUEING_UTILISATIONS = (0.3, 0.5, 0.7)

#: Relative tolerance for the traffic-engine p99 rows. Wider than the
#: mean-latency band twice over: a p99 estimated from ~1-2.5k samples
#: carries more sampling noise than a mean, and the analytic overlay's
#: exponential-tail quantile is itself an approximation for
#: deterministic service. Empirically the measured/overlay ratio stays
#: within [0.85, 1.11] across seeds at the claim's operating point.
TRAFFIC_TOLERANCE = 0.30

#: RegenS tiredness levels the traffic p99 claim samples.
TRAFFIC_LEVELS = (0, 1, 2, 3)


@dataclass
class ClaimResult:
    """One claim's verdict.

    Attributes:
        claim: stable identifier (``lifetime_extension/shrink`` etc.).
        status: ``"pass"``, ``"fail"`` or ``"skip"``.
        observed: the measured value (``None`` when skipped).
        expected: human-readable bound the observation was held to.
        detail: how the observation was obtained, or why it was skipped.
    """

    claim: str
    status: str
    observed: float | None
    expected: str
    detail: str

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "observed": self.observed,
            "expected": self.expected,
            "detail": self.detail,
        }


# -- input extraction --------------------------------------------------------


def _series_map(timeseries_doc: dict | None, name: str,
                value_index: int = -1) -> dict[str, float]:
    """``mode -> value`` from a timeseries doc (last point per series)."""
    out: dict[str, float] = {}
    if not timeseries_doc:
        return out
    for entry in timeseries_doc.get("series", []):
        if entry.get("name") != name:
            continue
        mode = entry.get("labels", {}).get("mode")
        values = entry.get("v", [])
        if mode and values:
            value = values[value_index]
            if isinstance(value, (int, float)):
                out[mode] = float(value)
    return out


def _series_arrays(timeseries_doc: dict | None, name: str,
                   ) -> dict[str, list[float]]:
    """``mode -> v[]`` for every mode-labelled series called ``name``."""
    out: dict[str, list[float]] = {}
    if not timeseries_doc:
        return out
    for entry in timeseries_doc.get("series", []):
        if entry.get("name") != name:
            continue
        mode = entry.get("labels", {}).get("mode")
        if mode:
            out[mode] = [float(v) for v in entry.get("v", [])
                         if isinstance(v, (int, float))]
    return out


# -- claim checks ------------------------------------------------------------


def check_lifetime_extension(lifetimes: dict[str, float],
                             tolerance: float = DEFAULT_TOLERANCE,
                             detail: str = "") -> list[ClaimResult]:
    """Salamander modes do not *shorten* lifetime vs the baseline.

    The paper's "up to 1.5x" is a reported maximum over its
    configurations, not a cap — harsher write loads push RegenS past it
    in this model — so the hard requirement is ``ratio >= 1 - tol``
    (fault tolerance never costs lifetime). The detail annotates
    whether the observation sits inside the paper's 1.5x envelope.
    """
    expected = (f"ratio >= {1.0 - tolerance:.2f} vs baseline "
                f"(paper reports up to {LIFETIME_BOUND:.1f}x)")
    baseline = lifetimes.get("baseline", 0.0)
    results = []
    for mode in ("shrink", "regen"):
        claim = f"lifetime_extension/{mode}"
        if mode not in lifetimes or baseline <= 0:
            results.append(ClaimResult(
                claim, "skip", None, expected,
                "needs baseline and "
                f"{mode} fleet lifetimes (a timeseries.jsonl from "
                "`repro fleet --out DIR` or `repro run`)"))
            continue
        ratio = lifetimes[mode] / baseline
        status = "pass" if ratio >= (1.0 - tolerance) else "fail"
        envelope = ("within" if ratio <= LIFETIME_BOUND + tolerance
                    else "beyond")
        results.append(ClaimResult(
            claim, status, round(ratio, 4), expected,
            (detail or f"mean lifetimes: {mode} {lifetimes[mode]:.0f} d"
             f" / baseline {baseline:.0f} d")
            + f"; {envelope} the paper's {LIFETIME_BOUND:.1f}x envelope"))
    return results


def measured_throughput_factor(level: int, blocks: int = 4,
                               fpages_per_block: int = 16) -> float:
    """Sequential-scan throughput at uniform ``level``, relative to L0.

    Programs a tiny functional chip entirely at ``level``, scans every
    fPage, and divides data bytes by accumulated expected device time —
    the same measurement the Fig. 3c bench makes, reduced to one level.
    """
    from repro.flash.chip import FlashChip
    from repro.flash.geometry import FlashGeometry

    geometry = FlashGeometry(blocks=blocks,
                             fpages_per_block=fpages_per_block)

    def scan(lv: int) -> float:
        chip = FlashChip(geometry, seed=1, variation_sigma=0.0,
                         inject_errors=False)
        total = geometry.total_fpages
        if lv:
            for fpage in range(total):
                chip.set_level(fpage, lv)
        capacity = chip.policy.data_opages(lv)
        for fpage in range(total):
            chip.program(fpage, [b"x"] * capacity)
        busy_program = chip.stats.busy_us
        data_bytes = 0
        for fpage in range(total):
            payloads, _latency = chip.read(fpage)
            data_bytes += len(payloads) * geometry.opage_bytes
        return data_bytes / (chip.stats.busy_us - busy_program)

    return scan(level) / scan(0)


def check_throughput_degradation(levels: tuple[int, ...] = (1, 2, 3),
                                 tolerance: float = DEFAULT_TOLERANCE,
                                 ) -> list[ClaimResult]:
    """Measured scan throughput matches ``(P - L)/P`` per level."""
    from repro.flash.tiredness import TirednessPolicy
    from repro.models.performance import throughput_factor

    policy = TirednessPolicy()
    p = policy.geometry.opages_per_fpage
    results = []
    for level in levels:
        claim = f"throughput_degradation/L{level}"
        if not 0 < level < policy.dead_level:
            results.append(ClaimResult(
                claim, "skip", None, "level must be usable and > 0",
                f"L{level} is not a usable non-zero level for this "
                f"policy"))
            continue
        analytic = throughput_factor(level, p)
        measured = measured_throughput_factor(level)
        status = ("pass" if abs(measured - analytic)
                  <= tolerance * analytic else "fail")
        results.append(ClaimResult(
            claim, status, round(measured, 4),
            f"{p - level}/{p} = {analytic:.3f} "
            f"(4/(4-L) degradation, rel tol {tolerance:.0%})",
            "functional sequential scan vs analytic mix model"))
    return results


def _flat_read_cell(seed: int, **overrides) -> tuple[dict, float]:
    """One traffic-engine cell of open-loop Poisson tenants issuing
    uniform reads at a flat (variation-free, error-free) device with no
    admission control: the window record and the offered IOPS."""
    from repro.workloads.engine import EngineConfig, run_cell

    config = EngineConfig(cells=1, mode="flat", read_fraction=1.0,
                          mix=(0.0, 1.0, 0.0, 0.0), admission="none",
                          host_streams=1, **overrides)
    record = run_cell(config, 0, seed=seed)
    return record["window"], record["arrival_per_us"] * 1e6


def measured_queueing_latency(utilisation: float,
                              n_requests: int = 1500,
                              queue_depth: int = 64,
                              channels: int = 1,
                              seed: int = 7) -> dict[str, float]:
    """Drive open-loop Poisson reads through a real queue; measure means.

    One tenant issues ``n_requests`` point reads at ``utilisation`` of
    the measured service time on ``channels`` flash channels (see
    :func:`_flat_read_cell`). Returns the window's measured mean latency
    and wait with :func:`repro.models.queueing.mdc_latency_us` at the
    window's mean service time and the same arrival rate, so callers
    compare like for like.

    ``queue_depth`` should stay well above the typical queue length at
    the chosen utilisation — NCQ backpressure defers arrivals and would
    (correctly) bend the measurement away from the unbounded-queue
    model.
    """
    from repro.models.queueing import mdc_latency_us

    if not 0.0 < utilisation < 1.0:
        raise ConfigError(
            f"utilisation must be in (0, 1), got {utilisation!r}")
    window, iops = _flat_read_cell(
        seed, tenants=1, duration_us=1e12, utilisation=utilisation,
        queue_depth=queue_depth, channels=channels,
        max_requests=n_requests)
    service_us = window["mean_service_us"]
    latency_us = window["mean_latency_us"]
    return {
        "utilisation": utilisation,
        "channels": float(channels),
        "service_us": service_us,
        "iops": iops,
        "measured_mean_latency_us": latency_us,
        "measured_mean_wait_us": latency_us - service_us,
        "analytic_mean_latency_us": mdc_latency_us(service_us, iops,
                                                   channels=channels),
        "requests": float(window["requests"]),
    }


def check_queueing_latency(
        utilisations: tuple[float, ...] = QUEUEING_UTILISATIONS,
        tolerance: float = QUEUEING_TOLERANCE,
        queue_depth: int = 64) -> list[ClaimResult]:
    """Measured pipeline latency within ``tolerance`` of M/D/c.

    One claim row per utilisation on a single channel (where M/D/1 is
    exact), plus one multi-channel row at moderate load exercising the
    Erlang-C approximation.
    """
    points = [(rho, 1) for rho in utilisations] + [(0.5, 4)]
    results = []
    for rho, channels in points:
        suffix = f"rho{rho:g}" if channels == 1 else \
            f"c{channels}_rho{rho:g}"
        claim = f"queueing_latency/{suffix}"
        run = measured_queueing_latency(
            rho, queue_depth=queue_depth, channels=channels)
        measured = run["measured_mean_latency_us"]
        analytic = run["analytic_mean_latency_us"]
        status = ("pass" if analytic > 0
                  and abs(measured - analytic) <= tolerance * analytic
                  else "fail")
        results.append(ClaimResult(
            claim, status, round(measured, 2),
            f"mean latency within {tolerance:.0%} of M/D/c "
            f"{analytic:.1f} us",
            f"open-loop Poisson reads: {run['requests']:.0f} requests, "
            f"service {run['service_us']:.1f} us, "
            f"{run['iops']:.0f} IOPS on {channels} channel(s), "
            f"queue depth {queue_depth}"))
    return results


@functools.lru_cache(maxsize=None)
def _traffic_point(level: int, duration_us: float,
                   seed: int) -> tuple[float, float, float, float, int]:
    """One cached traffic measurement (the sim is pure in its args)."""
    from repro.models.queueing import mdc_latency_quantile_us

    window, iops = _flat_read_cell(
        seed, tenants=8, duration_us=duration_us, level=level,
        utilisation=0.6, queue_depth=256, channels=2, read_span=4)
    service_us = window["mean_service_us"]
    analytic = mdc_latency_quantile_us(service_us, iops, channels=2,
                                       percentile=99.0)
    return (window["p99_latency_us"], analytic, service_us, iops,
            window["requests"])


def measured_traffic_p99(level: int, duration_us: float = 240_000.0,
                         seed: int = 11) -> dict[str, float]:
    """Drive the traffic engine at RegenS level ``level``; measure p99.

    Runs one engine cell of open-loop Poisson tenants issuing
    fPage-spanning (``read_span = 4``) random reads against a
    uniform-level flat device — the configuration where RegenS's
    ``4/(4-L)`` per-byte degradation shows up in per-request *service
    time*, and hence in queueing latency. Returns the pooled per-tenant
    p99 of the traffic window together with
    :func:`repro.models.queueing.mdc_latency_quantile_us` evaluated at
    the window's measured mean service time and the configured arrival
    rate, so callers compare like for like. Point reads would not do:
    a single oPage sense costs the same at every level, so only span
    reads tie tiredness to the latency axis.
    """
    if level not in (0, 1, 2, 3):
        raise ConfigError(f"level must be in 0..3, got {level!r}")
    measured, analytic, service_us, iops, requests = _traffic_point(
        level, float(duration_us), int(seed))
    return {
        "level": float(level),
        "service_us": service_us,
        "iops": iops,
        "requests": float(requests),
        "measured_p99_latency_us": measured,
        "analytic_p99_latency_us": analytic,
    }


def check_traffic_latency(
        levels: tuple[int, ...] = TRAFFIC_LEVELS,
        tolerance: float = TRAFFIC_TOLERANCE) -> list[ClaimResult]:
    """Per-tenant traffic p99 within ``tolerance`` of the M/D/c overlay.

    One claim row per RegenS tiredness level: the traffic engine's
    pooled tenant p99 must agree with the analytic quantile at the
    measured operating point, tying the engine's latency behaviour
    under degradation to :mod:`repro.models.queueing`.
    """
    results = []
    for level in levels:
        claim = f"traffic_p99/l{level}"
        run = measured_traffic_p99(level)
        measured = run["measured_p99_latency_us"]
        analytic = run["analytic_p99_latency_us"]
        ok = (analytic > 0 and math.isfinite(analytic)
              and abs(measured - analytic) <= tolerance * analytic)
        results.append(ClaimResult(
            claim, "pass" if ok else "fail", round(measured, 2),
            f"tenant p99 within {tolerance:.0%} of M/D/c p99 "
            f"{analytic:.1f} us at RegenS L{level}",
            f"traffic engine, open-loop Poisson span reads: "
            f"{run['requests']:.0f} requests, "
            f"service {run['service_us']:.1f} us, "
            f"{run['iops']:.0f} IOPS on 2 channels"))
    return results


def _peak_drop_fraction(capacities: list[float]) -> float | None:
    """Largest single-interval capacity drop / initial capacity."""
    if len(capacities) < 2 or capacities[0] <= 0:
        return None
    peak = 0.0
    for before, after in zip(capacities, capacities[1:]):
        peak = max(peak, before - after)
    return peak / capacities[0]


def check_recovery_traffic(curves: dict[str, list[float]],
                           detail: str = "") -> ClaimResult:
    """ShrinkS's peak re-replication burst is below the baseline cliff."""
    expected = ("peak single-interval capacity loss: shrink < baseline "
                "(graceful shedding vs device cliff, §4.3)")
    claim = "recovery_traffic/shrink_vs_baseline"
    shrink = _peak_drop_fraction(curves.get("shrink", []))
    baseline = _peak_drop_fraction(curves.get("baseline", []))
    if shrink is None or baseline is None:
        return ClaimResult(
            claim, "skip", None, expected,
            "needs baseline and shrink capacity trajectories (a "
            "timeseries.jsonl from `repro fleet --out DIR` or `repro run`)")
    status = "pass" if shrink < baseline else "fail"
    return ClaimResult(
        claim, status, round(shrink, 4), expected,
        detail or f"peak drops: shrink {shrink:.1%} vs baseline "
        f"{baseline:.1%} of initial capacity")


#: Wear causes only Salamander devices may burn cycles on.
SALAMANDER_CAUSES = ("shrink", "regen")


def endurance_by_mode(records: list[dict] | None) -> dict[str, dict]:
    """Aggregate mode-prefixed endurance records per device mode.

    The probe names merged records ``<mode>/<device>``
    (:func:`repro.io.probe.merged_endurance`); records without a mode
    prefix are skipped — the per-mode delta claims need the grouping.
    """
    out: dict[str, dict] = {}
    for record in records or []:
        name = str(record.get("name", ""))
        if "/" not in name:
            continue
        mode = name.split("/", 1)[0]
        group = out.setdefault(mode, {
            "devices": 0,
            "program_opages": dict.fromkeys(CAUSES, 0),
            "erases": dict.fromkeys(CAUSES, 0),
            "total_program_opages": 0,
        })
        group["devices"] += 1
        for cause in CAUSES:
            group["program_opages"][cause] += record["program_opages"][cause]
            group["erases"][cause] += record["erases"][cause]
        group["total_program_opages"] += record["total_program_opages"]
    return out


def _group_waf(group: dict | None) -> float | None:
    """Measured WAF of one mode aggregate (None without host work)."""
    if not group:
        return None
    host = group["program_opages"]["host"]
    if host <= 0:
        return None
    return 1.0 + (group["total_program_opages"] - host) / host


def check_wear_provenance(records: list[dict] | None,
                          ) -> list[ClaimResult]:
    """Wear-provenance claims over an endurance artifact's records.

    Exact-arithmetic checks (counter identities, not tolerances): the
    ledger counts every oPage, so any slack here is an accounting bug,
    not measurement noise.
    """
    identity_claim = "wear_provenance/waf_identity"
    isolation_claim = "wear_provenance/cause_isolation"
    identity_expected = ("per-cause counters sum to totals; "
                        "WAF = 1 + overhead/host (exact)")
    isolation_expected = ("shrink/regen wear causes appear only on "
                          "Salamander devices")
    delta_expected = ("WAF delta vs baseline decomposes exactly into "
                      "per-cause terms")
    hint = ("needs a repro.obs.endurance/v1 artifact (an endurance.jsonl "
            "from `repro slo --slo CFG DIR --measure`, then `repro report "
            "DIR`)")
    def skipped(detail: str) -> list[ClaimResult]:
        return ([ClaimResult(isolation_claim, "skip", None,
                             isolation_expected, detail)]
                + [ClaimResult(f"wear_provenance/{mode}_delta", "skip",
                               None, delta_expected, detail)
                   for mode in ("shrink", "regen")])

    if records is None:
        return [ClaimResult(identity_claim, "skip", None,
                            identity_expected, hint)] + skipped(hint)
    try:
        validate_endurance_records(records)
    except ConfigError as error:
        # Nothing below may read records that failed validation.
        return [ClaimResult(
            identity_claim, "fail", float(len(records)),
            identity_expected, str(error))] + skipped(
                "the endurance records failed validation")
    results = [ClaimResult(
        identity_claim, "pass", float(len(records)), identity_expected,
        f"{len(records)} device record(s); every per-cause counter "
        f"sums to its total and the measured WAF matches the "
        f"decomposition identity")]

    groups = endurance_by_mode(records)
    if groups:
        stray = sum(
            group["program_opages"][cause] + group["erases"][cause]
            for mode, group in groups.items()
            if mode not in SALAMANDER_CAUSES
            for cause in SALAMANDER_CAUSES)
        results.append(ClaimResult(
            isolation_claim, "pass" if stray == 0 else "fail",
            float(stray), isolation_expected,
            f"modes seen: {', '.join(sorted(groups))}; "
            f"{stray} stray shrink/regen oPage(s)+erase(s) on "
            f"non-Salamander devices"))
    else:
        results.append(ClaimResult(
            isolation_claim, "skip", None, isolation_expected,
            "records are not mode-prefixed (not a merged probe "
            "artifact); cannot group by device mode"))

    base = groups.get("baseline")
    base_waf = _group_waf(base)
    for mode in ("shrink", "regen"):
        claim = f"wear_provenance/{mode}_delta"
        group = groups.get(mode)
        waf = _group_waf(group)
        if base_waf is None or group is None:
            results.append(ClaimResult(
                claim, "skip", None, delta_expected,
                f"needs baseline and {mode} mode-prefixed endurance "
                f"records with host work"))
            continue
        if waf is None:
            results.append(ClaimResult(
                claim, "skip", None, delta_expected,
                f"{mode} devices absorbed no host oPages"))
            continue
        host = group["program_opages"]["host"]
        base_host = base["program_opages"]["host"]
        deltas = {
            cause: (group["program_opages"][cause] / host
                    - base["program_opages"][cause] / base_host)
            for cause in CAUSES if cause != "host"}
        total_delta = waf - base_waf
        reconstructed = sum(deltas.values())
        exact = (abs(reconstructed - total_delta)
                 <= 1e-9 * max(1.0, abs(total_delta)))
        top = ", ".join(
            f"{cause} {delta:+.4f}" for cause, delta in sorted(
                deltas.items(), key=lambda item: -abs(item[1]))
            if delta) or "no per-cause change"
        results.append(ClaimResult(
            claim, "pass" if exact else "fail",
            round(total_delta, 4), delta_expected,
            f"WAF {mode} {waf:.3f} vs baseline {base_waf:.3f}; "
            f"per-host-oPage deltas: {top} — the itemised wear premium "
            f"behind the mode's lifetime extension"))
    return results


# -- report assembly ---------------------------------------------------------


def build_report(metrics_doc: dict | None = None,
                 timeseries_doc: dict | None = None,
                 trace_records: list[dict] | None = None,
                 endurance_records: list[dict] | None = None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 throughput_levels: tuple[int, ...] = (1, 2, 3),
                 traffic_levels: tuple[int, ...] = TRAFFIC_LEVELS,
                 queue_depth: int = 64) -> dict:
    """Run every claim check over the supplied inputs.

    All inputs are optional; checks whose inputs are missing are
    reported as ``skip`` rather than failing, so a partial report is
    still useful. ``queue_depth`` parameterises the queue the
    measured-latency claim drives (the CLI's ``--queue-depth``);
    ``endurance_records`` are the device records of a
    ``repro.obs.endurance/v1`` artifact (a run directory's
    ``endurance.jsonl``).
    Returns the ``repro.report/v1`` document.
    """
    if not 0 <= tolerance < 1:
        raise ConfigError(
            f"tolerance must be in [0, 1), got {tolerance!r}")
    lifetimes = _series_map(timeseries_doc, "repro_fleet_mean_lifetime_days")
    curves = _series_arrays(timeseries_doc, "repro_fleet_capacity_bytes")

    claims: list[ClaimResult] = []
    claims += check_lifetime_extension(
        lifetimes, tolerance,
        detail=("from timeseries: " + ", ".join(
            f"{m}={v:.0f}d" for m, v in sorted(lifetimes.items()))
            if lifetimes else ""))
    claims += check_throughput_degradation(throughput_levels, tolerance)
    claims += check_queueing_latency(
        tolerance=max(tolerance, QUEUEING_TOLERANCE),
        queue_depth=queue_depth)
    claims += check_traffic_latency(
        levels=traffic_levels,
        tolerance=max(tolerance, TRAFFIC_TOLERANCE))
    recovery = check_recovery_traffic(curves)
    if recovery.status != "skip":
        recovery.detail += " (from timeseries)"
    claims.append(recovery)
    claims += check_wear_provenance(endurance_records)

    counts = {"pass": 0, "fail": 0, "skip": 0}
    for claim in claims:
        counts[claim.status] += 1
    report = {
        "schema": REPORT_SCHEMA,
        "tolerance": tolerance,
        "inputs": {
            "metrics": metrics_doc is not None,
            "timeseries": timeseries_doc is not None,
            "trace": trace_records is not None,
            # A repro.report/v1 key that no report input sets.
            "artifact": False,
            "endurance": endurance_records is not None,
        },
        "claims": [c.to_json() for c in claims],
        "summary": counts,
    }
    if metrics_doc is not None:
        report["metric_families"] = len(metrics_doc.get("metrics", []))
    if trace_records is not None:
        report["trace_summary"] = analyze_trace(trace_records)
    return report


def report_failed(report: dict) -> bool:
    """True when any claim in the document failed."""
    return any(c.get("status") == "fail"
               for c in report.get("claims", []))


def format_report(report: dict) -> str:
    """Render a report document as markdown."""
    counts = report.get("summary", {})
    lines = [
        "## Salamander claim check",
        "",
        f"- schema: `{report['schema']}`  "
        f"(tolerance {report.get('tolerance', 0):.0%})",
        f"- verdicts: {counts.get('pass', 0)} pass, "
        f"{counts.get('fail', 0)} fail, {counts.get('skip', 0)} skip",
        "",
        "| claim | status | observed | expected | detail |",
        "|---|---|---|---|---|",
    ]
    for claim in report.get("claims", []):
        observed = claim.get("observed")
        lines.append(
            f"| `{claim['claim']}` | {claim['status']} "
            f"| {'-' if observed is None else f'{observed:g}'} "
            f"| {claim['expected']} | {claim['detail']} |")
    lines.append("")
    if report.get("metric_families") is not None:
        lines.append(
            f"Metrics document: {report['metric_families']} families.")
        lines.append("")
    if "trace_summary" in report:
        lines.append(format_trace_summary(report["trace_summary"]))
    return "\n".join(lines)
