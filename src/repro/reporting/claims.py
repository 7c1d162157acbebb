"""The ``repro report`` claim checker: a run directory in, verdicts out.

``repro report`` only reads: every row is a function of the run
directory's files, and this module imports no simulator. Each check
reads one input — an experiment document's ``(kind, table)`` or a sink
file — and the table in docs/OBSERVABILITY.md ("``repro report``: the
claim checker") lists them:

1. **Lifetime extension** (§4, Fig. 3a): a ``fleet`` document's
   ``summary`` table, or a sweep's ``by_mode`` (the mean over its
   seeds); each Salamander mode's mean lifetime is at least
   ``1 - tol`` of the baseline's, the paper reporting "up to 1.5x".
2. **Throughput degradation** (§4.2, Fig. 3c): the ``agreement``
   document's ``throughput`` table; a functional chip's sequential scan
   at level ``L`` matches ``(P - L)/P``, the ``4/(4-L)`` slowdown.
3. **Recovery traffic** (§4.3): ``timeseries.jsonl``'s
   ``repro_fleet_capacity_bytes``; ShrinkS's peak single-interval
   capacity drop is below the baseline's device cliff.
4. **Queueing latency** (§4.2 load axis): the ``agreement`` document's
   ``queueing`` table; one open-loop tenant's measured mean latency
   through a real device queue matches M/D/c at the measured service
   time (means, not p50: the model predicts the mean).
5. **Traffic p99 under degradation**: the ``agreement`` document's
   ``traffic_p99`` table; the traffic engine's pooled tenant p99 at each
   RegenS level matches the M/D/c quantile at the measured service time.
6. **Wear provenance**: ``endurance.jsonl``; the WAF identity holds
   exactly on every device record, shrink/regen wear appears only on
   Salamander devices, and each mode's WAF delta against the baseline
   decomposes exactly into per-cause terms.

Each check returns a :class:`ClaimResult` with status ``pass``,
``fail`` or ``skip`` (the directory does not hold the input; the row
names the scenario that writes it). A malformed experiment document, a
table without a column a check reads, and two documents of one kind in
one directory are a :class:`ConfigError` naming the path.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.errors import ConfigError
from repro.obs.analyze import analyze_trace, format_trace_summary
from repro.obs.endurance import CAUSES
from repro.reporting.export import table_rows
from repro.reporting.tables import format_table

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

#: Relative tolerance for the traffic-engine p99 rows. Wider than the
#: mean-latency band twice over: a p99 estimated from ~1-2.5k samples
#: carries more sampling noise than a mean, and the analytic overlay's
#: exponential-tail quantile is itself an approximation for
#: deterministic service. Empirically the measured/overlay ratio stays
#: within [0.85, 1.11] across seeds at the claim's operating point.
TRAFFIC_TOLERANCE = 0.30

#: The rows an ``agreement`` document answers, listed as skipped when
#: the directory holds none.
AGREEMENT_ROWS = (
    *(f"throughput_degradation/L{level}" for level in (1, 2, 3)),
    *(f"queueing_latency/{suffix}"
      for suffix in ("rho0.3", "rho0.5", "rho0.7", "c4_rho0.5")),
    *(f"traffic_p99/l{level}" for level in (0, 1, 2, 3)))

_AGREEMENT_HINT = ("needs an agreement document (`repro run "
                   "scenarios/agreement.json --out DIR`)")


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
        return asdict(self)


# -- input extraction --------------------------------------------------------


def _series_arrays(timeseries_doc: dict | None, name: str,
                   ) -> dict[str, list[float]]:
    """``mode -> v[]`` for every mode-labelled series called ``name``."""
    return {entry["labels"]["mode"]: [float(v) for v in entry.get("v", [])
                                      if isinstance(v, (int, float))]
            for entry in (timeseries_doc or {}).get("series", [])
            if entry.get("name") == name
            and entry.get("labels", {}).get("mode")}


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
                f"{mode} fleet lifetimes (a fleet document from "
                "`repro run scenarios/fleet.json --out DIR`)"))
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


#: The ``agreement`` table columns each check reads.
THROUGHPUT_COLUMNS = {"level": int, "opages_per_fpage": int,
                      "measured_factor": float, "analytic_factor": float}
QUEUEING_COLUMNS = {"utilisation": float, "channels": int,
                    "queue_depth": int, "service_us": float, "iops": float,
                    "requests": int, "measured_mean_latency_us": float,
                    "analytic_mean_latency_us": float}
TRAFFIC_COLUMNS = {"level": int, "channels": int, "service_us": float,
                   "iops": float, "requests": int,
                   "measured_p99_latency_us": float,
                   "analytic_p99_latency_us": float}


def _held(claim: str, measured: float, analytic: float, tolerance: float,
          digits: int, expected: str, detail: str) -> ClaimResult:
    """``measured`` within ``tolerance`` of a finite, positive model."""
    ok = (analytic > 0 and math.isfinite(analytic)
          and abs(measured - analytic) <= tolerance * analytic)
    return ClaimResult(claim, "pass" if ok else "fail",
                       round(measured, digits), expected, detail)


def check_throughput_degradation(rows: list[dict],
                                 tolerance: float = DEFAULT_TOLERANCE,
                                 ) -> list[ClaimResult]:
    """Measured scan throughput matches ``(P - L)/P``, one row per
    ``throughput`` table row (:data:`THROUGHPUT_COLUMNS`)."""
    return [_held(
        f"throughput_degradation/L{row['level']}", row["measured_factor"],
        row["analytic_factor"], tolerance, 4,
        f"{row['opages_per_fpage'] - row['level']}/"
        f"{row['opages_per_fpage']} = {row['analytic_factor']:.3f} "
        f"(4/(4-L) degradation, rel tol {tolerance:.0%})",
        "functional sequential scan vs analytic mix model "
        "(agreement/throughput)") for row in rows]


def check_queueing_latency(rows: list[dict],
                           tolerance: float = QUEUEING_TOLERANCE,
                           ) -> list[ClaimResult]:
    """Measured pipeline mean latency within ``tolerance`` of M/D/c, one
    row per ``queueing`` table row (:data:`QUEUEING_COLUMNS`)."""
    return [_held(
        "queueing_latency/" + ("" if row["channels"] == 1
                               else f"c{row['channels']}_")
        + f"rho{row['utilisation']:g}",
        row["measured_mean_latency_us"], row["analytic_mean_latency_us"],
        tolerance, 2,
        f"mean latency within {tolerance:.0%} of M/D/c "
        f"{row['analytic_mean_latency_us']:.1f} us",
        f"open-loop Poisson reads: {row['requests']:.0f} requests, "
        f"service {row['service_us']:.1f} us, "
        f"{row['iops']:.0f} IOPS on {row['channels']} channel(s), "
        f"queue depth {row['queue_depth']} (agreement/queueing)")
        for row in rows]


def check_traffic_latency(rows: list[dict],
                          tolerance: float = TRAFFIC_TOLERANCE,
                          ) -> list[ClaimResult]:
    """The traffic engine's pooled tenant p99 at a RegenS level within
    ``tolerance`` of the M/D/c quantile at the measured operating point,
    one row per ``traffic_p99`` table row (:data:`TRAFFIC_COLUMNS`)."""
    return [_held(
        f"traffic_p99/l{row['level']}", row["measured_p99_latency_us"],
        row["analytic_p99_latency_us"], tolerance, 2,
        f"tenant p99 within {tolerance:.0%} of M/D/c p99 "
        f"{row['analytic_p99_latency_us']:.1f} us at RegenS L{row['level']}",
        f"traffic engine, open-loop Poisson span reads: "
        f"{row['requests']:.0f} requests, "
        f"service {row['service_us']:.1f} us, "
        f"{row['iops']:.0f} IOPS on {row['channels']} channels "
        f"(agreement/traffic_p99)") for row in rows]


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
            "timeseries.jsonl from `repro run scenarios/fleet.json "
            "--out DIR`)")
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
    not measurement noise. The records are validated at load
    (:func:`repro.obs.endurance.load_endurance`): a malformed ledger is a
    configuration error, never a failed claim.
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
            "from `repro run scenarios/probe.json --out DIR`, then `repro "
            "report DIR`)")
    if records is None:
        return [ClaimResult(identity_claim, "skip", None,
                            identity_expected, hint),
                ClaimResult(isolation_claim, "skip", None,
                            isolation_expected, hint),
                *(ClaimResult(f"wear_provenance/{mode}_delta", "skip",
                              None, delta_expected, hint)
                  for mode in ("shrink", "regen"))]
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


def fleet_lifetimes(experiments: dict) -> tuple[dict[str, float], str]:
    """``mode -> mean lifetime (days)`` from the fleet document's
    ``summary`` table, or a sweep's ``by_mode`` (the mean over its
    seeds), and the detail naming it; empty without a fleet document."""
    if "fleet" not in experiments:
        return {}, ""
    table = ("by_mode" if "by_mode" in experiments["fleet"][1]["tables"]
             else "summary")
    rows = table_rows(experiments, "fleet", table,
                      {"mode": str, "mean_lifetime_days": float})
    lifetimes = {row["mode"]: row["mean_lifetime_days"] for row in rows}
    return lifetimes, f"from fleet/{table}: " + ", ".join(
        f"{mode}={days:.0f}d" for mode, days in sorted(lifetimes.items()))


def build_report(metrics_doc: dict | None = None,
                 timeseries_doc: dict | None = None,
                 trace_records: list[dict] | None = None,
                 endurance_records: list[dict] | None = None,
                 experiments: dict | None = None,
                 tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Run every claim check over a run directory's inputs.

    All inputs are optional; checks whose inputs are missing are
    reported as ``skip`` rather than failing, so a partial report is
    still useful. ``experiments`` is
    :func:`repro.reporting.export.load_experiments` of the
    directory; ``endurance_records`` are the device records of its
    ``endurance.jsonl`` (``repro.obs.endurance/v1``).
    Returns the ``repro.report/v1`` document.
    """
    if not 0 <= tolerance < 1:
        raise ConfigError(
            f"tolerance must be in [0, 1), got {tolerance!r}")
    experiments = experiments or {}
    lifetimes, detail = fleet_lifetimes(experiments)
    curves = _series_arrays(timeseries_doc, "repro_fleet_capacity_bytes")

    claims = check_lifetime_extension(lifetimes, tolerance, detail=detail)
    for check, table, columns, family, floor in (
            (check_throughput_degradation, "throughput", THROUGHPUT_COLUMNS,
             "throughput_degradation/", 0.0),
            (check_queueing_latency, "queueing", QUEUEING_COLUMNS,
             "queueing_latency/", QUEUEING_TOLERANCE),
            (check_traffic_latency, "traffic_p99", TRAFFIC_COLUMNS,
             "traffic_p99/", TRAFFIC_TOLERANCE)):
        rows = table_rows(experiments, "agreement", table, columns)
        claims += (check(rows, max(tolerance, floor)) if rows is not None
                   else [ClaimResult(claim, "skip", None, "its model",
                                     _AGREEMENT_HINT)
                         for claim in AGREEMENT_ROWS
                         if claim.startswith(family)])
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
            "endurance": endurance_records is not None,
            "experiments": {path.name: kind for kind, (path, _)
                            in sorted(experiments.items())},
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
    # The wear tables (repro.obs.endurance.wear_tables), when present.
    for name in ("wear", "forecast", "wear_delta"):
        if name in report:
            rows = [[_cell(value) for value in row]
                    for row in report[name]["rows"]]
            lines += ["```", format_table(report[name]["headers"], rows,
                                          title=name), "```", ""]
    return "\n".join(lines)


def _cell(value):
    """A wear-table cell for report.md: ``-`` for none, a by-cause
    count table as ``gc=82, scrub=3``."""
    if isinstance(value, dict):
        return ", ".join(f"{key}={count}"
                         for key, count in value.items()) or "-"
    return "-" if value is None else value
