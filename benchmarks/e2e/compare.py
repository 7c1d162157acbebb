"""``run.py compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload). Host-time metrics carry the
samples of every repeat, so a row states both medians with quartiles,
the ratio with its base, the bound, and a verdict:

* ``unresolved`` — a side's run-to-run spread (interquartile range over
  median) exceeds the bound, so a difference of the bound's size cannot
  be told from noise — unless every repeat of B beats every repeat of
  A, which is ``better``;
* ``worse`` / ``better`` — B's median is worse / better than A's by
  more than the bound;
* ``ok`` — otherwise.

Simulated metrics and ``failed_op_share`` are single exact values held
to their bound; ``sim_digest`` and every count are compared exactly
(``ok`` or ``differs``).
"""

from __future__ import annotations

import json

from benchmarks.e2e.metrics import END_TO_END, SCHEMA


def load(path: str) -> dict:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} document")
    return document


def _worsening(metric, base: float, new: float) -> float:
    """Relative change from ``base`` to ``new``, positive when worse."""
    if base == new:
        return 0.0
    if base == 0:
        return float("inf") if (new > 0) == (metric.better == "lower") \
            else float("-inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def _verdict(metric, a: dict, b: dict) -> str:
    worsening = _worsening(metric, a["median"], b["median"])
    if worsening == 0.0:
        return "ok"
    a_values, b_values = a.get("values"), b.get("values")
    if a_values and b_values and max(_spread(a), _spread(b)) > metric.bound:
        if metric.better == "lower":
            separated = max(b_values) < min(a_values)
        else:
            separated = min(b_values) > max(a_values)
        return "better" if separated else "unresolved"
    if worsening > metric.bound:
        return "worse"
    if worsening < -metric.bound:
        return "better"
    return "ok"


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            rows.append({"workload": name, "metric": "(workload)",
                         "verdict": "differs", "a": "present",
                         "b": "missing"})
            continue
        for metric in END_TO_END:
            entry_a = side_a["end_to_end"].get(metric.name)
            entry_b = side_b["end_to_end"].get(metric.name)
            if entry_a is None and entry_b is None:
                continue
            if entry_a is None or entry_b is None:
                rows.append({"workload": name, "metric": metric.name,
                             "verdict": "differs",
                             "a": entry_a and entry_a["median"],
                             "b": entry_b and entry_b["median"]})
                continue
            base, new = entry_a["median"], entry_b["median"]
            rows.append({
                "workload": name, "metric": metric.name,
                "unit": metric.unit, "a": base, "b": new,
                "a_quartiles": [entry_a.get("q1"), entry_a.get("q3")],
                "b_quartiles": [entry_b.get("q1"), entry_b.get("q3")],
                "ratio": new / base if base else None,
                "bound": metric.bound,
                "verdict": _verdict(metric, entry_a, entry_b)})
        exact_a = {"sim_digest": side_a["sim_digest"], **side_a["counts"]}
        exact_b = {"sim_digest": side_b["sim_digest"], **side_b["counts"]}
        for key in sorted(set(exact_a) | set(exact_b)):
            same = exact_a.get(key) == exact_b.get(key)
            rows.append({"workload": name, "metric": key,
                         "a": exact_a.get(key), "b": exact_b.get(key),
                         "verdict": "ok" if same else "differs"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<40} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'B/A':>8} {'bound':>6}  verdict"]

    def cell(value, quartiles) -> str:
        if not isinstance(value, (int, float)):
            return str(value)[:16]
        if quartiles and quartiles[0] is not None:
            return f"{value:.6g} [{quartiles[0]:.6g}, {quartiles[1]:.6g}]"
        return f"{value:.6g}"

    for row in rows:
        if row["verdict"] == "ok" and "bound" not in row:
            continue                    # exact rows print only on a mismatch
        ratio = row.get("ratio")
        lines.append(
            f"{row['workload']:<15} {row['metric']:<40} "
            f"{cell(row['a'], row.get('a_quartiles')):>34} "
            f"{cell(row['b'], row.get('b_quartiles')):>34} "
            f"{'' if ratio is None else format(ratio, '.4f'):>8} "
            f"{row.get('bound', ''):>6}  {row['verdict']}")
    exact = [row for row in rows if "bound" not in row]
    lines.append(f"{sum(r['verdict'] == 'ok' for r in exact)}/{len(exact)} "
                 f"counts and digests identical")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    """Print the comparison; 0 only when every row is ok or better."""
    rows = compare(load(path_a), load(path_b))
    print(render(rows))
    return 0 if all(row["verdict"] in ("ok", "better") for row in rows) else 1
