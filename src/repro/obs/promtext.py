"""Prometheus text exposition rendering.

Renders a ``repro.obs.metrics/v1`` document (see
:meth:`repro.obs.metrics.MetricsRegistry.to_dict`) as text exposition
format 0.0.4 — the format every Prometheus scraper, ``promtool`` and
VictoriaMetrics ingests.

Counter families are rendered with the conventional ``_total`` suffix
(added if the registered name lacks it); histogram families expand
into ``_bucket``/``_sum``/``_count`` series. Label values are escaped
per the spec (backslash, double-quote, newline).
"""

from __future__ import annotations

import math


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _label_block(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items()))
    return "{" + inner + "}"


def _help_line(name: str, help_text: str) -> str:
    escaped = help_text.replace("\\", r"\\").replace("\n", r"\n")
    return f"# HELP {name} {escaped}"


def render_prometheus(document: dict) -> str:
    """Render a metrics document as Prometheus text format."""
    lines: list[str] = []
    for entry in document.get("metrics", []):
        kind = entry["type"]
        name = entry["name"]
        if kind == "counter" and not name.endswith("_total"):
            name = name + "_total"
        if entry.get("help"):
            lines.append(_help_line(name, entry["help"]))
        lines.append(f"# TYPE {name} {kind}")
        for sample in entry["samples"]:
            labels = sample["labels"]
            if kind == "histogram":
                for bucket in sample["buckets"]:
                    le = bucket["le"]
                    le_text = le if le == "+Inf" else _format_value(le)
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le_text
                    lines.append(
                        f"{name}_bucket{_label_block(bucket_labels)} "
                        f"{bucket['count']}")
                lines.append(f"{name}_sum{_label_block(labels)} "
                             f"{_format_value(sample['sum'])}")
                lines.append(f"{name}_count{_label_block(labels)} "
                             f"{sample['count']}")
            else:
                lines.append(f"{name}{_label_block(labels)} "
                             f"{_format_value(sample['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")

