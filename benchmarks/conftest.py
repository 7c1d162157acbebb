"""Benchmark harness plumbing.

Every bench regenerates one of the paper's tables/figures and registers the
rendered table here; ``pytest_terminal_summary`` prints them after the
pytest-benchmark timing table, so ``pytest benchmarks/ --benchmark-only``
emits both the performance numbers and the paper-shaped output. Each
registered output is also written to ``benchmarks/results/<slug>.txt`` so
runs leave diffable artifacts behind.

An autouse fixture additionally scopes a metrics registry, a tracer
*and* a timeseries sampler into the run context (``repro.context``)
around each bench, snapshotting the registry into
``benchmarks/results/metrics/`` (one ``repro.obs.metrics/v1`` JSON per
bench) and any recorded trajectories into
``benchmarks/results/timeseries/<slug>.jsonl``
(``repro.obs.timeseries/v1``). Per-bench telemetry *totals* are also
appended to ``benchmarks/results/BENCH_timeseries.json`` — a capped
per-bench history of (series, samples, points) across runs, so a bench
that silently stops producing telemetry shows up as a trajectory dip.
Benches that measure the *disabled* instrumentation cost opt out with
``@pytest.mark.no_obs``.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from repro import context
from repro.obs import MetricsRegistry, SimTimeTracer, TimeseriesSampler

_REGISTERED: list[tuple[str, str]] = []
_RESULTS_DIR = Path(__file__).parent / "results"
_METRICS_DIR = _RESULTS_DIR / "metrics"
_TIMESERIES_DIR = _RESULTS_DIR / "timeseries"
_BENCH_TIMESERIES = _RESULTS_DIR / "BENCH_timeseries.json"
#: Runs of history kept per bench in BENCH_timeseries.json.
_HISTORY_CAP = 20


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_obs: run this bench without the autouse metrics registry "
        "(used by instrumentation-overhead measurements)")


def _append_bench_timeseries(slug: str, sampler) -> None:
    """Append one bench's telemetry totals to the aggregate trajectory."""
    try:
        history = json.loads(_BENCH_TIMESERIES.read_text())
    except (OSError, json.JSONDecodeError):
        history = {}
    if not isinstance(history, dict):
        history = {}
    points = sum(len(series["t"])
                 for series in sampler.to_dict()["series"])
    runs = history.setdefault(slug, [])
    runs.append({
        "at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "series": len(sampler),
        "samples_taken": sampler.samples_taken,
        "points": points,
    })
    del runs[:-_HISTORY_CAP]
    _RESULTS_DIR.mkdir(exist_ok=True)
    _BENCH_TIMESERIES.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n")


@pytest.fixture(autouse=True)
def _obs_snapshot(request):
    """Per-bench metrics + timeseries, snapshotted under results/."""
    if request.node.get_closest_marker("no_obs") is not None:
        yield None
        return
    registry = MetricsRegistry()
    sampler = TimeseriesSampler(registry=registry, cadence=0.0)
    with context.scoped(metrics=registry, tracer=SimTimeTracer(),
                        timeseries=sampler):
        yield registry
        document = registry.to_dict()
        slug = re.sub(r"[^a-z0-9]+", "-",
                      request.node.name.lower()).strip("-")
        if document["metrics"]:
            _METRICS_DIR.mkdir(parents=True, exist_ok=True)
            registry.write_json(_METRICS_DIR / f"{slug}.json")
        if len(sampler):
            _TIMESERIES_DIR.mkdir(parents=True, exist_ok=True)
            sampler.export_jsonl(_TIMESERIES_DIR / f"{slug}.jsonl")
            _append_bench_timeseries(slug, sampler)


def _slug(title: str) -> str:
    head = title.split("—")[0].split("(")[0].strip()
    return re.sub(r"[^a-z0-9]+", "-", head.lower()).strip("-") or "output"


_WRITTEN_THIS_RUN: set[str] = set()


def register_output(title: str, text: str) -> None:
    """Queue a rendered experiment table for the end-of-run summary and
    persist it under ``benchmarks/results/`` (fresh per run)."""
    _REGISTERED.append((title, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    slug = _slug(title)
    path = _RESULTS_DIR / f"{slug}.txt"
    block = f"### {title}\n{text}\n\n"
    if slug in _WRITTEN_THIS_RUN:
        path.write_text(path.read_text() + block)
    else:
        path.write_text(block)
        _WRITTEN_THIS_RUN.add(slug)


@pytest.fixture
def experiment_output():
    """Fixture benches use to publish their paper-shaped output."""
    return register_output


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REGISTERED:
        return
    terminalreporter.section("paper experiment output")
    for title, text in _REGISTERED:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {title}")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    _REGISTERED.clear()
