"""The claim benches' one door to their numbers: a shipped scenario, run.

Each paper table has one producer, its ``repro run`` scenario kind; a
bench runs the shipped file through :func:`run_scenario`, formats the
artifact's tables and series, and asserts on them.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from repro.scenarios import load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_shipped(name: str) -> dict:
    """The artifact document of ``scenarios/<name>``, run."""
    return run_scenario(load_scenario(SCENARIOS / name)).document()


@functools.cache
def fleet_document() -> dict:
    """``scenarios/fleet.json``'s document, run once per session: the
    first bench to call it (FIG3A) pays, FIG3B and TAB-LIFE read the
    cache."""
    return run_shipped("fleet.json")


def rows(document: dict, table: str, key: str | None = None):
    """``table``'s rows as ``{column: value}`` dicts; keyed by their
    ``key`` column when one is named."""
    found = document["tables"][table]
    records = [dict(zip(found["headers"], row)) for row in found["rows"]]
    return records if key is None else {row[key]: row for row in records}


def value_at(series: dict, day: float) -> float:
    """A fleet series' sample at ``day``: the last one taken at or before
    it (samples are taken after each step)."""
    index = int(np.searchsorted(series["x"], day, side="right")) - 1
    assert index >= 0, f"day {day} is before the first sample"
    return series["y"][index]
