"""The pre-index placement scan, kept as the differential oracle.

These are the three ``_place_*`` functions and ``_eligible`` exactly as
they stood in ``repro.difs.placement`` before the columnar volume index
replaced them: a full Python scan of every volume through its
``is_alive`` / ``used_slots`` / ``load`` properties per replica. The
index must pick the same volumes and consume the same RNG draws;
``test_volume_index_stateful.py`` compares the two after every step.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import NoPlacementError
from repro.difs.volume import Volume


def _eligible(volumes: Sequence[Volume], avoid_nodes: set[str]) -> list[Volume]:
    return [v for v in volumes
            if v.is_alive and v.node_id not in avoid_nodes
            and v.used_slots < v.total_slots]


def _place_spread(volumes: Sequence[Volume], count: int,
                  avoid_nodes: set[str],
                  rng: np.random.Generator) -> list[Volume]:
    chosen: list[Volume] = []
    avoid = set(avoid_nodes)
    for _ in range(count):
        candidates = _eligible(volumes, avoid)
        if not candidates:
            raise NoPlacementError(
                f"cannot place replica {len(chosen) + 1}/{count}: "
                f"no eligible volume outside nodes {sorted(avoid)}")
        load = min(c.load for c in candidates)
        best = [c for c in candidates if c.load <= load + 1e-9]
        pick = best[int(rng.integers(0, len(best)))]
        chosen.append(pick)
        avoid.add(pick.node_id)
    return chosen


def _place_random(volumes: Sequence[Volume], count: int,
                  avoid_nodes: set[str],
                  rng: np.random.Generator) -> list[Volume]:
    chosen: list[Volume] = []
    avoid = set(avoid_nodes)
    for _ in range(count):
        candidates = _eligible(volumes, avoid)
        if not candidates:
            raise NoPlacementError(
                f"cannot place replica {len(chosen) + 1}/{count}: "
                f"no eligible volume outside nodes {sorted(avoid)}")
        pick = candidates[int(rng.integers(0, len(candidates)))]
        chosen.append(pick)
        avoid.add(pick.node_id)
    return chosen


def _place_wear_aware(volumes: Sequence[Volume], count: int,
                      avoid_nodes: set[str],
                      rng: np.random.Generator) -> list[Volume]:
    """Prefer young (low-tiredness) volumes; balance load within a tier.

    Addresses the paper's §3.2 open question about correlated mDisk
    failures: regenerated (L1+) minidisks are short-lived, so stacking
    multiple units of one chunk on them multiplies the chance of losing
    several units in one wear episode. This policy drains the L0 tier
    first and reaches for tired volumes only when nothing younger fits.
    """
    chosen: list[Volume] = []
    avoid = set(avoid_nodes)
    for _ in range(count):
        candidates = _eligible(volumes, avoid)
        if not candidates:
            raise NoPlacementError(
                f"cannot place replica {len(chosen) + 1}/{count}: "
                f"no eligible volume outside nodes {sorted(avoid)}")
        best_key = min((getattr(c, "level", 0), c.load)
                       for c in candidates)
        best = [c for c in candidates
                if (getattr(c, "level", 0), c.load) <= (best_key[0],
                                                        best_key[1] + 1e-9)]
        pick = best[int(rng.integers(0, len(best)))]
        chosen.append(pick)
        avoid.add(pick.node_id)
    return chosen


PLACEMENT_POLICIES = {
    "spread-nodes": _place_spread,
    "random": _place_random,
    "wear-aware": _place_wear_aware,
}


def scan_place_replicas(policy: str, volumes: Sequence[Volume], count: int,
                        rng: np.random.Generator,
                        avoid_nodes: Iterable[str] = ()) -> list[Volume]:
    """The old ``place_replicas`` body, minus argument validation."""
    return PLACEMENT_POLICIES[policy](volumes, count, set(avoid_nodes), rng)
