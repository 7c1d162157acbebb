"""RegenS revival planning: minting new mDisks from limbo (paper §3.4).

"When an fPage ... transitions from tiredness level j to j+1, the SSD
firmware must track whether enough oPages are available to form a new mDisk
at tiredness level j+1. If enough oPages are available, but not used, a new
mDisk is created." The paper assumes uniform tiredness within an mDisk, so
a revival draws pages from a single limbo level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.salamander.limbo import LimboLedger


@dataclass(frozen=True)
class RevivalPlan:
    """One planned mDisk regeneration.

    Attributes:
        level: tiredness level of the new mDisk — the pages' common level
            for uniform plans, the *highest* included level for mixed
            plans (the conservative performance label, since the slowest
            page bounds large accesses).
        fpages: pages to pull out of limbo, least-worn first.
        capacity_opages: data oPages those pages contribute.
        mixed: whether the plan combines tiredness levels.
    """

    level: int
    fpages: tuple[int, ...]
    capacity_opages: int
    mixed: bool = False


def plan_revival(limbo: LimboLedger, needed_opages: int) -> RevivalPlan | None:
    """Plan reviving limbo pages to back one new mDisk.

    Picks the *lowest* populated tiredness level that can cover
    ``needed_opages`` on its own (uniform-tiredness rule), and from it the
    smallest sufficient page count. Returns ``None`` when no single level
    has enough parked capacity — the device keeps accumulating limbo.

    Args:
        limbo: the ledger to draw from (not modified).
        needed_opages: oPage slots the new mDisk requires, including any
            over-provisioning slack the device wants to keep.
    """
    if needed_opages <= 0:
        raise ConfigError(
            f"needed_opages must be positive, got {needed_opages!r}")
    for level in sorted(limbo.counts()):
        per_page = limbo.dead_level - level
        pages = limbo.pages_at(level)
        want = math.ceil(needed_opages / per_page)
        if len(pages) >= want:
            chosen = tuple(pages[:want])
            return RevivalPlan(level=level, fpages=chosen,
                               capacity_opages=want * per_page)
    return None


def plan_revival_mixed(limbo: LimboLedger,
                       needed_opages: int) -> RevivalPlan | None:
    """Mixed-tiredness revival (the paper's deferred future work).

    Draws the least-worn limbo pages regardless of level until
    ``needed_opages`` is covered, so capacity regenerates as soon as it
    exists instead of waiting for one level to accumulate an mDisk's
    worth. The new mDisk is labelled with the highest included level — the
    conservative performance bound for §4.2's large-access penalty.
    """
    if needed_opages <= 0:
        raise ConfigError(
            f"needed_opages must be positive, got {needed_opages!r}")
    chosen: list[int] = []
    capacity = 0
    top_level = 0
    for level in sorted(limbo.counts()):
        per_page = limbo.dead_level - level
        for fpage in limbo.pages_at(level):
            chosen.append(fpage)
            capacity += per_page
            top_level = level
            if capacity >= needed_opages:
                return RevivalPlan(level=top_level, fpages=tuple(chosen),
                                   capacity_opages=capacity,
                                   mixed=len(limbo.counts()) > 1)
    return None
