"""ShrinkS decommissioning policy: choosing the victim mDisk (paper §3.3).

When Eq. 2 fires, the device must shed one mDisk of advertised capacity.
The paper leaves victim choice open ("a victim mDisk"); we provide the
policies a firmware engineer would consider:

* ``"youngest"`` — decommission the most recently created active mDisk.
  Default: regenerated (tired) mDisks die before originals, matching the
  paper's observation that regenerated mDisks "are shorter lived" (§4.3).
* ``"oldest"`` — FIFO retirement of the longest-lived mDisk.
* ``"emptiest"`` — the active mDisk with the least live data, minimising
  both invalidation work and diFS recovery traffic for sparsely-used disks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.salamander.minidisk import Minidisk


def _youngest(active: Sequence[Minidisk],
              live_counts: dict[int, int]) -> Minidisk:
    return max(active, key=lambda m: (m.created_seq, m.mdisk_id))


def _oldest(active: Sequence[Minidisk],
            live_counts: dict[int, int]) -> Minidisk:
    return min(active, key=lambda m: (m.created_seq, m.mdisk_id))


def _emptiest(active: Sequence[Minidisk],
              live_counts: dict[int, int]) -> Minidisk:
    return min(active, key=lambda m: (live_counts.get(m.mdisk_id, 0),
                                      -m.created_seq, m.mdisk_id))


VICTIM_POLICIES: dict[str, Callable[..., Minidisk]] = {
    "youngest": _youngest,
    "oldest": _oldest,
    "emptiest": _emptiest,
}

#: Policies that read ``live_counts``. Counting live data is a pass over
#: the device's whole map, so callers build it only for these and hand
#: the others an empty dict.
DATA_AWARE_POLICIES = frozenset({"emptiest"})


def choose_victim(policy: str, active: Sequence[Minidisk],
                  live_counts: dict[int, int]) -> Minidisk:
    """Pick the mDisk to decommission.

    Args:
        policy: one of :data:`VICTIM_POLICIES`.
        active: currently active mDisks (must be non-empty).
        live_counts: mdisk_id -> live LBAs, for data-aware policies.
    """
    if policy not in VICTIM_POLICIES:
        raise ConfigError(
            f"unknown victim policy {policy!r}; "
            f"choose from {sorted(VICTIM_POLICIES)}")
    if not active:
        raise ConfigError("no active minidisks to choose a victim from")
    return VICTIM_POLICIES[policy](active, live_counts)
