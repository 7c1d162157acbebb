"""The limbo ledger: worn pages parked for regeneration (paper §3.3).

``limbo[Lj]`` counts fPages sitting out of service at tiredness level ``j``.
Their capacity contribution is the paper's Eq. 1:

    valid[limbo[Lj]] = (P - j) * limbo[Lj]

RegenS drains limbo to mint new mDisks; ShrinkS never populates it (worn
pages retire outright). Pages in limbo still age — their block is erased
whenever GC reclaims neighbours — so the ledger supports level bumps and
removal on death.
"""

from __future__ import annotations

from repro.errors import ConfigError


class LimboLedger:
    """Tracks which fPages are in limbo and at which tiredness level.

    Args:
        dead_level: the level at which pages hold no data (``P``); pages
            may never be parked at it.
    """

    def __init__(self, dead_level: int) -> None:
        if dead_level <= 0:
            raise ConfigError(
                f"dead_level must be positive, got {dead_level!r}")
        self.dead_level = dead_level
        # Bound once, never rebound: SalamanderSSD keeps its pages FREE
        # by testing allocation against this dict in place.
        self._level_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._level_of)

    def __contains__(self, fpage: int) -> bool:
        return fpage in self._level_of

    def add(self, fpage: int, level: int) -> None:
        """Park ``fpage`` in limbo at ``level``."""
        self._check_level(level)
        if fpage in self._level_of:
            raise ConfigError(f"fPage {fpage} already in limbo")
        self._level_of[fpage] = level

    def bump(self, fpage: int, level: int) -> None:
        """Raise a limbo page's level (it aged while parked)."""
        self._check_level(level)
        current = self._level_of.get(fpage)
        if current is None:
            raise ConfigError(f"fPage {fpage} not in limbo")
        if level < current:
            raise ConfigError(
                f"fPage {fpage}: limbo level cannot drop from {current} "
                f"to {level}")
        self._level_of[fpage] = level

    def remove(self, fpage: int) -> int:
        """Take ``fpage`` out of limbo (revival or death); returns its level."""
        level = self._level_of.pop(fpage, None)
        if level is None:
            raise ConfigError(f"fPage {fpage} not in limbo")
        return level

    def level_of(self, fpage: int) -> int:
        level = self._level_of.get(fpage)
        if level is None:
            raise ConfigError(f"fPage {fpage} not in limbo")
        return level

    def counts(self) -> dict[int, int]:
        """``limbo[Lj]`` histogram: level -> fPage count."""
        histogram: dict[int, int] = {}
        for level in self._level_of.values():
            histogram[level] = histogram.get(level, 0) + 1
        return histogram

    def pages_at(self, level: int) -> list[int]:
        """fPages parked at exactly ``level``, ascending."""
        self._check_level(level)
        return sorted(f for f, lvl in self._level_of.items() if lvl == level)

    def capacity_opages(self, level: int | None = None) -> int:
        """Eq. 1: data oPages storable in limbo pages (optionally one level)."""
        if level is not None:
            self._check_level(level)
            return (self.dead_level - level) * len(self.pages_at(level))
        return sum(self.dead_level - lvl for lvl in self._level_of.values())

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.dead_level:
            raise ConfigError(
                f"limbo level must be in [0, {self.dead_level}), got {level!r}")
