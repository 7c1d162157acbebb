"""Incrementally maintained block indexes for the FTL hot path.

The original FTL re-derived its allocation views on every query:
``_usable_free_blocks`` sorted the free set and ran the usability filter
per call, and ``_gc_once`` rebuilt ``np.array(sorted(closed))`` per GC
pass. Both are O(B log B) in the erase-block count *per operation*, which
dominates once device geometries reach production scale (see
docs/PERFORMANCE.md).

:class:`BlockIndex` keeps the same semantics — an unordered set of block
ids whose *array view* is ascending and optionally filtered by a policy
predicate — but maintains the array lazily behind a dirty flag, so the
common query pattern (many reads between mutations) costs O(1) and a
mutation costs O(1) plus one deferred rebuild.

Invalidation contract: mutating the set (``add``/``discard``/``clear``)
marks the cached array dirty automatically. If the *filter's* answer for
a member block can change without a set mutation, the owner must call
:meth:`invalidate`. The in-tree devices never need this — every policy
that condemns a block (bad-block ledger, CVSS retirement) also discards
it from the free index in the same operation — but the hook exists so
subclasses stay correct rather than subtly stale.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


class BlockIndex:
    """A set of block ids with a cached, sorted (and filtered) array view.

    Args:
        blocks: initial members.
        usable_fn: optional predicate applied when building the array
            view; blocks failing it stay members (``__len__`` and
            ``__contains__`` see them) but are hidden from :meth:`array`.
            Evaluated lazily, so it may close over state that does not
            exist yet at construction time (e.g. a ledger built after
            ``super().__init__``).
    """

    __slots__ = ("_blocks", "_usable_fn", "_array", "_dirty")

    def __init__(self, blocks: Iterable[int] = (),
                 usable_fn: Callable[[int], bool] | None = None) -> None:
        self._blocks: set[int] = set(blocks)
        self._usable_fn = usable_fn
        self._array: np.ndarray = _EMPTY
        self._dirty = True

    # -- set interface (drop-in for the plain ``set`` it replaces) ---------

    def add(self, block: int) -> None:
        if block not in self._blocks:
            self._blocks.add(block)
            self._dirty = True

    def discard(self, block: int) -> None:
        if block in self._blocks:
            self._blocks.discard(block)
            self._dirty = True

    def add_many(self, blocks: Iterable[int]) -> None:
        """Batched :meth:`add`: one set union, one dirty-flag flip.

        A remount rebuilds the whole free pool at once; folding it in
        per element would mark the cache dirty O(n) times for the same
        single rebuild.
        """
        before = len(self._blocks)
        self._blocks.update(blocks)
        if len(self._blocks) != before:
            self._dirty = True

    def clear(self) -> None:
        if self._blocks:
            self._blocks.clear()
            self._dirty = True

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block: int) -> bool:
        return block in self._blocks

    def __iter__(self) -> Iterator[int]:
        # Deterministic (sorted) iteration: callers previously iterated
        # ``sorted(the_set)``, and replay determinism depends on it.
        return iter(sorted(self._blocks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockIndex({sorted(self._blocks)!r}, "
                f"filtered={self._usable_fn is not None})")

    # -- cached array view -------------------------------------------------

    def invalidate(self) -> None:
        """Force a rebuild on the next :meth:`array` call.

        Needed only when ``usable_fn``'s verdict for a *member* block can
        flip without an ``add``/``discard`` on this index.
        """
        self._dirty = True

    def array(self) -> np.ndarray:
        """Ascending int64 array of members passing ``usable_fn``.

        The returned array is cached until the next mutation; callers
        must treat it as read-only.
        """
        if self._dirty:
            if self._usable_fn is None:
                members: set[int] | list[int] = self._blocks
            else:
                usable = self._usable_fn
                members = [b for b in self._blocks if usable(b)]
            self._array = np.fromiter(members, dtype=np.int64,
                                      count=len(members))
            self._array.sort()
            self._dirty = False
        return self._array
