"""Incrementally maintained block indexes for the FTL hot path.

The original FTL re-derived its allocation views on every query: its
free-block query sorted the free set and ran the usability filter
per call, and ``_gc_once`` rebuilt ``np.array(sorted(closed))`` per GC
pass. Both are O(B log B) in the erase-block count *per operation*, which
dominates once device geometries reach production scale (see
docs/PERFORMANCE.md).

:class:`BlockIndex` keeps the same semantics — an unordered set of block
ids whose view is ascending and optionally filtered by a policy
predicate — but keeps its members in one sorted list as they come and
go (a bisect finds, inserts or deletes; a C-level move of at most B
pointers) and builds its one view, :meth:`ordered`, lazily, keeping it
until the next mutation. The common query pattern (many reads between
mutations) costs O(1), and a view rebuilt after a mutation is a copy or
one filter pass, never a sort. Its readers — GC's sweep and victim
pick, the allocator's least-worn pick — touch each member as a Python
int.

Invalidation contract: mutating the set (``add``/``discard``/``clear``)
drops the cached view automatically. If the *filter's* answer for
a member block can change without a set mutation, the owner must call
:meth:`invalidate`. The in-tree devices never need this — every policy
that condemns a block (bad-block ledger, CVSS retirement) also discards
it from the free index in the same operation — but the hook exists so
subclasses stay correct rather than subtly stale.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator


class BlockIndex:
    """A set of block ids with a cached, sorted (and filtered) view.

    Args:
        blocks: initial members.
        usable_fn: optional predicate applied when building the view;
            blocks failing it stay members (``__len__`` and
            ``__contains__`` see them) but are hidden from the view.
            Evaluated lazily, so it may close over state that does not
            exist yet at construction time (e.g. a ledger built after
            ``super().__init__``).
    """

    __slots__ = ("_sorted", "_usable_fn", "_list")

    def __init__(self, blocks: Iterable[int] = (),
                 usable_fn: Callable[[int], bool] | None = None) -> None:
        #: The members, distinct and ascending: the one record of them.
        self._sorted: list[int] = sorted(set(blocks))
        self._usable_fn = usable_fn
        self._list: list[int] | None = None

    # -- set interface (drop-in for the plain ``set`` it replaces) ---------

    def add(self, block: int) -> None:
        members = self._sorted
        at = bisect_left(members, block)
        if at == len(members) or members[at] != block:
            members.insert(at, block)
            self._list = None

    def discard(self, block: int) -> None:
        members = self._sorted
        at = bisect_left(members, block)
        if at < len(members) and members[at] == block:
            del members[at]
            self._list = None

    def add_many(self, blocks: Iterable[int]) -> None:
        """Batched :meth:`add`: one set union, one sort.

        A remount rebuilds the whole free pool at once; folding it in
        per element would insert and drop the view O(n) times.
        """
        merged = set(self._sorted)
        merged.update(blocks)
        if len(merged) != len(self._sorted):
            self._sorted = sorted(merged)
            self._list = None

    def clear(self) -> None:
        if self._sorted:
            self._sorted = []
            self._list = None

    def __len__(self) -> int:
        return len(self._sorted)

    def __contains__(self, block: int) -> bool:
        members = self._sorted
        at = bisect_left(members, block)
        return at < len(members) and members[at] == block

    def __iter__(self) -> Iterator[int]:
        # Deterministic (sorted) iteration: callers previously iterated
        # ``sorted(the_set)``, and replay determinism depends on it. It
        # walks a copy, so a caller may discard members as it goes.
        return iter(self._sorted[:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockIndex({self._sorted!r}, "
                f"filtered={self._usable_fn is not None})")

    # -- cached view -------------------------------------------------------

    def invalidate(self) -> None:
        """Force a rebuild on the next :meth:`ordered`.

        Needed only when ``usable_fn``'s verdict for a *member* block can
        flip without an ``add``/``discard`` on this index.
        """
        self._list = None

    def ordered(self) -> list[int]:
        """Ascending list of members passing ``usable_fn``.

        Cached until the next mutation, which replaces it rather than
        editing it (a caller may hold one while it discards members);
        callers must treat it as read-only.
        """
        if self._list is None:
            usable = self._usable_fn
            self._list = (self._sorted[:] if usable is None
                          else [b for b in self._sorted if usable(b)])
        return self._list
