"""``BlockIndex`` keeps its members in one sorted list as they come and go.

Its one view, ``ordered()`` (a list), is rebuilt from that kept order,
never by a sort, so after any sequence of mutations it must equal a
fresh sort of the member set (filtered), and a view a caller holds must
not change under it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.freelist import BlockIndex

BLOCKS = st.integers(0, 63)
STEP = st.one_of(
    st.tuples(st.just("add"), BLOCKS),
    st.tuples(st.just("discard"), BLOCKS),
    st.tuples(st.just("add_many"), st.lists(BLOCKS, max_size=8)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("read"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(initial=st.lists(BLOCKS, max_size=16),
       steps=st.lists(STEP, max_size=60), filtered=st.booleans())
def test_views_equal_a_fresh_sort_after_any_mutations(initial, steps,
                                                      filtered):
    usable = (lambda block: block % 3 != 0) if filtered else None
    index = BlockIndex(initial, usable_fn=usable)
    members = set(initial)
    for op, arg in steps:
        held = index.ordered()
        snapshot = list(held)
        if op == "add":
            index.add(arg)
            members.add(arg)
        elif op == "discard":
            index.discard(arg)
            members.discard(arg)
        elif op == "add_many":
            index.add_many(arg)
            members.update(arg)
        elif op == "clear":
            index.clear()
            members.clear()
        assert held == snapshot, "a held view changed under its caller"
        expected = sorted(b for b in members
                          if usable is None or usable(b))
        assert index.ordered() == expected
        assert list(index) == sorted(members)
        assert len(index) == len(members)
        assert [b for b in range(-1, 65) if b in index] == sorted(members)
