"""Property tests for the write buffer's FIFO and filtering semantics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ssd.write_buffer import WriteBuffer

ops = st.lists(
    st.tuples(st.integers(0, 15), st.binary(min_size=0, max_size=4)),
    min_size=0, max_size=40)


class TestBufferProperties:
    @given(writes=ops)
    def test_fifo_of_first_insertions(self, writes):
        buffer = WriteBuffer(64)
        order = []
        for key, payload in writes:
            if key not in buffer:
                order.append(key)
            buffer.put(key, payload)
        drained, _ = buffer.peek_batch(100)
        assert drained == order

    @given(writes=ops, keep=st.sets(st.integers(0, 15)))
    def test_filtered_peek_takes_only_wanted_keys(self, writes, keep):
        buffer = WriteBuffer(64)
        latest = {}
        for key, payload in writes:
            buffer.put(key, payload)
            latest[key] = payload
        taken, payloads = buffer.peek_batch(100, where=keep.__contains__)
        assert set(taken) == keep & set(latest)
        for key, payload in zip(taken, payloads, strict=True):
            assert payload == latest[key]
        # Nothing left the buffer, taken or not.
        for key, payload in latest.items():
            assert buffer.get(key) == payload

    @given(writes=ops, count=st.integers(0, 10))
    def test_peek_respects_count(self, writes, count):
        buffer = WriteBuffer(64)
        for key, payload in writes:
            buffer.put(key, payload)
        size_before = len(buffer)
        taken, payloads = buffer.peek_batch(count)
        assert len(taken) == len(payloads) == min(count, size_before)
        assert len(buffer) == size_before
