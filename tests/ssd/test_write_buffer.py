"""Unit tests for the NVRAM write buffer."""

import pytest

from repro.errors import ConfigError
from repro.ssd.write_buffer import WriteBuffer


class TestBasics:
    def test_put_get(self):
        buf = WriteBuffer(4)
        buf.put(7, b"seven")
        assert buf.get(7) == b"seven"
        assert buf.get(8) is None
        assert 7 in buf and 8 not in buf

    def test_overwrite_updates_in_place(self):
        buf = WriteBuffer(4)
        buf.put(1, b"old")
        buf.put(2, b"two")
        buf.put(1, b"new")
        assert len(buf) == 2
        assert buf.get(1) == b"new"
        # Drain order unchanged: 1 was inserted first, stays first.
        assert buf.peek_batch(2) == ([1, 2], [b"new", b"two"])

    def test_full_rejects_new_keys_but_not_overwrites(self):
        buf = WriteBuffer(2)
        buf.put(1, b"a")
        buf.put(2, b"b")
        assert buf.is_full
        buf.put(1, b"a2")  # overwrite allowed
        with pytest.raises(ConfigError):
            buf.put(3, b"c")

    def test_discard(self):
        buf = WriteBuffer(4)
        buf.put(1, b"a")
        assert buf.discard(1) is True
        assert buf.discard(1) is False
        assert len(buf) == 0


class TestPeekBatch:
    def test_fifo_order(self):
        buf = WriteBuffer(8)
        for key in (5, 3, 9):
            buf.put(key, str(key).encode())
        assert buf.peek_batch(3)[0] == [5, 3, 9]

    def test_partial_batch(self):
        buf = WriteBuffer(8)
        buf.put(1, b"a")
        batch = buf.peek_batch(4)
        assert batch == ([1], [b"a"])
        assert len(buf) == 1

    def test_zero_count(self):
        buf = WriteBuffer(8)
        buf.put(1, b"a")
        assert buf.peek_batch(0) == ([], [])
        assert len(buf) == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            WriteBuffer(8).peek_batch(-1)

    def test_keys_view(self):
        buf = WriteBuffer(8)
        buf.put(2, b"")
        buf.put(1, b"")
        assert buf.keys() == [2, 1]


def test_capacity_validation():
    with pytest.raises(ConfigError):
        WriteBuffer(0)
