"""Unit tests for size/time helpers."""

import pytest

from repro.units import GIB, KIB, MIB, format_size


class TestFormatSize:
    @pytest.mark.parametrize("value,expected", [
        (0, "0 B"),
        (512, "512 B"),
        (KIB, "1.0 KiB"),
        (3 * MIB, "3.0 MiB"),
        (int(2.5 * GIB), "2.5 GiB"),
        (-2 * KIB, "-2.0 KiB"),
    ])
    def test_examples(self, value, expected):
        assert format_size(value) == expected
