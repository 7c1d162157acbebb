"""Size and time units used throughout the library.

Storage sizes are always in bytes (``int``) and time in seconds (``float``)
unless a name says otherwise. These constants exist so that configuration
code reads as ``4 * KIB`` rather than ``4096``.
"""

from __future__ import annotations

# Binary sizes (bytes).
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# Time (seconds).
MICROSECOND = 1e-6
MILLISECOND = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 365 * DAY

_SIZE_STEPS = [(TIB, "TiB"), (GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")]


def format_size(num_bytes: int | float) -> str:
    """Render a byte count in human form, e.g. ``format_size(3 * MIB)`` -> ``"3.0 MiB"``.

    Negative values are formatted with a leading minus sign.
    """
    sign = "-" if num_bytes < 0 else ""
    value = abs(float(num_bytes))
    for step, suffix in _SIZE_STEPS:
        if value >= step:
            return f"{sign}{value / step:.1f} {suffix}"
    return f"{sign}{value:.0f} B"
