"""Output helpers: named series and fixed-width tables for bench output."""

from repro.reporting.series import Series
from repro.reporting.tables import format_table, render_bars, render_series
from repro.reporting.export import ExperimentWriter

__all__ = ["Series", "format_table", "render_bars", "render_series",
           "ExperimentWriter"]
