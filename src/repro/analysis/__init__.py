"""Analysis helpers: aggregate metrics and ASCII table/figure rendering."""

from .metrics import geomean, speedup, reduction
from .report import ascii_table, ascii_bars, stacked_fractions

__all__ = [
    "geomean", "speedup", "reduction",
    "ascii_table", "ascii_bars", "stacked_fractions",
]
