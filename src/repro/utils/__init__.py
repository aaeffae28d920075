"""Small shared utilities: text tables and timing helpers."""

from repro.utils.tables import TextTable
from repro.utils.timing import Stopwatch, time_callable

__all__ = [
    "TextTable",
    "Stopwatch",
    "time_callable",
]
