"""Small shared utilities: text tables and timing helpers."""

from repro.utils.tables import TextTable
from repro.utils.timing import time_callable

__all__ = [
    "TextTable",
    "time_callable",
]
