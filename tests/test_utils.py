"""Unit tests for the utility helpers (tables, timing)."""

import pytest

from repro.utils.tables import TextTable
from repro.utils.timing import time_callable


class TestTextTable:
    def test_render_contains_headers_and_rows(self):
        table = TextTable(["name", "value"], title="results")
        table.add_row("alpha", 1.25)
        table.add_row("beta", 2)
        text = table.render()
        assert "results" in text
        assert "alpha" in text and "beta" in text
        assert "1.25" in text

    def test_column_count_enforced(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_alignment_widths(self):
        table = TextTable(["x"])
        table.add_row("a-very-long-cell")
        lines = table.render().splitlines()
        assert len(lines[0]) == len(lines[2])


class TestTiming:
    def test_time_callable_returns_result_and_positive_time(self):
        result, seconds = time_callable(sum, [1, 2, 3], repeat=3)
        assert result == 6
        assert seconds >= 0.0

    def test_time_callable_rejects_zero_repeat(self):
        with pytest.raises(ValueError):
            time_callable(sum, [1], repeat=0)

    def test_time_callable_averages_over_repeats(self, monkeypatch):
        # Drive perf_counter with a fake clock: the loop body "takes"
        # one tick per call, so the averaged per-call time is exact.
        from repro.utils import timing

        ticks = iter(range(100))
        monkeypatch.setattr(timing.time, "perf_counter",
                            lambda: float(next(ticks)))
        calls = []

        def work(value):
            calls.append(value)
            return value * 2

        result, seconds = time_callable(work, 21, repeat=4)
        assert result == 42
        assert calls == [21, 21, 21, 21]
        # start=0, end=1 (one tick elapses between the two perf_counter
        # reads), averaged over 4 repetitions.
        assert seconds == pytest.approx(1.0 / 4.0)

    def test_time_callable_returns_last_result(self):
        counter = iter(range(10))
        result, _ = time_callable(lambda: next(counter), repeat=3)
        assert result == 2
