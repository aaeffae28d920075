"""Unit tests for the utility helpers (tables, timing)."""

import time

import pytest

from repro.utils.tables import TextTable
from repro.utils.timing import Stopwatch, time_callable


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
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        first = watch.elapsed
        with watch:
            time.sleep(0.01)
        assert watch.elapsed > first

    def test_stopwatch_reset(self):
        watch = Stopwatch()
        with watch:
            pass
        watch.reset()
        assert watch.elapsed == 0.0

    def test_time_callable_returns_result_and_positive_time(self):
        result, seconds = time_callable(sum, [1, 2, 3], repeat=3)
        assert result == 6
        assert seconds >= 0.0

    def test_time_callable_rejects_zero_repeat(self):
        with pytest.raises(ValueError):
            time_callable(sum, [1], repeat=0)

    def test_stopwatch_exit_without_enter_raises(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError, match="never started"):
            watch.__exit__(None, None, None)

    def test_stopwatch_reenters_after_exception(self):
        # A raising region still accumulates its time and leaves the
        # stopwatch re-enterable.
        watch = Stopwatch()
        with pytest.raises(ValueError):
            with watch:
                raise ValueError("boom")
        after_failure = watch.elapsed
        assert after_failure >= 0.0
        assert watch._started_at is None
        with watch:
            pass
        assert watch.elapsed >= after_failure

    def test_stopwatch_reset_mid_region_discards_start(self):
        watch = Stopwatch()
        watch.__enter__()
        watch.reset()
        # reset() dropped the pending start; closing the region again
        # must complain rather than silently count from a stale origin.
        with pytest.raises(RuntimeError):
            watch.__exit__(None, None, None)

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
