"""The process-wide observability session and its gated entry points.

Everything here is built around one module-global pointer: when it is
``None`` (the default), every helper is a near-free no-op — ``span()``
returns a shared do-nothing context manager and the ``metric_*``
helpers return after a single ``is None`` test.  Instrumented library
code therefore calls these unconditionally at architectural boundaries
and never below them; hot inner loops (the IIR recursion) stay
uninstrumented by rule, not by gating.

``observe()`` enables collection for a ``with`` block: the span of one
command, or of one payload in a ProcessPool campaign worker, which ships
the resulting snapshots back to the driver for merging.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, LiveSpan, TraceCollector


class ObsSession:
    """One enabled observability window: a registry plus (optionally) a
    trace collector and the epoch origin traces are normalised to."""

    __slots__ = ("metrics", "trace", "origin")

    def __init__(self, trace: bool = True):
        self.metrics = MetricsRegistry()
        self.trace = TraceCollector() if trace else None
        self.origin = time.time()


_SESSION: ObsSession | None = None


def current() -> ObsSession | None:
    return _SESSION


def enabled() -> bool:
    return _SESSION is not None


def tracing() -> bool:
    return _SESSION is not None and _SESSION.trace is not None


@contextmanager
def observe(trace: bool = True) -> Iterator[ObsSession]:
    """Enable observability for a ``with`` block, restoring the previous
    session (usually none) on exit."""

    global _SESSION
    previous = _SESSION
    session = ObsSession(trace=trace)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = previous


def span(name: str, **attrs: object):
    """Open a trace span; a shared no-op when tracing is disabled."""

    session = _SESSION
    if session is None or session.trace is None:
        return NOOP_SPAN
    return LiveSpan(session.trace, name, attrs)


def record_span(name: str, ts: float, dur: float, depth_offset: int = 0,
                **attrs: object) -> None:
    """Record an externally-timed span (no-op when tracing is off).

    ``depth_offset`` nests the span below the currently open ones — per-job
    shares of a batched computation sit one level under their method span.
    """

    session = _SESSION
    if session is None or session.trace is None:
        return
    collector = session.trace
    collector.record(name, ts, dur,
                     depth=collector.current_depth() + depth_offset, **attrs)


def metric_inc(name: str, amount: int = 1, **labels: object) -> None:
    session = _SESSION
    if session is None:
        return
    session.metrics.counter(name, **labels).inc(amount)


def publish_metrics(snapshot: Mapping[str, list]) -> None:
    """Merge a local registry snapshot into the session registry.

    Subsystems with always-on private registries (campaign runner,
    ResultCache) call this at their finish line so the global picture
    includes their exact counts without double bookkeeping on the way.
    """

    session = _SESSION
    if session is None:
        return
    session.metrics.merge(snapshot)


def ingest_spans(payloads: list[dict]) -> None:
    """Merge serialized worker spans (no-op when tracing is off)."""

    session = _SESSION
    if session is None or session.trace is None:
        return
    session.trace.ingest(payloads)
