"""Backend selection for the simulation kernel layer.

Two backends produce the same bits:

* ``reference`` — the original per-sample / per-block Python loops
  (:mod:`repro.simkernel.reference` and the ``*_reference`` paths of the
  FFT and overlap-save engines).  Slow, but the oracle every fast path is
  differentially verified against, and the honest baseline of every
  speedup measurement.
* ``fast`` — the default: the vectorized per-node kernels (generated
  IIR recurrence, stage-wise FFT butterflies, batched overlap-save).
  numba is a tier inside it, not a backend: the IIR recursion kernel
  switches to its JIT version automatically when numba is importable.

Both backends run through the same schedule walk
(:meth:`repro.sfg.plan.CompiledPlan.run`); the backend only picks the
bit-true kernels the nodes call.  The double-precision leg
(:func:`repro.simkernel.iir.iir_df1_double`) is not switched.

:func:`use_backend` forces a backend for the duration of a block; that is
how the tests, the bench and the differential fuzz reach the oracle.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager

from repro.obs import metric_inc

_BACKENDS = ("reference", "fast")

_forced: str | None = None
_numba_available: bool | None = None


def numba_available() -> bool:
    """Whether the optional :mod:`numba` dependency is importable."""
    global _numba_available
    if _numba_available is None:
        _numba_available = importlib.util.find_spec("numba") is not None
    return _numba_available


def default_backend() -> str:
    """The backend used when nothing forces a choice."""
    return "fast"


def get_backend() -> str:
    """The active backend: the :func:`use_backend` override, else the
    default."""
    name = _forced if _forced is not None else default_backend()
    metric_inc("sim.backend_dispatch", backend=name)
    return name


@contextmanager
def use_backend(name: str | None):
    """Context manager forcing a backend for the duration of a block
    (``None`` restores the default)."""
    global _forced
    if name is not None and name not in _BACKENDS:
        raise ValueError(f"unknown simulation backend {name!r}; expected "
                         f"one of {_BACKENDS}")
    saved = _forced
    _forced = name
    try:
        yield
    finally:
        _forced = saved
