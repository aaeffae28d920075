"""Fast bit-true simulation kernels.

This package is the performance layer of the bit-true simulation path:
scaled-integer-domain IIR recursion kernels, whose no-rounding mode is
also the double-precision leg (:mod:`repro.simkernel.iir`), and
vectorized fixed-point FFT butterflies and overlap-save framing
(:mod:`repro.simkernel.fft`).  Every run walks the plan's schedule and
calls these kernels from inside the nodes; there is one set of them.
The preserved legacy loops they are differentially verified against
(:mod:`repro.simkernel.reference` and the ``*_reference`` twins beside
the block engines) run only when something calls them directly: the
whole-graph oracle :func:`repro.verify.legacy.legacy_run`, the tests and
the speedup benches.
"""

from repro.simkernel.iir import iir_df1_fixed


def default_backend() -> str:
    """``"fast"``, the one kernel set's name (the e2e benchmark logs it)."""
    return "fast"


__all__ = [
    "default_backend",
    "iir_df1_fixed",
]
