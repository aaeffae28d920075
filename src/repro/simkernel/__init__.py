"""Fast bit-true simulation kernels.

This package is the performance layer of the bit-true simulation path:
scaled-integer-domain IIR recursion kernels, whose no-rounding mode is
also the double-precision leg (:mod:`repro.simkernel.iir`),
vectorized fixed-point FFT butterflies and overlap-save framing
(:mod:`repro.simkernel.fft`), the preserved legacy loops every kernel is
differentially verified against (:mod:`repro.simkernel.reference`), and
the two-way backend switch (:mod:`repro.simkernel.backend`):
``reference`` (the legacy loops, the oracle) and ``fast`` (the default).
Every run walks the plan's schedule and calls these kernels from inside
the nodes.  :func:`use_backend` forces the oracle for a block.
"""

from repro.simkernel.backend import default_backend, get_backend, use_backend
from repro.simkernel.iir import iir_df1_fixed

__all__ = [
    "default_backend",
    "get_backend",
    "iir_df1_fixed",
    "use_backend",
]
