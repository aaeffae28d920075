"""Linear time-invariant (LTI) signal-processing substrate.

This subpackage contains every DSP building block required by the paper's
benchmark systems:

* :mod:`~repro.lti.windows` — the Hamming window of the FIR design and
  the Hann window of the Welch estimator.
* :mod:`~repro.lti.fir_design` — windowed-sinc FIR design (low-pass,
  high-pass, band-pass).
* :mod:`~repro.lti.iir_design` — Butterworth / Chebyshev-I IIR design via
  analog prototypes and the bilinear transform, implemented from scratch.
* :mod:`~repro.lti.transfer_function` — rational transfer functions with
  impulse / frequency responses, stability checks and composition.
* :mod:`~repro.lti.multirate` — decimation and expansion operators.
* :mod:`~repro.lti.convolution` — overlap-save convolution.
* :mod:`~repro.lti.fft` — bit-true fixed-point radix-2 FFT.

FIR and IIR filtering, in double precision and in fixed point, is stated
once, by the filter nodes of :mod:`repro.sfg.nodes`.
"""

from repro.lti.transfer_function import TransferFunction
from repro.lti.fir_design import (
    design_fir_bandpass,
    design_fir_highpass,
    design_fir_lowpass,
)
from repro.lti.iir_design import design_iir_filter
from repro.lti.multirate import downsample, upsample
from repro.lti.convolution import overlap_save
from repro.lti.sos import build_sos_graph, sos_to_tf, tf_to_sos

__all__ = [
    "tf_to_sos",
    "sos_to_tf",
    "build_sos_graph",
    "TransferFunction",
    "design_fir_lowpass",
    "design_fir_highpass",
    "design_fir_bandpass",
    "design_iir_filter",
    "downsample",
    "upsample",
    "overlap_save",
]
