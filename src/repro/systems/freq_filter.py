"""Frequency-domain band-pass filtering system (Fig. 2 of the paper).

The system chains two frequency-selective stages:

1. a 16-tap time-domain low-pass FIR filter ``H_lp``;
2. a frequency-domain high-pass filter ``H_hp`` applied with the
   overlap-save method: buffer, ``N``-point FFT, point-wise multiplication
   by the filter's frequency-domain coefficients, inverse FFT, un-buffer.

Together they implement a band-pass response.  The interesting property
for accuracy evaluation is that the quantization noise entering stage 2 is
*not white* — it has been shaped by stage 1 — which is exactly the
situation where the PSD-agnostic hierarchical method fails (Table II of
the paper reports a 29.5 % error for it versus below 10 % for the PSD
method).

Substitution versus the paper (listed with the others in ARCHITECTURE.md,
"Substitutions versus the paper"): the paper uses a 16-tap
frequency-domain filter with a 16-point FFT, a degenerate overlap-save
configuration (one new sample per transform).  Here the frequency-domain
filter has 9 taps by default so the 16-point overlap-save produces 8 new
samples per transform; the noise-analysis structure is unchanged.

The frequency-domain stage is modelled as a single
:class:`FrequencyDomainFirNode`: seen from outside it is an LTI block with
the FIR transfer function of its coefficients, but its internal noise
source accounts for the quantization performed inside the FFT butterflies,
the coefficient multiplications and the inverse FFT (classical fixed-point
FFT noise model, one white injection per butterfly stage amplified by the
remaining stages).
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.fixedpoint.quantizer import Quantizer, RoundingMode
from repro.lti.convolution import overlap_save
from repro.lti.fft import FixedPointFft
from repro.simkernel.fft import chunk_rows, overlap_save_frames
from repro.lti.fir_design import design_fir_highpass, design_fir_lowpass
from repro.sfg.builder import SfgBuilder
from repro.sfg.graph import SignalFlowGraph
from repro.sfg.nodes import FirNode, QuantizationSpec
from repro.analysis.evaluator import AccuracyEvaluator


class FrequencyDomainFirNode(FirNode):
    """FIR filter applied in the frequency domain with overlap-save.

    Parameters
    ----------
    name:
        Node name.
    taps:
        Impulse response of the applied filter (``len(taps) <= fft_size``).
    fft_size:
        Transform size of the overlap-save engine.
    quantization:
        Word-length specification of the whole stage (input buffer, FFT
        data path, coefficients and output share the same precision, as in
        the paper where all fractional word lengths are set to ``d``).
    """

    def __init__(self, name: str, taps, fft_size: int = 16,
                 quantization: QuantizationSpec | None = None):
        super().__init__(name, taps, quantization=quantization)
        if len(self.taps) > fft_size:
            raise ValueError(
                f"{len(self.taps)} taps do not fit in an FFT of size {fft_size}")
        self.fft_size = int(fft_size)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Reference behaviour: exact overlap-save with the quantized taps."""
        (x,) = inputs
        return overlap_save(x, self._effective_transfer_function().b,
                            self.fft_size)

    def simulate_fixed(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Bit-true behaviour: fixed-point FFT / multiply / IFFT pipeline.

        The overlap-save blocks of the stream are rows of one strided
        framing view; they go through the pipeline one chunk of rows at a
        time (``CHUNK_SAMPLES`` complex samples), held position-major in
        two preallocated buffers that the butterflies and the in-place
        quantizer share.  Every step is the same elementwise operation
        per block as in the original streaming loop
        (:meth:`simulate_fixed_reference`), so both are bitwise
        identical, signed zeros included.
        """
        (x,) = inputs
        x = np.asarray(x, dtype=float)
        if not self.quantization.enabled:
            return self.simulate(inputs)
        data_quantizer, taps, h_spectrum, engine = self._pipeline()
        n = self.fft_size
        frames, hop = overlap_save_frames(x, len(taps), n)
        valid = np.empty((len(frames), hop))
        rows = chunk_rows(n)
        buffers = np.empty((2, n * min(rows, len(frames))), dtype=complex)
        h_column = h_spectrum[:, None]
        for start in range(0, len(frames), rows):
            stop = min(start + rows, len(frames))
            data, work = buffers[:, :n * (stop - start)].reshape(2, n, -1)
            data[...] = frames[start:stop].T
            spectra = engine.forward_position_major(data, work)
            work = data if spectra is work else work
            np.multiply(spectra, h_column, out=spectra)
            data_quantizer.quantize_complex(spectra, work)
            result = engine.inverse_position_major(spectra, work)
            valid[start:stop] = result.real[len(taps) - 1:len(taps) - 1 + hop].T
        return data_quantizer.quantize(valid.reshape(-1)[:len(x)])

    def _pipeline(self):
        """``(data quantizer, quantized taps, quantized spectrum, FFT
        engine)`` of the fixed-point pipeline."""
        spec = self.quantization
        data_quantizer = Quantizer(spec.fractional_bits,
                                   rounding=spec.rounding)
        # Coefficients (time-domain taps and their spectrum) are design-time
        # constants shared with the reference path, hence round-to-nearest.
        coeff_quantizer = Quantizer(spec.coeff_bits,
                                    rounding=RoundingMode.ROUND)
        taps = coeff_quantizer.quantize(self.taps)
        n = self.fft_size
        h_spectrum = np.fft.fft(np.concatenate([taps,
                                                np.zeros(n - len(taps))]))
        # The frequency-domain coefficients are stored constants, quantized
        # once to the coefficient precision.
        h_spectrum = (coeff_quantizer.quantize(h_spectrum.real)
                      + 1j * coeff_quantizer.quantize(h_spectrum.imag))
        engine = FixedPointFft(n, spec.fractional_bits, rounding=spec.rounding)
        return data_quantizer, taps, h_spectrum, engine

    def simulate_fixed_reference(self, inputs: list[np.ndarray]
                                 ) -> np.ndarray:
        """The original streaming per-block pipeline of an enabled node's
        fixed run (the oracle's): bitwise identical to
        :meth:`simulate_fixed`."""
        (x,) = inputs
        x = np.asarray(x, dtype=float)
        data_quantizer, taps, h_spectrum, engine = self._pipeline()
        n = self.fft_size
        hop = n - len(taps) + 1
        padded = np.concatenate([np.zeros(len(taps) - 1), x, np.zeros(n)])
        output = np.zeros(len(x) + n)
        position = 0
        out_position = 0
        while out_position < len(x):
            block = padded[position:position + n]
            spectrum = engine.forward_reference(block)
            product = spectrum * h_spectrum
            product = (data_quantizer.quantize(product.real)
                       + 1j * data_quantizer.quantize(product.imag))
            result = np.real(engine.inverse_reference(product))
            valid = result[len(taps) - 1:]
            output[out_position:out_position + hop] = valid[:hop]
            position += hop
            out_position += hop
        return data_quantizer.quantize(output[:len(x)])

    # ------------------------------------------------------------------
    # Noise model
    # ------------------------------------------------------------------
    def generated_noise(self) -> NoiseStats:
        """Internal roundoff noise of the FFT / multiply / IFFT pipeline.

        The classical fixed-point FFT noise model is used: every butterfly
        stage quantizes the real and imaginary parts of each sample
        (``2 * q^2 / 12`` of injected variance) and that noise is amplified
        by a factor 2 per remaining stage.  The frequency-domain noise is
        then scaled by the coefficient magnitudes, spread back to the time
        domain by the (1/N-scaled) inverse FFT and halved when the real
        part is taken; a final output quantization adds one more white
        source.
        """
        if not self.quantization.enabled:
            return NoiseStats(0.0, 0.0)
        d = self.quantization.fractional_bits
        q = 2.0 ** (-d)
        sigma_q2 = q * q / 12.0
        n = self.fft_size

        # Per-bin complex noise at the forward-FFT output.
        v_fft = 2.0 * sigma_q2 * (n - 1)
        # Coefficient-multiplication stage: scale by |H[k]|^2, add one
        # complex rounding per bin.
        taps = self._effective_transfer_function().b
        h_padded = np.concatenate([taps, np.zeros(n - len(taps))])
        h_mag2 = np.abs(np.fft.fft(h_padded)) ** 2
        v_mult_total = float(np.sum(v_fft * h_mag2)) + 2.0 * sigma_q2 * n
        # Inverse FFT: frequency-domain noise spreads over the block
        # (variance sum), internal butterflies add the same 2*sigma^2*(n-1),
        # the 1/N scaling divides the variance by N^2 and taking the real
        # part halves the circular complex noise.
        v_time = 0.5 * (v_mult_total + 2.0 * sigma_q2 * (n - 1)) / (n * n)
        # Final output quantization back to the data word length.
        v_output = sigma_q2
        variance = v_time + v_output

        if self.quantization.rounding is RoundingMode.TRUNCATE:
            mean = -q / 2.0
        else:
            mean = 0.0
        return NoiseStats(mean=mean, variance=variance)


def default_time_domain_taps(num_taps: int = 16) -> np.ndarray:
    """Default 16-tap low-pass response of the time-domain stage."""
    return design_fir_lowpass(num_taps, cutoff=0.5)


def default_frequency_domain_taps(num_taps: int = 9) -> np.ndarray:
    """Default high-pass response applied in the frequency domain."""
    return design_fir_highpass(num_taps, cutoff=0.25)


def build_frequency_filter_graph(fractional_bits: int,
                                 fft_size: int = 16,
                                 time_taps: np.ndarray | None = None,
                                 freq_taps: np.ndarray | None = None,
                                 rounding: RoundingMode | str = RoundingMode.ROUND
                                 ) -> SignalFlowGraph:
    """Assemble the Fig. 2 system as a signal-flow graph.

    Parameters
    ----------
    fractional_bits:
        Uniform fractional word length ``d`` of every signal.
    fft_size:
        Overlap-save transform size.
    time_taps, freq_taps:
        Impulse responses of the two stages; defaults reproduce the paper's
        16-tap low-pass followed by a frequency-domain high-pass.
    rounding:
        Rounding mode of every quantizer.
    """
    rounding = RoundingMode(rounding)
    if time_taps is None:
        time_taps = default_time_domain_taps()
    if freq_taps is None:
        freq_taps = default_frequency_domain_taps()

    builder = SfgBuilder("frequency-domain-filter")
    x = builder.input("x", fractional_bits=fractional_bits, rounding=rounding)
    lowpass = builder.fir("time_fir", list(time_taps), x,
                          fractional_bits=fractional_bits, rounding=rounding)
    node = FrequencyDomainFirNode(
        "freq_fir", freq_taps, fft_size=fft_size,
        quantization=QuantizationSpec(fractional_bits=fractional_bits,
                                      rounding=rounding))
    builder.graph.add_node(node)
    builder.graph.connect(lowpass, "freq_fir", 0)
    builder.output("y", "freq_fir")
    return builder.build()


class FrequencyDomainFilter:
    """Convenience wrapper bundling the Fig. 2 graph and its evaluator.

    Parameters
    ----------
    fractional_bits:
        Uniform fractional word length.
    fft_size, time_taps, freq_taps, rounding:
        Forwarded to :func:`build_frequency_filter_graph`.
    n_psd:
        Default PSD bin count of the analytical estimator.
    """

    def __init__(self, fractional_bits: int, fft_size: int = 16,
                 time_taps=None, freq_taps=None,
                 rounding: RoundingMode | str = RoundingMode.ROUND,
                 n_psd: int = 1024):
        self.fractional_bits = fractional_bits
        self.graph = build_frequency_filter_graph(
            fractional_bits, fft_size=fft_size, time_taps=time_taps,
            freq_taps=freq_taps, rounding=rounding)
        self.evaluator = AccuracyEvaluator(self.graph, n_psd=n_psd,
                                           name="frequency-domain-filter")

    def run_reference(self, stimulus: np.ndarray) -> np.ndarray:
        """Double-precision output for ``stimulus``."""
        return self.evaluator.plan.run({"x": stimulus},
                                       mode="double").output("y")

    def run_fixed_point(self, stimulus: np.ndarray) -> np.ndarray:
        """Bit-true fixed-point output for ``stimulus``."""
        return self.evaluator.plan.run({"x": stimulus},
                                       mode="fixed").output("y")

    def compare(self, stimulus: np.ndarray, methods=("psd", "agnostic"),
                n_psd: int | None = None):
        """Simulation-vs-estimation comparison (see AccuracyEvaluator)."""
        return self.evaluator.compare(
            {"x": stimulus}, methods=methods, n_psd=n_psd,
            discard_transient=64)
