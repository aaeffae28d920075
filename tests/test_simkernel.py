"""Bit-exactness and backend coverage of the simulation kernel layer.

The contract of :mod:`repro.simkernel` is absolute: the optimized kernels
must reproduce the preserved legacy loops *bit for bit* — not close, not
within a tolerance.  This suite pins that contract as a matrix over

* rounding modes (TRUNCATE / ROUND / CONVERGENT),
* filter structures (FIR, direct-form IIR, SOS biquad cascades, the
  frequency-domain overlap-save FIR),
* extreme Q-formats (1 fractional bit, deep fractional words, inputs
  pushed to the saturation edge of the Q15 range),

plus the vectorized Welch estimator against its per-segment reference
loop.  Whole graphs are compared with the oracle
:func:`repro.verify.legacy.legacy_run`, which runs the legacy loops.
"""

import numpy as np
import pytest

from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.convolution import overlap_save, overlap_save_reference
from repro.lti.fft import FixedPointFft
from repro.lti.iir_design import design_iir_filter
from repro.lti.sos import build_direct_form_graph, build_sos_graph
from repro.psd.estimation import _welch_reference, welch, welch_batched
from repro.sfg.nodes import IirNode, QuantizationSpec
from repro.sfg.plan import compile_plan
from repro.simkernel import default_backend, iir_df1_fixed
from repro.simkernel.fft import chunk_rows, overlap_save_frames
from repro.simkernel.iir import iir_df1_double
from repro.simkernel.reference import iir_df1_reference
from repro.systems.filter_bank import build_filter_graph, generate_iir_bank
from repro.systems.freq_filter import FrequencyDomainFirNode
from repro.verify.legacy import legacy_run

MODES = (RoundingMode.TRUNCATE, RoundingMode.ROUND, RoundingMode.CONVERGENT)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _iir_coefficients(order: int):
    b, a = design_iir_filter(order, 0.3, "lowpass", "butterworth")
    return np.asarray(b), np.asarray(a)


# ----------------------------------------------------------------------
# IIR kernels vs the legacy per-sample loop
# ----------------------------------------------------------------------
class TestIirKernelBitExactness:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fractional_bits", [1, 8, 12, 24])
    @pytest.mark.parametrize("strided", [False, True])
    def test_matrix_vs_reference_loop(self, rng, mode, fractional_bits,
                                      strided):
        # A stream may be a strided view: one column of a (samples, 3)
        # record runs as its contiguous copy does.
        b, a = _iir_coefficients(3)
        step = 2.0 ** -fractional_bits
        if strided:
            x = rng.uniform(-0.9, 0.9, (1500, 3))[:, 1]
            assert not x.flags.contiguous
        else:
            x = rng.uniform(-0.9, 0.9, 1500)
        expected = iir_df1_reference(x, b, a, step, mode)
        result = iir_df1_fixed(x, b, a, step, mode)
        assert _same_bits(result, expected)
        if strided:
            assert _same_bits(
                iir_df1_fixed(np.ascontiguousarray(x), b, a, step, mode),
                result)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fractional_bits", [8, 12])
    def test_signed_zeros_match_reference_loop(self, mode, fractional_bits):
        # A Table-I band-pass at d = 8 and 12, 20 000 samples: some
        # accumulators round to zero from below, where round_half_away
        # and np.rint keep -0.0 (and Python's round returns int 0).
        entry = generate_iir_bank(3)[2]
        assert entry.name == "iir-butterworth-bandpass-order2-003"
        graph = build_filter_graph(entry, fractional_bits=fractional_bits,
                                   rounding=mode)
        node = graph.node("filter")
        effective = node._effective_transfer_function()
        step = node.quantization.quantizer().step
        x = graph.node("x").quantization.quantizer().quantize(
            uniform_white_noise(20_000, seed=3))
        expected = iir_df1_reference(x, effective.b, effective.a, step, mode)
        result = iir_df1_fixed(x, effective.b, effective.a, step, mode)
        assert _same_bits(result, expected)
        if mode is not RoundingMode.TRUNCATE:
            assert np.any((expected == 0.0) & np.signbit(expected))

    @pytest.mark.parametrize("mode", MODES)
    def test_saturation_edge_stimulus(self, rng, mode):
        # Inputs pushed to the edge of the Q15 range: large accumulator
        # magnitudes exercise the mantissa arithmetic far from the
        # comfortable unit-amplitude regime.
        b, a = _iir_coefficients(2)
        step = 2.0 ** -10
        x = rng.uniform(-1.0, 1.0, 900) * (2.0 ** 14)
        expected = iir_df1_reference(x, b, a, step, mode)
        result = iir_df1_fixed(x, b, a, step, mode)
        assert np.array_equal(result, expected)

    def test_pure_feed_forward_fast_path(self, rng):
        # len(a) == 1: the recursion disappears and the kernel collapses
        # to one vectorized rounding pass — still bit-identical, signed
        # zeros included: runs of zero and of sub-LSB inputs round to
        # +0.0 and -0.0, which np.array_equal cannot tell apart.
        b = rng.standard_normal(7)
        a = np.array([1.0])
        x = rng.uniform(-0.9, 0.9, 500)
        x[100:200] = 0.0
        x[300:400] *= 2.0 ** -20
        for mode in MODES:
            expected = iir_df1_reference(x, b, a, 2.0 ** -12, mode)
            result = iir_df1_fixed(x, b, a, 2.0 ** -12, mode)
            assert _same_bits(result, expected)

    def test_iir_node_matches_reference_backend(self, rng):
        node = IirNode("h", *_iir_coefficients(4),
                       QuantizationSpec(12, rounding=RoundingMode.ROUND))
        x = rng.uniform(-0.9, 0.9, 1200)
        fast = node.simulate_fixed([x])
        effective = node._effective_transfer_function()
        slow = iir_df1_reference(x, effective.b, effective.a,
                                 node.quantization.quantizer().step,
                                 RoundingMode.ROUND)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("mode", MODES)
    def test_sos_cascade_graph(self, mode):
        # A cascade of biquad IirNodes runs every section through the
        # kernel; the whole graph output must equal the oracle's, which
        # runs every section through the legacy loop.
        b, a = design_iir_filter(6, 0.25, "lowpass", "chebyshev1")
        graph = build_sos_graph(b, a, fractional_bits=12, rounding=mode)
        direct = build_direct_form_graph(b, a, fractional_bits=12,
                                         rounding=mode)
        stimulus = {"x": uniform_white_noise(2000, seed=9)}
        for system in (graph, direct):
            plan = compile_plan(system)
            fast = plan.run(stimulus, mode="fixed").output("y")
            slow = legacy_run(system, stimulus, "fixed")
            assert np.array_equal(fast, slow)

    def test_one_generated_recurrence_serves_every_tap_set(self, rng):
        # The recurrence source depends on the order and the mode only:
        # tap sets of one order, run back to back, share one compiled
        # factory and each still matches the legacy loop bit for bit.
        from repro.simkernel.iir import _recurrence_factory
        step = 2.0 ** -12
        x = rng.uniform(-0.9, 0.9, 800)
        first = _iir_coefficients(3)
        second = design_iir_filter(3, 0.6, "highpass", "chebyshev1")
        for b, a in (first, second, first):
            for mode in MODES:
                expected = iir_df1_reference(x, b, a, step, mode)
                assert np.array_equal(iir_df1_fixed(x, b, a, step, mode),
                                      expected)
        compiled = _recurrence_factory.cache_info().currsize
        b, a = design_iir_filter(3, 0.45, "lowpass", "chebyshev1")
        iir_df1_fixed(x, b, a, step, RoundingMode.ROUND)
        assert _recurrence_factory.cache_info().currsize == compiled

    @pytest.mark.parametrize("mode", MODES)
    def test_diverging_filter_matches_reference(self, mode):
        # An unstable pole drives the accumulator to inf and NaN, where
        # the scalar rounders raise; the kernel defers to the legacy
        # loop, so both return the same non-finite samples.
        b, a = np.array([1.0]), np.array([1.0, -4.0])
        x = np.ones(600)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = iir_df1_reference(x, b, a, 2.0 ** -8, mode)
            result = iir_df1_fixed(x, b, a, 2.0 ** -8, mode)
        assert not np.isfinite(expected).all()
        assert np.array_equal(result, expected, equal_nan=True)


# ----------------------------------------------------------------------
# The double leg: the same recursion without rounding
# ----------------------------------------------------------------------
class TestIirDoubleLeg:
    @pytest.mark.parametrize("order", [1, 2, 4, 6, 10])
    def test_is_the_fixed_recursion_without_rounding(self, rng, order):
        # np.convolve feed-forward, then the feedback products added left
        # to right from an empty delay line, the accumulator stored as is.
        # The recurrence is generated per order, so each order is checked.
        b, a = _iir_coefficients(order)
        x = rng.uniform(-0.9, 0.9, 300)
        feed_forward = np.convolve(x, b)[:300]
        y = []
        for n in range(300):
            history = [y[n - 1 - j] if n > j else 0.0 for j in range(order)]
            feedback = a[1] * history[0]
            for j in range(1, order):
                feedback += a[j + 1] * history[j]
            y.append(feed_forward[n] - feedback)
        assert _same_bits(iir_df1_double(x, b, a), np.array(y))

    def test_feed_forward_only_is_convolve(self, rng):
        b = rng.standard_normal(7)
        x = rng.uniform(-0.9, 0.9, 400)
        assert _same_bits(iir_df1_double(x, b, np.array([1.0])),
                          np.convolve(x, b)[:400])

    def test_diverging_filter_propagates_inf_and_nan(self):
        # No rounder raises: overflow and inf - inf flow through.
        b, a = np.array([1.0]), np.array([1.0, -8.0, 16.0])
        with np.errstate(over="ignore", invalid="ignore"):
            y = iir_df1_double(np.ones(600), b, a)
        assert np.isnan(y).any() and np.isinf(y).any()


# ----------------------------------------------------------------------
# Fixed-point FFT and the overlap-save node
# ----------------------------------------------------------------------
def _position_major(transform, blocks: np.ndarray) -> np.ndarray:
    """``transform`` (a ``*_position_major`` kernel) over the rows of a
    block-major ``(blocks, size)`` stack."""
    data = np.ascontiguousarray(np.asarray(blocks, dtype=complex).T)
    return transform(data).T


class TestFixedPointFftVectorization:
    @pytest.mark.parametrize("mode", MODES)
    def test_batched_forward_equals_reference_loop(self, rng, mode):
        engine = FixedPointFft(16, 12, rounding=mode)
        blocks = rng.uniform(-1.0, 1.0, (40, 16))
        batched = _position_major(engine.forward_position_major, blocks)
        for t in range(blocks.shape[0]):
            assert np.array_equal(batched[t],
                                  engine.forward_reference(blocks[t]))

    def test_inverse_round_trip_backend_invariant(self, rng):
        engine = FixedPointFft(16, 12)
        spectra = (rng.uniform(-1, 1, (7, 16))
                   + 1j * rng.uniform(-1, 1, (7, 16)))
        fast = _position_major(engine.inverse_position_major, spectra)
        slow = np.stack([engine.inverse_reference(row) for row in spectra])
        assert np.array_equal(fast, slow)

    def test_wrong_block_length_rejected(self):
        engine = FixedPointFft(16, 12)
        with pytest.raises(ValueError, match="expected a block"):
            engine.forward_reference(np.zeros(8))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality; unlike ``np.array_equal``, -0.0 != +0.0."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


class TestFrequencyDomainNodeVectorization:
    """The fast path streams the overlap-save rows in position-major chunks.

    Row counts are derived from the chunk constant, so the tests keep
    landing on the chunk boundaries if it is retuned.
    """

    # Taps of the applied filter by FFT size (at most one per position).
    _TAPS = {2: [0.5, -0.5], 4: [0.25, -0.5, 0.25]}

    def _node(self, bits=12, rounding=RoundingMode.ROUND, fft_size=16,
              taps=None):
        from repro.systems.freq_filter import default_frequency_domain_taps
        if taps is None:
            taps = self._TAPS.get(fft_size) or default_frequency_domain_taps(
                9 if fft_size > 8 else 5)
        return FrequencyDomainFirNode(
            "freq", taps, fft_size=fft_size,
            quantization=QuantizationSpec(fractional_bits=bits,
                                          rounding=rounding))

    @staticmethod
    def _rows_per_chunk(node) -> int:
        return chunk_rows(node.fft_size)

    @staticmethod
    def _stimulus(node, rows: int, seed: int = 30):
        # The framing view gives a stream ceil(samples / hop) rows, so
        # this many samples make exactly ``rows`` of them.
        hop = node.fft_size - len(node.taps) + 1
        samples = (rows - 1) * hop + 1
        frames, _ = overlap_save_frames(np.zeros(samples), len(node.taps),
                                        node.fft_size)
        assert len(frames) == rows
        return uniform_white_noise(samples, seed=seed)

    @staticmethod
    def _matches_reference(node, x) -> np.ndarray:
        fast = node.simulate_fixed([x])
        slow = node.simulate_fixed_reference([x])
        assert _same_bits(fast, slow)
        return fast

    @staticmethod
    def _double_reference(node, x) -> np.ndarray:
        return overlap_save_reference(
            x, node._effective_transfer_function().b, node.fft_size)

    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_pipeline_matches_reference(self, mode):
        node = self._node(rounding=mode)
        self._matches_reference(node, uniform_white_noise(3000, seed=4))

    @pytest.mark.parametrize("fft_size", [2, 4, 16])
    @pytest.mark.parametrize("rows", [
        lambda chunk: 1,
        lambda chunk: chunk,
        lambda chunk: chunk + 1,
        lambda chunk: 2 * chunk + 3,
    ], ids=["one-block", "one-chunk", "chunk-plus-one",
            "several-chunks-partial-tail"])
    def test_chunk_boundaries_match_reference_bitwise(self, rows, fft_size):
        node = self._node(fft_size=fft_size)
        x = self._stimulus(node, rows(self._rows_per_chunk(node)))
        self._matches_reference(node, x)

    @pytest.mark.parametrize("fft_size", [2, 4, 8, 16, 64])
    def test_stream_ends_anywhere_in_its_last_row(self, fft_size):
        # ceil(samples / hop) rows over half a chunk: the stream ends one
        # sample into its last row, halfway through it, or exactly on
        # the row boundary (no output dropped), in both legs.
        node = self._node(fft_size=fft_size)
        hop = node.fft_size - len(node.taps) + 1
        rows = self._rows_per_chunk(node) // 2 + 1
        for tail in sorted({1, (hop + 1) // 2, hop}):
            x = uniform_white_noise((rows - 1) * hop + tail, seed=tail)
            assert len(overlap_save_frames(x, len(node.taps),
                                           node.fft_size)[0]) == rows
            fast = self._matches_reference(node, x)
            assert fast.shape == x.shape
            slow = self._double_reference(node, x)
            assert _same_bits(node.simulate([x]), slow)

    @pytest.mark.parametrize("mode", MODES)
    def test_signed_zeros_survive_a_chunk_boundary(self, mode):
        # At 4 fractional bits many outputs round to zero; ROUND and
        # CONVERGENT keep the sign of negative ones (-0.0).
        node = self._node(bits=4, rounding=mode)
        x = self._stimulus(node, self._rows_per_chunk(node) + 1)
        fast = self._matches_reference(node, x)
        if mode is not RoundingMode.TRUNCATE:
            assert np.any((fast == 0.0) & np.signbit(fast))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", [2, 12, 40])
    @pytest.mark.parametrize("fft_size", [2, 4, 8, 16, 32, 64])
    def test_grid_of_sizes_taps_and_word_lengths(self, mode, bits,
                                                 fft_size):
        # One, a middle and the largest tap count that fits (at most 9),
        # on two streams.
        rng = np.random.default_rng(fft_size + bits)
        streams = rng.uniform(-1.0, 1.0, (2, 37))
        for num_taps in sorted({1, (min(9, fft_size) + 1) // 2,
                                min(9, fft_size)}):
            node = self._node(bits=bits, rounding=mode, fft_size=fft_size,
                              taps=rng.uniform(-0.5, 0.5, num_taps))
            for x in streams:
                self._matches_reference(node, x)

    @pytest.mark.parametrize("fft_size", [2, 16, 64])
    def test_double_path_matches_reference_backend(self, fft_size):
        node = self._node(fft_size=fft_size)
        for rows in (1, self._rows_per_chunk(node) + 1):
            x = self._stimulus(node, rows, seed=6)
            fast = node.simulate([x])
            slow = self._double_reference(node, x)
            assert _same_bits(fast, slow)


class TestOverlapSaveFraming:
    @pytest.mark.parametrize("convolve", [overlap_save_reference,
                                          overlap_save],
                             ids=["reference", "fast"])
    @pytest.mark.parametrize("shape", [(4, 100), ()],
                             ids=["stacked", "scalar"])
    def test_stacked_input_rejected(self, rng, convolve, shape):
        h = rng.standard_normal(5)
        x = rng.standard_normal(shape)
        with pytest.raises(ValueError, match="one 1-D stream"):
            convolve(x, h, 16)

    def test_output_is_a_view_of_the_valid_rows(self, rng):
        x = rng.standard_normal(100)
        y = overlap_save(x, rng.standard_normal(5), 16)
        assert y.shape == x.shape
        assert y.base is not None and y.base.shape == (9, 12)

    def test_frames_are_a_view_of_one_padded_copy(self, rng):
        x = rng.standard_normal(50)
        frames, hop = overlap_save_frames(x, 5, 16)
        assert hop == 12
        assert not frames.flags.writeable
        assert frames.base is not None and frames.strides == (96, 8)
        # Row b reads hop * b samples into the stream, after taps - 1
        # zeros of history; past the last sample it reads zeros.
        assert len(frames) == 5  # ceil(50 / 12)
        assert not np.any(frames[0, :4])
        assert np.array_equal(frames[0, 4:], x[:12])
        assert np.array_equal(frames[1], x[8:24])
        assert np.array_equal(frames[4, :6], x[44:])
        assert not np.any(frames[4, 6:])


# ----------------------------------------------------------------------
# Welch vectorization
# ----------------------------------------------------------------------
class TestWelchVectorization:
    # Past 5000 bins the record is zero-padded to one segment; at 4999
    # and 5000 it holds exactly one.
    @pytest.mark.parametrize("n_bins", [3, 5, 7, 32, 33, 128, 256, 4999,
                                        5000, 5001, 8192])
    def test_welch_equals_reference_loop(self, rng, n_bins):
        x = rng.standard_normal(5000)
        fast = welch(x, n_bins)
        slow = _welch_reference(x, n_bins)
        assert np.array_equal(fast.ac, slow.ac)
        assert fast.mean == slow.mean

    def test_short_record_zero_padding(self, rng):
        x = rng.standard_normal(20)
        fast = welch(x, 64)
        slow = _welch_reference(x, 64)
        assert np.array_equal(fast.ac, slow.ac)

    def test_constant_record_is_zero_psd(self):
        psd = welch(np.full(300, 0.25), 32)
        assert np.all(psd.ac == 0.0)
        assert psd.mean == 0.25

    def test_batched_rows_equal_per_row_welch(self, rng):
        records = rng.standard_normal((6, 2000))
        batch = welch_batched(records, 128)
        for row, psd in zip(records, batch):
            single = welch(row, 128)
            assert np.array_equal(psd.ac, single.ac)
            assert psd.mean == single.mean

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            welch(np.array([]), 16)

    @pytest.mark.parametrize("trials", [1, 3])
    # 3 bins is the fewest a Hann window has power on.  An odd count
    # makes the half-segment hop round half to even, up for 3 and 1023
    # (hops 2 and 512) and down for 5 and 17 (hops 2 and 8).
    @pytest.mark.parametrize("n_bins", [3, 5, 16, 17, 1023, 1024])
    @pytest.mark.parametrize("segments", [
        lambda chunk: 1,
        lambda chunk: chunk,
        lambda chunk: chunk + 1,
        lambda chunk: 2 * chunk,
        lambda chunk: 2 * chunk + 3,
    ], ids=["one-segment", "one-chunk", "chunk-plus-one", "two-chunks",
            "several-chunks-partial-tail"])
    # Samples past the last whole segment start no segment: the strided
    # view must drop them as the loop does.
    @pytest.mark.parametrize("ragged", [False, True],
                             ids=["whole-segments", "ragged-end"])
    def test_chunk_boundaries_match_reference_bitwise(self, ragged,
                                                      segments, n_bins,
                                                      trials):
        # The running segment sum crosses every chunk boundary.  A chunk
        # holds CHUNK_SAMPLES samples across the trials, so the segment
        # counts are derived from the constant and the trial count.
        count = segments(chunk_rows(n_bins * trials))
        hop = round(n_bins / 2)
        samples = (count - 1) * hop + n_bins + (hop - 1 if ragged else 0)
        stack = np.random.default_rng(count + n_bins).standard_normal(
            (trials, samples))
        if trials == 1:
            estimates = [welch(stack[0], n_bins)]
        else:
            estimates = welch_batched(stack, n_bins)
        for row, psd in zip(stack, estimates):
            reference = _welch_reference(row, n_bins)
            assert _same_bits(psd.ac, reference.ac)
            assert psd.mean == reference.mean


# ----------------------------------------------------------------------
# The kernel set's name
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default_backend_is_fast(self):
        assert default_backend() == "fast"
