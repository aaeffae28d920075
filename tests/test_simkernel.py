"""Bit-exactness and backend coverage of the simulation kernel layer.

The contract of :mod:`repro.simkernel` is absolute: the optimized kernels
must reproduce the preserved legacy loops *bit for bit* — not close, not
within a tolerance.  This suite pins that contract as a matrix over

* rounding modes (TRUNCATE / ROUND / CONVERGENT),
* filter structures (FIR, direct-form IIR, SOS biquad cascades, the
  frequency-domain overlap-save FIR),
* stimulus shapes (single stream and stacked Monte-Carlo trials),
* extreme Q-formats (1 fractional bit, deep fractional words, inputs
  pushed to the saturation edge of the Q15 range),

plus the backend selection machinery itself (the two names, the
context manager) and the vectorized Welch estimator against its
per-segment reference loop.
"""

import numpy as np
import pytest

from repro.data.signals import uniform_white_noise
from repro.fixedpoint.quantizer import RoundingMode
from repro.lti.fft import FixedPointFft
from repro.lti.iir_design import design_iir_filter
from repro.lti.sos import build_direct_form_graph, build_sos_graph
from repro.psd.estimation import (
    _welch_reference,
    estimate_psd,
    estimate_psd_batch,
    welch,
    welch_batched,
)
from repro.sfg.nodes import FirNode, IirNode, QuantizationSpec
from repro.sfg.plan import compile_plan
from repro.simkernel import (
    default_backend,
    get_backend,
    iir_df1_fixed,
    use_backend,
)
from repro.simkernel.iir import iir_df1_double
from repro.simkernel.reference import iir_df1_reference
from repro.systems.freq_filter import FrequencyDomainFirNode

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
    @pytest.mark.parametrize("batched", [False, True])
    def test_matrix_vs_reference_loop(self, rng, mode, fractional_bits,
                                      batched):
        b, a = _iir_coefficients(3)
        step = 2.0 ** -fractional_bits
        shape = (5, 600) if batched else (1500,)
        x = rng.uniform(-0.9, 0.9, shape)
        expected = iir_df1_reference(x, b, a, step, mode)
        result = iir_df1_fixed(x, b, a, step, mode)
        assert np.array_equal(result, expected)

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
        # to one vectorized rounding pass — still bit-identical.
        b = rng.standard_normal(7)
        a = np.array([1.0])
        x = rng.uniform(-0.9, 0.9, 500)
        for mode in MODES:
            expected = iir_df1_reference(x, b, a, 2.0 ** -12, mode)
            result = iir_df1_fixed(x, b, a, 2.0 ** -12, mode)
            assert np.array_equal(result, expected)

    def test_iir_node_matches_reference_backend(self, rng):
        node = IirNode("h", *_iir_coefficients(4),
                       QuantizationSpec(12, rounding=RoundingMode.ROUND))
        x = rng.uniform(-0.9, 0.9, 1200)
        fast = node.simulate_fixed([x])
        with use_backend("reference"):
            slow = node.simulate_fixed([x])
        assert np.array_equal(fast, slow)

    def test_fir_node_unaffected_by_backend(self, rng):
        node = FirNode("h", rng.standard_normal(9),
                       QuantizationSpec(10, rounding=RoundingMode.TRUNCATE))
        x = rng.uniform(-0.9, 0.9, (3, 400))
        fast = node.simulate_fixed([x])
        with use_backend("reference"):
            slow = node.simulate_fixed([x])
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("mode", MODES)
    def test_sos_cascade_graph(self, mode):
        # A cascade of biquad IirNodes runs every section through the
        # kernel; the whole graph output must be backend-invariant.
        b, a = design_iir_filter(6, 0.25, "lowpass", "chebyshev1")
        graph = build_sos_graph(b, a, fractional_bits=12, rounding=mode)
        direct = build_direct_form_graph(b, a, fractional_bits=12,
                                         rounding=mode)
        stimulus = {"x": uniform_white_noise(2000, seed=9)}
        for system in (graph, direct):
            plan = compile_plan(system)
            fast = plan.run(stimulus, mode="fixed").output("y")
            with use_backend("reference"):
                slow = plan.run(stimulus, mode="fixed").output("y")
            assert np.array_equal(fast, slow)

    def test_batched_rows_equal_single_stream_runs(self, rng):
        # The trials axis must be semantics-free: row t of the batched
        # run equals the 1-D run on row t.
        b, a = _iir_coefficients(3)
        step = 2.0 ** -12
        x = rng.uniform(-0.9, 0.9, (4, 700))
        batched = iir_df1_fixed(x, b, a, step, RoundingMode.ROUND)
        for t in range(x.shape[0]):
            row = iir_df1_fixed(x[t], b, a, step, RoundingMode.ROUND)
            assert np.array_equal(batched[t], row)

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
        # loop, so both backends return the same non-finite samples.
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
    def test_is_the_fixed_recursion_without_rounding(self, rng):
        # np.convolve feed-forward, then the feedback products added left
        # to right from an empty delay line, the accumulator stored as is.
        b, a = _iir_coefficients(4)
        x = rng.uniform(-0.9, 0.9, 300)
        feed_forward = np.convolve(x, b)[:300]
        y = []
        for n in range(300):
            history = [y[n - 1 - j] if n > j else 0.0 for j in range(4)]
            feedback = a[1] * history[0]
            for j in range(1, 4):
                feedback += a[j + 1] * history[j]
            y.append(feed_forward[n] - feedback)
        assert _same_bits(iir_df1_double(x, b, a), np.array(y))

    @pytest.mark.parametrize("order", [1, 2, 6, 10])
    def test_stacked_rows_equal_single_stream_runs(self, rng, order):
        b, a = _iir_coefficients(order)
        x = rng.uniform(-0.9, 0.9, (2, 3, 500))
        stacked = iir_df1_double(x, b, a)
        for index in np.ndindex(x.shape[:-1]):
            assert _same_bits(stacked[index], iir_df1_double(x[index], b, a))

    def test_feed_forward_only_is_convolve_per_row(self, rng):
        b = rng.standard_normal(7)
        x = rng.uniform(-0.9, 0.9, (3, 400))
        stacked = iir_df1_double(x, b, np.array([1.0]))
        for t in range(3):
            assert _same_bits(stacked[t], np.convolve(x[t], b)[:400])

    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_numba_kernel_body_matches_numpy_kernels(self, rng, code):
        # The JIT kernel's Python source, run by the interpreter, sums the
        # feedback in the generated recurrence's order in every mode.
        from repro.simkernel import _numba
        from repro.simkernel.iir import (
            ROUNDING_CODES,
            _iir_df1_batched,
            _recursion,
        )
        mode = {value: key for key, value in ROUNDING_CODES.items()}[code]
        _, a = _iir_coefficients(3)
        taps = np.round(a[1:] * 4096.0) / 4096.0
        values = rng.integers(-2 ** 20, 2 ** 20, (3, 200)).astype(float)
        result = _numba.iir_df1_scaled(values, taps, code)
        for t in range(3):
            assert _same_bits(result[t], _recursion(values[t], taps, mode))
        assert np.array_equal(result, _iir_df1_batched(values, taps, mode))

    def test_diverging_filter_propagates_inf_and_nan(self):
        # No rounder raises: overflow and inf - inf flow through, in the
        # single stream and in every stacked row alike.
        b, a = np.array([1.0]), np.array([1.0, -8.0, 16.0])
        x = np.ones(600)
        with np.errstate(over="ignore", invalid="ignore"):
            single = iir_df1_double(x, b, a)
            stacked = iir_df1_double(np.stack([x, x]), b, a)
        assert np.isnan(single).any() and np.isinf(single).any()
        for row in stacked:
            assert _same_bits(row, single)

    def test_backend_switch_leaves_the_double_run_alone(self):
        b, a = design_iir_filter(6, 0.25, "lowpass", "chebyshev1")
        plan = compile_plan(build_sos_graph(b, a, fractional_bits=12))
        stimulus = {"x": uniform_white_noise(2000, seed=9)}
        fast = plan.run(stimulus, mode="double").output("y")
        with use_backend("reference"):
            slow = plan.run(stimulus, mode="double").output("y")
        assert _same_bits(fast, slow)


# ----------------------------------------------------------------------
# Fixed-point FFT and the overlap-save node
# ----------------------------------------------------------------------
class TestFixedPointFftVectorization:
    @pytest.mark.parametrize("mode", MODES)
    def test_batched_forward_equals_reference_loop(self, rng, mode):
        engine = FixedPointFft(16, 12, rounding=mode)
        blocks = rng.uniform(-1.0, 1.0, (40, 16))
        batched = engine.forward(blocks)
        for t in range(blocks.shape[0]):
            assert np.array_equal(batched[t],
                                  engine._forward_reference(
                                      blocks[t].astype(complex)))

    def test_reference_backend_routes_through_loop(self, rng):
        engine = FixedPointFft(16, 10)
        blocks = rng.uniform(-1.0, 1.0, (3, 16))
        with use_backend("reference"):
            looped = engine.forward(blocks)
        fast = engine.forward(blocks)
        assert np.array_equal(looped, fast)

    def test_inverse_round_trip_backend_invariant(self, rng):
        engine = FixedPointFft(16, 12)
        spectra = (rng.uniform(-1, 1, (7, 16))
                   + 1j * rng.uniform(-1, 1, (7, 16)))
        fast = engine.inverse(spectra)
        with use_backend("reference"):
            slow = engine.inverse(spectra)
        assert np.array_equal(fast, slow)

    def test_wrong_block_length_rejected(self):
        engine = FixedPointFft(16, 12)
        with pytest.raises(ValueError, match="expected a block"):
            engine.forward(np.zeros(8))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality; unlike ``np.array_equal``, -0.0 != +0.0."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


class TestFrequencyDomainNodeVectorization:
    """The fast path runs the overlap-save blocks in chunks of rows.

    Block counts are derived from the chunk constant, so the tests keep
    landing on the chunk boundaries if it is retuned.
    """

    def _node(self, bits=12, rounding=RoundingMode.ROUND, fft_size=16):
        from repro.sfg.nodes import QuantizationSpec
        from repro.systems.freq_filter import default_frequency_domain_taps
        taps = default_frequency_domain_taps(9 if fft_size > 8 else 5)
        return FrequencyDomainFirNode(
            "freq", taps, fft_size=fft_size,
            quantization=QuantizationSpec(fractional_bits=bits,
                                          rounding=rounding))

    @staticmethod
    def _rows_per_chunk(node) -> int:
        from repro.systems.freq_filter import _CHUNK_SAMPLES
        return max(1, _CHUNK_SAMPLES // node.fft_size)

    @staticmethod
    def _stimulus(node, blocks: int, trials: int = 1, seed: int = 30):
        # (blocks - 1) full hops plus one sample: exactly ``blocks``
        # overlap-save blocks, the last one mostly zero padding.
        hop = node.fft_size - len(node.taps) + 1
        samples = (blocks - 1) * hop + 1
        rows = [uniform_white_noise(samples, seed=seed + t)
                for t in range(trials)]
        return rows[0] if trials == 1 else np.stack(rows)

    @staticmethod
    def _matches_reference(node, x) -> np.ndarray:
        fast = node.simulate_fixed([x])
        with use_backend("reference"):
            slow = node.simulate_fixed([x])
        assert _same_bits(fast, slow)
        return fast

    @pytest.mark.parametrize("mode", MODES)
    def test_fixed_pipeline_matches_reference(self, mode):
        node = self._node(rounding=mode)
        self._matches_reference(node, uniform_white_noise(3000, seed=4))

    @pytest.mark.parametrize("blocks", [
        lambda rows: 1,
        lambda rows: rows,
        lambda rows: rows + 1,
        lambda rows: 2 * rows + 3,
    ], ids=["one-block", "one-chunk", "chunk-plus-one",
            "several-chunks-partial-tail"])
    def test_chunk_boundaries_match_reference_bitwise(self, blocks):
        node = self._node()
        x = self._stimulus(node, blocks(self._rows_per_chunk(node)))
        self._matches_reference(node, x)

    @pytest.mark.parametrize("mode", MODES)
    def test_signed_zeros_survive_a_chunk_boundary(self, mode):
        # At 4 fractional bits many outputs round to zero; ROUND and
        # CONVERGENT keep the sign of negative ones (-0.0).
        node = self._node(bits=4, rounding=mode)
        x = self._stimulus(node, self._rows_per_chunk(node) + 1)
        fast = self._matches_reference(node, x)
        if mode is not RoundingMode.TRUNCATE:
            assert np.any((fast == 0.0) & np.signbit(fast))

    @pytest.mark.parametrize("fft_size", [8, 16, 64])
    def test_trial_stack_chunks_across_trials(self, fft_size):
        # Three trials of half a chunk plus one block each: the flattened
        # rows cross a chunk boundary inside the second trial.
        node = self._node(fft_size=fft_size)
        blocks = self._rows_per_chunk(node) // 2 + 1
        x = self._stimulus(node, blocks, trials=3)
        fast = self._matches_reference(node, x)
        for t in range(3):
            assert _same_bits(fast[t], node.simulate_fixed([x[t]]))

    def test_batched_trials_equal_per_trial_rows(self):
        node = self._node()
        x = np.stack([uniform_white_noise(640, seed=20 + t)
                      for t in range(5)])
        batched_fixed = node.simulate_fixed([x])
        batched_double = node.simulate([x])
        assert batched_fixed.shape == x.shape
        for t in range(x.shape[0]):
            assert np.array_equal(batched_fixed[t],
                                  node.simulate_fixed([x[t]]))
            assert np.array_equal(batched_double[t], node.simulate([x[t]]))

    def test_double_path_matches_reference_backend(self):
        node = self._node()
        x = uniform_white_noise(2500, seed=6)
        fast = node.simulate([x])
        with use_backend("reference"):
            slow = node.simulate([x])
        assert np.array_equal(fast, slow)


class TestOverlapSaveBatched:
    def test_batched_rows_equal_per_row(self, rng):
        from repro.lti.convolution import overlap_save
        h = rng.standard_normal(5)
        x = rng.standard_normal((4, 100))
        batched = overlap_save(x, h, 16)
        assert batched.shape == x.shape
        for t in range(x.shape[0]):
            assert np.array_equal(batched[t], overlap_save(x[t], h, 16))

    def test_streaming_loop_rejects_batches(self, rng):
        from repro.lti.convolution import overlap_save
        h = rng.standard_normal(5)
        x = rng.standard_normal((4, 100))
        with use_backend("reference"):
            with pytest.raises(ValueError, match="1-D stream"):
                overlap_save(x, h, 16)


# ----------------------------------------------------------------------
# Welch vectorization
# ----------------------------------------------------------------------
class TestWelchVectorization:
    @pytest.mark.parametrize("n_bins", [32, 128, 256])
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
    def test_welch_equals_reference_loop(self, rng, n_bins, overlap):
        x = rng.standard_normal(5000)
        fast = welch(x, n_bins, overlap=overlap)
        slow = _welch_reference(x, n_bins, overlap=overlap)
        assert np.array_equal(fast.ac, slow.ac)
        assert fast.mean == slow.mean

    def test_short_record_zero_padding(self, rng):
        x = rng.standard_normal(20)
        fast = welch(x, 64)
        slow = _welch_reference(x, 64)
        assert np.array_equal(fast.ac, slow.ac)

    def test_extreme_overlap_hop_clamp(self, rng):
        x = rng.standard_normal(400)
        fast = welch(x, 64, overlap=0.999)
        slow = _welch_reference(x, 64, overlap=0.999)
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

    def test_estimate_psd_batch_periodogram(self, rng):
        records = rng.standard_normal((3, 700))
        batch = estimate_psd_batch(records, 64, method="periodogram")
        for row, psd in zip(records, batch):
            single = estimate_psd(row, 64, method="periodogram")
            assert np.array_equal(psd.ac, single.ac)

    def test_empty_and_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            welch(np.array([]), 16)
        with pytest.raises(ValueError):
            welch(np.ones(100), 16, overlap=1.0)

    def test_memory_bounded_fallback_is_bitwise_identical(self, rng,
                                                          monkeypatch):
        # Extreme overlap clamps the hop to one sample — nearly one
        # segment per sample.  Force the bounded-memory per-segment path
        # on a small record and pin it against both the one-shot pass
        # and the reference loop.
        from repro.psd import estimation
        x = rng.standard_normal(3000)
        one_shot = welch(x, 64, overlap=0.99)
        monkeypatch.setattr(estimation, "_MAX_ONE_SHOT_ELEMENTS", 1024)
        looped = welch(x, 64, overlap=0.99)
        reference = _welch_reference(x, 64, overlap=0.99)
        assert np.array_equal(looped.ac, one_shot.ac)
        assert np.array_equal(looped.ac, reference.ac)


# ----------------------------------------------------------------------
# Backend selection machinery
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_default_backend_consistent_with_numba_detection(self):
        # One default, with or without numba: the JIT is a tier inside
        # it, not a backend of its own.
        assert default_backend() == "fast"
        assert get_backend() == "fast"

    def test_use_backend_restores_previous_choice(self):
        before = get_backend()
        with use_backend("reference"):
            assert get_backend() == "reference"
            with use_backend("fast"):
                assert get_backend() == "fast"
            assert get_backend() == "reference"
        assert get_backend() == before

    def test_unknown_backend_rejected(self):
        # The retired kernel names are unknown too.
        for name in ("fortran", "numpy", "codegen"):
            with pytest.raises(ValueError,
                               match="unknown simulation backend"):
                with use_backend(name):
                    pass
        assert get_backend() == "fast"

    def test_numba_request_without_numba_rejected(self):
        # numba switches on inside the default backend when importable;
        # it is never requested by name.
        with pytest.raises(ValueError, match="'reference', 'fast'"):
            with use_backend("numba"):
                pass


# ----------------------------------------------------------------------
# Plan-level batch validation
# ----------------------------------------------------------------------
class TestPlanBatchValidation:
    def _two_input_graph(self):
        from repro.sfg.builder import SfgBuilder
        builder = SfgBuilder("two-input")
        left = builder.input("left", fractional_bits=10)
        right = builder.input("right", fractional_bits=10)
        total = builder.add("sum", [left, right])
        builder.output("y", total)
        return builder.build()

    def test_mismatched_trial_axes_rejected(self):
        plan = compile_plan(self._two_input_graph())
        stimulus = {"left": np.zeros((3, 64)), "right": np.zeros((4, 64))}
        with pytest.raises(ValueError, match="trial axes"):
            plan.run(stimulus, mode="double")
        with pytest.raises(ValueError, match="trial axes"):
            plan.run_pair(stimulus)

    def test_broadcast_of_unbatched_stimulus_still_allowed(self):
        plan = compile_plan(self._two_input_graph())
        stimulus = {"left": np.ones((3, 64)), "right": np.ones(64)}
        result = plan.run(stimulus, mode="fixed").output("y")
        assert result.shape == (3, 64)
        assert np.all(result == 2.0)
