"""Cross-module property-based tests of the library-wide invariants.

These tests tie together the fixed-point, PSD and analysis layers and
check the conservation laws the whole methodology rests on:

* total noise power is conserved by the PSD representation through
  decimation and expansion, and an FIR path's power is the same on every
  grid that resolves its taps;
* the analytical estimators are consistent with each other in the regimes
  where they are supposed to coincide;
* estimates scale exactly as ``q^2`` with the word length (the property
  that makes word-length optimization monotone);
* the separable 2-D noise field agrees with the 1-D machinery on
  separable inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.flat_method import evaluate_flat
from repro.analysis.psd_method import evaluate_psd
from repro.fixedpoint.noise_model import NoiseStats, quantization_noise_stats
from repro.fixedpoint.quantizer import (
    Quantizer,
    RoundingMode,
    round_half_away,
)
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.transfer_function import TransferFunction
from repro.psd.spectrum import DiscretePsd
from repro.sfg.builder import SfgBuilder
from repro.systems.dwt.noise_model import SeparableNoiseField

_ROUNDING_MODES = st.sampled_from([RoundingMode.ROUND, RoundingMode.TRUNCATE,
                                   RoundingMode.CONVERGENT])


def _simple_graph(bits, taps):
    # Coefficients are pinned to a fixed high precision so that changing the
    # data word length changes only the data-path noise (which is what the
    # q^2-scaling property is about), not the effective transfer function.
    builder = SfgBuilder("prop")
    x = builder.input("x", fractional_bits=bits)
    h = builder.fir("h", taps, x, fractional_bits=bits,
                    coefficient_fractional_bits=24)
    builder.output("y", h)
    return builder.build()


class TestPsdConservationLaws:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=3, max_value=17),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=6, max_value=16))
    def test_fir_noise_power_does_not_depend_on_the_grid(self, taps_count,
                                                         log_a, log_b, bits):
        """On ``N >= taps`` bins the mean of ``|H|^2`` is the tap energy
        exactly (Parseval on the DFT), so the estimated power of an FIR
        path is the same on every such PSD grid."""
        taps = design_fir_lowpass(2 * (taps_count // 2) + 1, 0.4)
        graph = _simple_graph(bits, taps)
        smallest = 1 << int(np.ceil(np.log2(len(taps))))
        power_a = evaluate_psd(graph, smallest << log_a).total_power
        power_b = evaluate_psd(graph, smallest << log_b).total_power
        assert power_a == pytest.approx(power_b, rel=1e-9)
        assert power_a == pytest.approx(evaluate_agnostic(graph).power,
                                        rel=1e-9)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=1, max_value=4),
           st.floats(min_value=1e-6, max_value=10.0))
    def test_decimation_then_expansion_halves_power_each_round(self, rounds,
                                                               variance):
        psd = DiscretePsd.from_moments(0.0, variance, 256)
        field = SeparableNoiseField.zero(64).injected(NoiseStats(0.0, variance))
        for _ in range(rounds):
            psd = psd.downsampled(2).upsampled(2)
            field = field.downsampled(0).upsampled(0)
        expected = variance / (2.0 ** rounds)
        assert psd.variance == pytest.approx(expected, rel=1e-9)
        assert field.variance == pytest.approx(expected, rel=1e-9)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=5, max_value=31).filter(lambda n: n % 2 == 1),
           st.floats(min_value=0.1, max_value=0.9))
    def test_filtering_power_matches_parseval(self, taps_count, cutoff):
        taps = design_fir_lowpass(taps_count, cutoff)
        tf = TransferFunction.fir(taps)
        psd = DiscretePsd.from_moments(0.0, 1.0, 1024)
        filtered = psd.filtered(tf.frequency_response(1024))
        assert filtered.variance == pytest.approx(tf.energy(), rel=1e-6)

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=0.1, max_value=0.9))
    def test_separable_field_matches_1d_psd_on_row_filtering(self, variance,
                                                             cutoff):
        """Filtering along one axis of a white 2-D field equals the 1-D case."""
        taps = design_fir_lowpass(15, cutoff)
        field = (SeparableNoiseField.zero(128)
                 .injected(NoiseStats(0.0, variance))
                 .filtered(taps, axis=1))
        psd = DiscretePsd.from_moments(0.0, variance, 128).filtered(
            TransferFunction.fir(taps).frequency_response(128))
        assert field.variance == pytest.approx(psd.variance, rel=1e-6)


class TestFixedPointInvariants:
    """Seeded properties of the quantization layer itself: idempotence,
    odd symmetry of the rounding characteristic, and agreement of the
    PQN noise model with empirically measured error moments."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=16), _ROUNDING_MODES,
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_quantizer_is_idempotent(self, bits, rounding, seed):
        """Re-quantizing at the same format must be the identity."""
        quantizer = Quantizer(bits, rounding=rounding)
        values = np.random.default_rng(seed).uniform(-4.0, 4.0, 512)
        once = quantizer.quantize(values)
        np.testing.assert_array_equal(quantizer.quantize(once), once)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_round_half_away_is_odd(self, half_step, seed):
        """``round_half_away(-x) == -round_half_away(x)``, ties included."""
        # Exact half-integers are the interesting inputs — they are where
        # the asymmetric floor(x + 0.5) rule breaks the symmetry.
        ties = np.array([half_step / 2.0])
        np.testing.assert_array_equal(round_half_away(-ties),
                                      -round_half_away(ties))
        values = np.random.default_rng(seed).uniform(-100.0, 100.0, 256)
        np.testing.assert_array_equal(round_half_away(-values),
                                      -round_half_away(values))

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=3, max_value=8), _ROUNDING_MODES,
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_pqn_moments_match_empirical_continuous_input(self, bits,
                                                          rounding, seed):
        """Model moments vs measured moments, continuous-amplitude input."""
        model = quantization_noise_stats(bits, rounding=rounding)
        quantizer = Quantizer(bits, rounding=rounding)
        values = np.random.default_rng(seed).uniform(-0.9, 0.9, 200_000)
        error = quantizer.quantize(values) - values
        step = 2.0 ** -bits
        # Mean to five standard errors of the uniform error distribution;
        # variance to 5 % (exact for a uniform continuous input).
        assert np.mean(error) == pytest.approx(
            model.mean, abs=5.0 * step / np.sqrt(12.0 * error.size))
        assert np.var(error) == pytest.approx(model.variance, rel=0.05)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=3, max_value=7),
           st.integers(min_value=2, max_value=8), _ROUNDING_MODES,
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_pqn_moments_match_empirical_requantization(self, bits, extra,
                                                        rounding, seed):
        """Model moments vs measured moments when the input already lives
        on a finer grid (the re-quantization case, including the tie
        term of ties-away-from-zero rounding)."""
        input_bits = bits + extra
        model = quantization_noise_stats(bits, rounding=rounding,
                                         input_fractional_bits=input_bits)
        fine = Quantizer(input_bits, rounding=rounding)
        coarse = Quantizer(bits, rounding=rounding)
        values = fine.quantize(
            np.random.default_rng(seed).uniform(-0.9, 0.9, 400_000))
        error = coarse.quantize(values) - values
        step = 2.0 ** -bits
        tolerance = 5.0 * step / np.sqrt(12.0 * error.size)
        if rounding is RoundingMode.CONVERGENT:
            # The model documents that the discrete-input tie term of
            # convergent rounding is neglected; only the mean is exact.
            assert np.mean(error) == pytest.approx(model.mean, abs=tolerance)
        else:
            assert np.mean(error) == pytest.approx(model.mean, abs=tolerance)
            assert np.var(error) == pytest.approx(
                model.variance, rel=0.05, abs=step * step / 2_000.0)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=6), _ROUNDING_MODES)
    def test_coarser_or_equal_input_grid_means_zero_noise(self, bits, extra,
                                                          rounding):
        """A quantizer whose input is already representable is lossless —
        the model must predict exactly zero noise for it."""
        stats = quantization_noise_stats(
            bits, rounding=rounding, input_fractional_bits=max(0, bits - extra))
        assert stats.mean == 0.0
        assert stats.variance == 0.0


class TestEstimatorConsistency:
    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=6, max_value=20),
           st.integers(min_value=5, max_value=41).filter(lambda n: n % 2 == 1),
           st.floats(min_value=0.15, max_value=0.85))
    def test_flat_psd_agnostic_coincide_on_single_block(self, bits, taps_count,
                                                        cutoff):
        graph = _simple_graph(bits, design_fir_lowpass(taps_count, cutoff))
        psd = evaluate_psd(graph, 1024).total_power
        flat = evaluate_flat(graph).power
        agnostic = evaluate_agnostic(graph).power
        assert psd == pytest.approx(flat, rel=5e-3)
        assert agnostic == pytest.approx(flat, rel=5e-3)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=6, max_value=16),
           st.integers(min_value=1, max_value=6))
    def test_estimates_scale_exactly_as_q_squared(self, bits, extra_bits):
        taps = design_fir_lowpass(17, 0.4)
        coarse = evaluate_psd(_simple_graph(bits, taps), 256).total_power
        fine = evaluate_psd(_simple_graph(bits + extra_bits, taps),
                            256).total_power
        assert coarse / fine == pytest.approx(4.0 ** extra_bits, rel=1e-6)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=6, max_value=16))
    def test_more_quantizers_never_reduce_noise(self, bits):
        """Adding a quantized stage can only add noise."""
        taps = design_fir_lowpass(17, 0.4)
        single = evaluate_psd(_simple_graph(bits, taps), 256).total_power

        builder = SfgBuilder("two-stage")
        x = builder.input("x", fractional_bits=bits)
        h1 = builder.fir("h1", taps, x, fractional_bits=bits)
        h2 = builder.fir("h2", [1.0], h1, fractional_bits=bits)
        builder.output("y", h2)
        double = evaluate_psd(builder.build(), 256).total_power
        assert double >= single - 1e-18

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=4, max_value=10),
           st.integers(min_value=2, max_value=64))
    def test_psd_power_independent_of_bin_count_for_white_paths(self, bits,
                                                                n_bins):
        """With a pure-gain path the estimate must not depend on N_PSD."""
        builder = SfgBuilder("gain-only")
        x = builder.input("x", fractional_bits=bits)
        g = builder.gain("g", 0.5, x, fractional_bits=bits)
        builder.output("y", g)
        graph = builder.build()
        reference = evaluate_psd(graph, 2).total_power
        assert evaluate_psd(graph, n_bins).total_power == pytest.approx(
            reference, rel=1e-9)
