"""Unit tests for per-source tracked spectra."""

import numpy as np
import pytest

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.transfer_function import TransferFunction
from repro.psd.propagation import TrackedSpectrum
from repro.psd.spectrum import DiscretePsd


class TestTrackedSpectrum:
    def test_single_source_matches_discrete_psd(self):
        stats = NoiseStats(mean=0.1, variance=1.0)
        tracked = TrackedSpectrum.from_source("s", stats, 64)
        psd = tracked.to_psd()
        reference = DiscretePsd.white(stats, 64)
        assert psd.variance == pytest.approx(reference.variance)
        assert psd.mean == pytest.approx(reference.mean)

    def test_filtering_matches_discrete_psd(self):
        stats = NoiseStats(mean=0.0, variance=1.0)
        taps = design_fir_lowpass(31, 0.3)
        response = TransferFunction.fir(taps).frequency_response(128)
        tracked = TrackedSpectrum.from_source("s", stats, 128).filtered(response)
        reference = DiscretePsd.white(stats, 128).filtered(response)
        assert tracked.to_psd().variance == pytest.approx(reference.variance)

    def test_independent_sources_add_power(self):
        a = TrackedSpectrum.from_source("a", NoiseStats(0.0, 1.0), 32)
        b = TrackedSpectrum.from_source("b", NoiseStats(0.0, 2.0), 32)
        assert (a + b).total_power == pytest.approx(3.0)

    def test_reconvergent_same_source_adds_coherently(self):
        """x + x has 4x the power of x, not 2x (full correlation)."""
        source = TrackedSpectrum.from_source("s", NoiseStats(0.0, 1.0), 32)
        assert (source + source).total_power == pytest.approx(4.0)

    def test_reconvergent_cancellation(self):
        """x - x is exactly zero, which uncorrelated addition cannot model."""
        source = TrackedSpectrum.from_source("s", NoiseStats(0.0, 1.0), 32)
        cancelled = source + source.scaled(-1.0)
        assert cancelled.total_power == pytest.approx(0.0, abs=1e-15)

    def test_uncorrelated_addition_differs_from_tracked(self):
        """The same situation handled with DiscretePsd overestimates."""
        stats = NoiseStats(0.0, 1.0)
        uncorrelated = (DiscretePsd.white(stats, 32)
                        + DiscretePsd.white(stats, 32).scaled(-1.0))
        assert uncorrelated.total_power == pytest.approx(2.0)

    def test_mismatched_bins_rejected(self):
        a = TrackedSpectrum.zero(16)
        b = TrackedSpectrum.zero(32)
        with pytest.raises(ValueError):
            a + b

    def test_delayed_reconvergence_partial_correlation(self):
        """x[n] + x[n-1]: power spectrum |1 + e^{-jw}|^2 shaping."""
        stats = NoiseStats(0.0, 1.0)
        n = 64
        direct = TrackedSpectrum.from_source("s", stats, n)
        delayed = direct.filtered(
            TransferFunction.delay(1).frequency_response(n))
        combined = direct + delayed
        assert combined.total_power == pytest.approx(2.0, rel=1e-9)
        psd = combined.to_psd()
        # DC bin gain is |1 + 1|^2 = 4, Nyquist bin gain is 0.
        assert psd.ac[0] == pytest.approx(4.0 / n, rel=1e-9)
        assert psd.ac[n // 2] == pytest.approx(0.0, abs=1e-12)


class TestWhiteSourceNormalization:
    """One library-wide bin convention for a white source, all engines.

    A white noise of moments ``(mu, sigma^2)`` on ``n`` bins is
    ``sigma^2 / n`` on every bin plus ``mu^2`` on DC — whether it is built
    by the PSD engine's container or collapsed from a tracked spectrum.
    """

    def test_bin_by_bin_agreement_across_engines(self):
        stats = NoiseStats(mean=0.125, variance=0.75)
        n_bins = 32
        model = DiscretePsd.white(stats, n_bins).values
        tracked = TrackedSpectrum.from_source("s", stats, n_bins)
        collapsed = tracked.to_psd().values
        np.testing.assert_allclose(model, collapsed, rtol=1e-12)
        # And the convention itself: variance/n everywhere, mean^2 on DC.
        np.testing.assert_allclose(model[1:], stats.variance / n_bins)
        assert model[0] == pytest.approx(stats.mean ** 2
                                         + stats.variance / n_bins)
        assert np.sum(model) == pytest.approx(stats.power, rel=1e-12)

    def test_single_source_graph_agrees_end_to_end(self):
        # A quantized input feeding a plain output: the estimated output
        # PSD is exactly the white source, in every engine.
        from repro.analysis.psd_method import evaluate_psd, evaluate_psd_tracked
        from repro.sfg.builder import SfgBuilder

        builder = SfgBuilder("white-source")
        x = builder.input("x", fractional_bits=8)
        builder.output("y", x)
        graph = builder.build()
        source = graph.node("x").generated_noise()

        psd = evaluate_psd(graph, 16)
        tracked = evaluate_psd_tracked(graph, 16)
        np.testing.assert_allclose(psd.values,
                                   DiscretePsd.white(source, 16).values,
                                   rtol=1e-12)
        np.testing.assert_allclose(psd.values, tracked.values, rtol=1e-12)
