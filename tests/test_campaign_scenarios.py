"""Scenario-family validation: registry, serialization, equivalence, Ed.

For every campaign scenario family (including the four new system
families of :mod:`repro.systems.families`) this module pins down the full
contract the campaign layer relies on:

* the registry builds the family, enforces its parameter names and
  produces a stable parameter signature;
* the built graph serializes loss-free (round-trip preserves the
  canonical fingerprint) — cache keys would be meaningless otherwise;
* the compiled-plan walks are bitwise identical to the legacy reference
  traversals (plan-vs-legacy equivalence for the new families);
* the analytical estimate agrees with the Monte-Carlo simulation within
  the paper's sub-one-bit ``Ed`` band.
"""

import numpy as np
import pytest

from repro.analysis.agnostic_method import evaluate_agnostic
from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.metrics import is_sub_one_bit
from repro.analysis.psd_method import evaluate_psd
from repro.campaign import build_scenario, get_family, scenario_names
from repro.campaign.registry import scenario_signature
from repro.sfg.plan import compile_plan
from repro.sfg.serialization import (
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
)
from repro.systems.families import (
    build_cascaded_sos_bank,
    build_fft_butterfly,
    build_interpolator_chain,
    build_polyphase_decimator,
)
from repro.verify.legacy import legacy_agnostic, legacy_psd, legacy_run

# The four new families, built small enough for fast bitwise checks.
NEW_FAMILIES = {
    "cascaded_sos_bank": lambda: build_cascaded_sos_bank(
        channels=2, order=2, fractional_bits=10),
    "polyphase_decimator": lambda: build_polyphase_decimator(
        taps=16, factor=4, fractional_bits=10),
    "interpolator_chain": lambda: build_interpolator_chain(
        stages=2, taps=11, fractional_bits=10),
    "fft_butterfly": lambda: build_fft_butterfly(
        stages=3, bin_index=3, fractional_bits=10),
}


class TestRegistry:
    def test_all_builtin_families_registered(self):
        names = scenario_names()
        for expected in ("cascaded_sos_bank", "polyphase_decimator",
                         "interpolator_chain", "fft_butterfly",
                         "table1_fir", "table1_iir", "dwt97_bank"):
            assert expected in names

    @pytest.mark.parametrize("name", ["cascaded_sos_bank",
                                      "polyphase_decimator",
                                      "interpolator_chain",
                                      "fft_butterfly",
                                      "table1_fir", "table1_iir",
                                      "dwt97_bank"])
    def test_families_build_valid_instances(self, name):
        instance = build_scenario(name)
        assert instance.graph.output_names()
        assert instance.stimulus.num_samples > 0

    def test_parameter_overrides_and_validation(self):
        instance = build_scenario("polyphase_decimator", {"factor": 2})
        assert instance.params["factor"] == 2
        assert instance.params["taps"] == 32  # default retained
        with pytest.raises(ValueError, match="no parameter"):
            build_scenario("polyphase_decimator", {"bogus": 1})
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("not_a_family")

    def test_signature_is_order_stable_and_parameter_sensitive(self):
        a = scenario_signature("fam", {"x": 1, "y": 2})
        b = scenario_signature("fam", {"y": 2, "x": 1})
        c = scenario_signature("fam", {"x": 1, "y": 3})
        assert a == b
        assert a != c
        assert build_scenario("fft_butterfly").signature \
            != build_scenario("fft_butterfly", {"stages": 2}).signature

    def test_defaults_listed_for_cli(self):
        family = get_family("cascaded_sos_bank")
        assert set(family.defaults) == {"channels", "order",
                                        "fractional_bits", "family"}
        assert family.description


class TestBuilderEdgeCases:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_cascaded_sos_bank(channels=0)
        with pytest.raises(ValueError):
            build_polyphase_decimator(factor=1)
        with pytest.raises(ValueError):
            build_polyphase_decimator(taps=2, factor=4)
        with pytest.raises(ValueError):
            build_interpolator_chain(stages=0)
        with pytest.raises(ValueError):
            build_fft_butterfly(stages=3, bin_index=8)

    def test_single_channel_bank_has_no_adder(self):
        graph = build_cascaded_sos_bank(channels=1, order=2)
        assert "merge" not in graph.nodes

    def test_polyphase_output_matches_direct_decimation(self):
        """The polyphase structure must equal filter-then-decimate."""
        from repro.lti.fir_design import design_fir_lowpass
        graph = build_polyphase_decimator(taps=16, factor=4,
                                          fractional_bits=None)
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.9, 0.9, 4096)
        polyphase = compile_plan(graph).run({"x": x}, mode="double").output("y")
        direct = np.convolve(x, design_fir_lowpass(16, 0.2))[:len(x)][::4]
        np.testing.assert_allclose(polyphase, direct, atol=1e-12)


@pytest.mark.parametrize("family", sorted(NEW_FAMILIES))
class TestNewFamilyContracts:
    """Serialization + plan-vs-legacy equivalence per new family."""

    def test_serialization_round_trip(self, family):
        graph = NEW_FAMILIES[family]()
        data = graph_to_dict(graph)
        rebuilt = graph_from_dict(data)
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)
        assert sorted(rebuilt.nodes) == sorted(graph.nodes)
        assert len(rebuilt.edges) == len(graph.edges)

    def test_psd_method_bitwise_identical_to_legacy(self, family):
        graph = NEW_FAMILIES[family]()
        via_plan = evaluate_psd(graph, 128)
        legacy = legacy_psd(graph, 128)
        np.testing.assert_array_equal(via_plan.ac, legacy.ac)
        assert via_plan.mean == legacy.mean

    def test_agnostic_method_bitwise_identical_to_legacy(self, family):
        graph = NEW_FAMILIES[family]()
        via_plan = evaluate_agnostic(graph)
        legacy = legacy_agnostic(graph)
        assert via_plan.mean == legacy.mean
        assert via_plan.variance == legacy.variance

    def test_simulator_bitwise_identical_to_legacy(self, family):
        graph = NEW_FAMILIES[family]()
        rng = np.random.default_rng(23)
        x = rng.uniform(-0.9, 0.9, 2048)
        plan = compile_plan(graph)
        for mode in ("double", "fixed"):
            np.testing.assert_array_equal(
                plan.run({"x": x}, mode=mode).output("y"),
                legacy_run(graph, {"x": x}, mode))


@pytest.mark.parametrize("family", sorted(NEW_FAMILIES))
def test_estimates_within_ed_band(family):
    """Acceptance: each new family's analytical estimate must sit within
    the paper's sub-one-bit Ed band of the Monte-Carlo measurement."""
    instance = build_scenario(family)
    evaluator = AccuracyEvaluator(instance.graph, n_psd=256)
    stimulus = instance.stimulus.realize(instance.graph.input_names(),
                                         seed=7)
    comparison = evaluator.compare(
        stimulus, methods=("psd", "agnostic"),
        discard_transient=instance.stimulus.discard_transient)
    for method, report in comparison.reports.items():
        assert is_sub_one_bit(report.ed), \
            f"{family}/{method}: Ed={report.ed_percent:.1f}% out of band"
