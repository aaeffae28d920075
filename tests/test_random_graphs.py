"""Seeded random-SFG generator: determinism, validity, constraints."""

import numpy as np
import pytest

from repro.data.signals import uniform_white_noise
from repro.campaign import build_scenario
from repro.sfg.plan import compile_plan
from repro.sfg.graph import is_multirate
from repro.sfg.nodes import DownsampleNode, IirNode, UpsampleNode
from repro.sfg.serialization import graph_fingerprint
from repro.systems.random_graphs import (
    COMPATIBLE_N_PSD,
    SEGMENT_FACTORS,
    build_random_graph,
    random_assignments,
)

SEEDS = list(range(12))


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_same_fingerprint(self, seed):
        first = build_random_graph(seed, blocks=8)
        second = build_random_graph(seed, blocks=8)
        assert graph_fingerprint(first) == graph_fingerprint(second)

    def test_different_seeds_differ(self):
        fingerprints = {graph_fingerprint(build_random_graph(seed, blocks=8))
                        for seed in SEEDS}
        assert len(fingerprints) == len(SEEDS)

    def test_size_knob_is_part_of_the_identity(self):
        small = build_random_graph(3, blocks=2)
        large = build_random_graph(3, blocks=10)
        assert len(large) > len(small)
        assert graph_fingerprint(small) != graph_fingerprint(large)

    def test_assignment_stack_is_deterministic(self):
        graph = build_random_graph(4, blocks=8)
        assert random_assignments(graph, 9, 4) == \
            random_assignments(graph, 9, 4)
        assert random_assignments(graph, 9, 4) != \
            random_assignments(graph, 10, 4)


@pytest.mark.parametrize("seed", SEEDS)
class TestValidity:
    def test_graph_is_valid_and_acyclic(self, seed):
        graph = build_random_graph(seed, blocks=8)
        graph.validate()  # no undriven ports, terminals present
        graph.topological_order()  # raises on a cycle
        assert graph.output_names() == ["y"]

    def test_input_is_always_a_noise_source(self, seed):
        graph = build_random_graph(seed, blocks=8)
        for name in graph.input_names():
            assert graph.node(name).quantization.enabled

    def test_iir_sections_are_stable(self, seed):
        graph = build_random_graph(seed, blocks=12)
        for node in graph.nodes.values():
            if isinstance(node, IirNode):
                poles = np.roots(node.transfer_function().a)
                assert np.all(np.abs(poles) < 0.9)

    def test_simulates_without_blowup(self, seed):
        graph = build_random_graph(seed, blocks=8)
        stimulus = {name: uniform_white_noise(2304, 0.9, seed + index)
                    for index, name in enumerate(graph.input_names())}
        plan = compile_plan(graph)
        for mode in ("double", "fixed"):
            output = plan.run(stimulus, mode=mode).output("y")
            assert np.all(np.isfinite(output))
            assert float(np.max(np.abs(output))) < 100.0

    def test_multirate_flag_honored(self, seed):
        single = build_random_graph(seed, blocks=10, multirate=False)
        assert not is_multirate(single)

    def test_compatible_n_psd_is_divisible_by_every_factor(self, seed):
        for factor in SEGMENT_FACTORS:
            assert COMPATIBLE_N_PSD % factor == 0
        # And by the optional final output decimator.
        assert COMPATIBLE_N_PSD % 2 == 0


class TestParameterValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_random_graph(0, blocks=-1)
        with pytest.raises(ValueError):
            build_random_graph(0, min_bits=10, max_bits=8)
        with pytest.raises(ValueError):
            build_random_graph(0, multirate=True, factors=())
        with pytest.raises(ValueError):
            random_assignments(build_random_graph(0), seed=0, count=0)

    def test_zero_blocks_is_a_minimal_system(self):
        graph = build_random_graph(11, blocks=0)
        graph.validate()
        # Input quantization alone must still inject noise.
        assert any(node.quantization.enabled
                   for node in graph.nodes.values())

    def test_assignments_cover_exactly_the_quantized_nodes(self):
        graph = build_random_graph(6, blocks=8)
        quantized = {name for name, node in graph.nodes.items()
                     if node.quantization.enabled}
        for assignment in random_assignments(graph, 1, 5):
            assert set(assignment) == quantized


class TestScenarioRegistration:
    def test_random_scenario_builds_through_the_registry(self):
        instance = build_scenario("random", {"seed": 21})
        assert instance.params["seed"] == 21
        assert instance.graph.output_names() == ["y"]
        assert instance.signature != \
            build_scenario("random", {"seed": 22}).signature

    def test_registry_graph_matches_direct_generation(self):
        instance = build_scenario("random", {"seed": 5, "blocks": 6})
        direct = build_random_graph(5, blocks=6, factors=(2,))
        assert graph_fingerprint(instance.graph) == graph_fingerprint(direct)

    def test_registry_restricts_to_power_of_two_factors(self):
        # Campaigns use power-of-two n_psd values; a factor-3 decimator
        # would make the PSD folding impossible there.
        for seed in range(8):
            graph = build_scenario("random", {"seed": seed}).graph
            for node in graph.nodes.values():
                if isinstance(node, (DownsampleNode, UpsampleNode)):
                    assert node.factor in (1, 2)
