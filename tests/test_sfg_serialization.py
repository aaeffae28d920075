"""Unit tests for graph serialization and the CLI front end."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.psd_method import evaluate_psd
from repro.cli import main as cli_main
from repro.lti.fir_design import design_fir_lowpass
from repro.lti.iir_design import design_iir_filter
from repro.lti.transfer_function import TransferFunction
from repro.sfg.builder import SfgBuilder
from repro.sfg.plan import compile_plan
from repro.sfg.nodes import LtiNode
from repro.sfg.serialization import (
    assignment_fingerprint,
    canonical_digest,
    canonical_graph_dict,
    fingerprint_of_canonical_dict,
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)


def _rich_graph():
    """A graph touching every serializable node type."""
    b, a = design_iir_filter(2, 0.4, "lowpass", "butterworth")
    builder = SfgBuilder("rich")
    x = builder.input("x", fractional_bits=12)
    fir = builder.fir("fir", design_fir_lowpass(9, 0.4), x, fractional_bits=12)
    gain = builder.gain("gain", 0.75, fir, fractional_bits=12)
    delay = builder.delay("delay", gain, samples=2)
    iir = builder.iir("iir", b, a, delay, fractional_bits=12)
    down = builder.downsample("down", iir, factor=2)
    up = builder.upsample("up", down, factor=2)
    lti = builder.lti("lti", TransferFunction([0.5, 0.5]), up)
    mix = builder.add("mix", [lti, gain], signs=[1.0, -1.0],
                      fractional_bits=12)
    builder.output("y", mix)
    return builder.build()


class TestRoundTrip:
    def test_dict_round_trip_preserves_structure(self):
        graph = _rich_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert set(rebuilt.nodes) == set(graph.nodes)
        assert len(rebuilt.edges) == len(graph.edges)

    def test_round_trip_preserves_behaviour(self, rng):
        graph = _rich_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        x = rng.uniform(-0.9, 0.9, 512)
        original = compile_plan(graph).run({"x": x}, mode="fixed").output("y")
        restored = compile_plan(rebuilt).run({"x": x}, mode="fixed").output("y")
        np.testing.assert_allclose(restored, original)

    def test_round_trip_preserves_noise_estimate(self):
        graph = _rich_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert evaluate_psd(rebuilt, 128).total_power == pytest.approx(
            evaluate_psd(graph, 128).total_power)

    def test_file_round_trip(self, tmp_path, rng):
        graph = _rich_graph()
        path = tmp_path / "system.json"
        save_graph(graph, path)
        rebuilt = load_graph(path)
        x = rng.uniform(-0.9, 0.9, 128)
        np.testing.assert_allclose(
            compile_plan(rebuilt).run({"x": x}).output("y"),
            compile_plan(graph).run({"x": x}).output("y"))

    def test_quantization_specs_preserved(self):
        graph = _rich_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert rebuilt.node("fir").quantization.fractional_bits == 12
        assert not rebuilt.node("delay").quantization.enabled

    def test_serialized_file_is_human_readable_json(self, tmp_path):
        path = tmp_path / "system.json"
        save_graph(_rich_graph(), path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert any(node["type"] == "iir" for node in data["nodes"])


def _single_node_graph(node_type: str):
    """Wrap one instance of ``node_type`` into a minimal valid graph."""
    from repro.fixedpoint.quantizer import RoundingMode
    from repro.sfg.graph import SignalFlowGraph
    from repro.sfg.nodes import (
        AddNode,
        DelayNode,
        DownsampleNode,
        FirNode,
        GainNode,
        IirNode,
        InputNode,
        LtiNode,
        OutputNode,
        QuantizationSpec,
        UpsampleNode,
    )

    spec = QuantizationSpec(fractional_bits=9,
                            rounding=RoundingMode.TRUNCATE,
                            coefficient_fractional_bits=11,
                            input_fractional_bits=14)
    b, a = design_iir_filter(2, 0.4, "lowpass", "butterworth")
    nodes = {
        "input": InputNode("n", spec),
        "output": OutputNode("n"),
        "add": AddNode("n", num_inputs=2, signs=[1.0, -1.0],
                       quantization=spec),
        "gain": GainNode("n", 0.625, quantization=spec),
        "delay": DelayNode("n", delay=3),
        "fir": FirNode("n", design_fir_lowpass(7, 0.3), quantization=spec),
        "iir": IirNode("n", b, a, quantization=spec),
        "lti": LtiNode("n", TransferFunction([0.5, 0.25], [1.0, -0.5]),
                       quantization=spec),
        "downsample": DownsampleNode("n", factor=2, phase=1),
        "upsample": UpsampleNode("n", factor=3),
    }
    node = nodes[node_type]

    graph = SignalFlowGraph(f"single-{node_type}")
    if node_type == "input":
        graph.add_node(node)
        graph.add_node(FirNode("h", [1.0, 0.5], quantization=spec))
        graph.add_node(OutputNode("y"))
        graph.connect("n", "h")
        graph.connect("h", "y")
        return graph
    graph.add_node(InputNode("x", spec))
    if node_type == "output":
        graph.add_node(node)
        graph.connect("x", "n")
        return graph
    graph.add_node(node)
    graph.add_node(OutputNode("y"))
    graph.connect("x", "n", 0)
    if node_type == "add":
        graph.add_node(GainNode("g2", 0.5, quantization=spec))
        graph.connect("x", "g2")
        graph.connect("g2", "n", 1)
    graph.connect("n", "y")
    return graph


_ALL_NODE_TYPES = ("input", "output", "add", "gain", "delay", "fir", "iir",
                   "lti", "downsample", "upsample")


class TestEveryNodeTypeRoundTrip:
    """Satellite coverage: every node type survives save -> load intact."""

    @pytest.mark.parametrize("node_type", _ALL_NODE_TYPES)
    def test_file_round_trip_preserves_node(self, node_type, tmp_path):
        graph = _single_node_graph(node_type)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        rebuilt = load_graph(path)
        assert set(rebuilt.nodes) == set(graph.nodes)
        original = graph.node("n")
        restored = rebuilt.node("n")
        assert type(restored) is type(original)

    @pytest.mark.parametrize("node_type", _ALL_NODE_TYPES)
    def test_quantization_spec_round_trips_exactly(self, node_type, tmp_path):
        graph = _single_node_graph(node_type)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        rebuilt = load_graph(path)
        for name, node in graph.nodes.items():
            spec = node.quantization
            restored = rebuilt.node(name).quantization
            assert restored.fractional_bits == spec.fractional_bits
            if spec.enabled:
                assert restored.rounding == spec.rounding
                assert restored.coefficient_fractional_bits == \
                    spec.coefficient_fractional_bits
                assert restored.input_fractional_bits == \
                    spec.input_fractional_bits

    @pytest.mark.parametrize("node_type", _ALL_NODE_TYPES)
    def test_reloaded_plan_produces_identical_estimates(self, node_type,
                                                        tmp_path):
        from repro.analysis.agnostic_method import evaluate_agnostic
        from repro.sfg.plan import compile_plan

        graph = _single_node_graph(node_type)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        plan = compile_plan(load_graph(path))
        original_psd = evaluate_psd(graph, 128)
        reloaded_psd = evaluate_psd(plan, 128)
        np.testing.assert_array_equal(reloaded_psd.ac, original_psd.ac)
        assert reloaded_psd.mean == original_psd.mean
        original_stats = evaluate_agnostic(graph)
        reloaded_stats = evaluate_agnostic(plan)
        assert reloaded_stats.mean == original_stats.mean
        assert reloaded_stats.variance == original_stats.variance

    def test_rich_graph_reloaded_plan_matches_executor(self, tmp_path, rng):
        from repro.sfg.plan import compile_plan

        graph = _rich_graph()
        path = tmp_path / "system.json"
        save_graph(graph, path)
        plan = compile_plan(load_graph(path))
        x = rng.uniform(-0.9, 0.9, 256)
        np.testing.assert_array_equal(
            plan.run({"x": x}, mode="fixed").output("y"),
            compile_plan(graph).run({"x": x}, mode="fixed").output("y"))


class TestFingerprints:
    def test_fingerprint_survives_round_trip(self):
        graph = _rich_graph()
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)

    def test_fingerprint_is_insertion_order_stable(self):
        # Build the same two-node system wiring-first vs nodes-reversed;
        # the plain serialized dicts differ (node order follows insertion)
        # but the canonical form and the fingerprint must not.
        from repro.sfg.graph import SignalFlowGraph
        from repro.sfg.nodes import FirNode, InputNode, OutputNode

        def build(order):
            graph = SignalFlowGraph("fp")
            nodes = {"x": InputNode("x"),
                     "h": FirNode("h", [0.5, 0.5]),
                     "y": OutputNode("y")}
            for name in order:
                graph.add_node(nodes[name])
            graph.connect("x", "h", 0)
            graph.connect("h", "y", 0)
            return graph

        forward, backward = build("xhy"), build("yhx")
        assert graph_to_dict(forward)["nodes"] \
            != graph_to_dict(backward)["nodes"]
        assert canonical_graph_dict(forward) == canonical_graph_dict(backward)
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_fingerprint_tracks_content(self):
        base = _rich_graph()
        changed = graph_from_dict(graph_to_dict(base))
        changed.node("gain").gain = 0.5
        assert graph_fingerprint(changed) != graph_fingerprint(base)
        requantized = graph_from_dict(graph_to_dict(base))
        node = requantized.node("fir")
        node.quantization = node.quantization.with_fractional_bits(7)
        assert graph_fingerprint(requantized) != graph_fingerprint(base)

    def test_fingerprint_is_version_tagged_hex(self):
        digest = graph_fingerprint(_rich_graph())
        assert len(digest) == 64
        int(digest, 16)  # pure hex

    def test_assignment_fingerprint_order_stable(self):
        assert assignment_fingerprint({"a": 4, "b": 8}) \
            == assignment_fingerprint({"b": 8, "a": 4})
        assert assignment_fingerprint({"a": 4}) \
            != assignment_fingerprint({"a": 5})
        assert assignment_fingerprint({"a": None}) \
            != assignment_fingerprint({"a": 0})

    def test_canonical_digest_ignores_key_order_only(self):
        payload = {"kind": "x", "values": [1, 2.5, None], "nested": {"b": 1,
                                                                   "a": 2}}
        reordered = {"nested": {"a": 2, "b": 1}, "values": [1, 2.5, None],
                     "kind": "x"}
        assert canonical_digest(reordered) == canonical_digest(payload)
        assert canonical_digest({**payload, "values": [2.5, 1, None]}) \
            != canonical_digest(payload)
        with pytest.raises(ValueError):
            canonical_digest({"value": float("nan")})

    def test_shipped_canonical_dict_keeps_the_fingerprint(self):
        """A canonical dict that crossed a JSON boundary (a campaign
        worker's copy) hashes to the graph's own fingerprint."""
        graph = _rich_graph()
        shipped = json.loads(json.dumps(canonical_graph_dict(graph)))
        assert fingerprint_of_canonical_dict(shipped) \
            == graph_fingerprint(graph)


class TestValidation:
    def test_unknown_node_type_rejected(self):
        with pytest.raises(ValueError):
            graph_from_dict({"version": 1, "name": "bad",
                             "nodes": [{"name": "x", "type": "modulator"}],
                             "edges": []})

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            graph_from_dict({"version": 99, "nodes": [], "edges": []})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            graph_from_dict({"version": 1,
                             "nodes": [{"type": "input"}], "edges": []})

    def test_unserializable_node_rejected(self):
        from repro.systems.freq_filter import FrequencyDomainFirNode
        from repro.sfg.graph import SignalFlowGraph
        from repro.sfg.nodes import InputNode, OutputNode

        graph = SignalFlowGraph("custom")
        graph.add_node(InputNode("x"))
        graph.add_node(FrequencyDomainFirNode("f", [1.0, 0.5], fft_size=8))
        graph.add_node(OutputNode("y"))
        graph.connect("x", "f")
        graph.connect("f", "y")
        with pytest.raises(TypeError):
            graph_to_dict(graph)


class TestCli:
    @pytest.fixture
    def system_file(self, tmp_path):
        path = tmp_path / "system.json"
        builder = SfgBuilder("cli-system")
        x = builder.input("x", fractional_bits=10)
        h = builder.fir("h", design_fir_lowpass(9, 0.4), x, fractional_bits=10)
        builder.output("y", h)
        save_graph(builder.build(), path)
        return path

    def test_evaluate_command(self, system_file, capsys):
        assert cli_main(["evaluate", str(system_file), "--method", "psd",
                         "--n-psd", "128"]) == 0
        output = capsys.readouterr().out
        assert "estimated output noise power" in output

    def test_simulate_command(self, system_file, capsys):
        assert cli_main(["simulate", str(system_file),
                         "--samples", "5000"]) == 0
        assert "simulated output noise power" in capsys.readouterr().out

    def test_compare_command(self, system_file, capsys):
        assert cli_main(["compare", str(system_file), "--samples", "5000",
                         "--methods", "psd", "flat"]) == 0
        output = capsys.readouterr().out
        assert "psd" in output and "flat" in output

    def test_optimize_command(self, system_file, capsys):
        assert cli_main(["optimize", str(system_file),
                         "--budget", "1e-5", "--n-psd", "64"]) == 0
        assert "optimized word lengths" in capsys.readouterr().out

    def test_missing_file_reports_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli_main(["evaluate", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestFineGrainedSpecSerialization:
    """Per-edge / per-signal spec fields in the JSON schema."""

    def _graph_with_fine_grained_specs(self):
        builder = SfgBuilder("fine")
        x = builder.input("x", fractional_bits=12)
        f = builder.fir("f", [0.5, 0.5], x, fractional_bits=10)
        g = builder.gain("g", 0.75, f, fractional_bits=9)
        builder.output("y", g)
        graph = builder.build()
        node = graph.node("x")
        node.quantization = replace(
            node.quantization.with_edge_fractional_bits("f", 8),
            integer_bits=2)
        return graph

    def test_round_trip_preserves_every_spec_field(self, tmp_path):
        """Completeness: a new spec field must survive save -> load.

        Driven by ``dataclasses.fields()`` so that adding a field to
        :class:`QuantizationSpec` without teaching the serializer fails
        here instead of silently dropping the field.
        """
        import dataclasses

        from repro.fixedpoint.quantizer import RoundingMode
        from repro.sfg.nodes import QuantizationSpec

        non_defaults = {
            "fractional_bits": 10,
            "rounding": RoundingMode.TRUNCATE,
            "coefficient_fractional_bits": 13,
            "input_fractional_bits": 9,
            "edge_fractional_bits": {"f": 7},
            "integer_bits": 3,
        }
        missing = [f.name for f in dataclasses.fields(QuantizationSpec)
                   if f.name not in non_defaults]
        assert not missing, \
            f"extend this test's non_defaults for new field(s) {missing}"
        builder = SfgBuilder("complete")
        x = builder.input("x", fractional_bits=12)
        f = builder.fir("f", [0.5, 0.5], x, fractional_bits=10)
        builder.output("y", f)
        graph = builder.build()
        graph.node("x").quantization = QuantizationSpec(**non_defaults)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        restored = load_graph(path).node("x").quantization
        for field in dataclasses.fields(QuantizationSpec):
            assert getattr(restored, field.name) \
                == getattr(graph.node("x").quantization, field.name), \
                f"serialization round-trip dropped {field.name}"

    def test_edge_taps_on_disabled_spec_round_trip(self, tmp_path):
        graph = self._graph_with_fine_grained_specs()
        node = graph.node("f")
        node.quantization = node.quantization.with_fractional_bits(None) \
            .with_edge_fractional_bits("g", 6)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        restored = load_graph(path)
        spec = restored.node("f").quantization
        assert not spec.enabled
        assert spec.edge_bits_for("g") == 6
        assert restored.node("x").quantization.edge_bits_for("f") == 8
        assert restored.node("x").quantization.integer_bits == 2

    def test_plain_specs_serialize_as_before(self):
        """Absent fine-grained fields leave the schema byte-identical."""
        builder = SfgBuilder("plain")
        x = builder.input("x", fractional_bits=12)
        f = builder.fir("f", [0.5, 0.5], x, fractional_bits=10)
        builder.output("y", f)
        data = graph_to_dict(builder.build())
        for node in data["nodes"]:
            assert "edge_fractional_bits" not in node
            assert "integer_bits" not in node

    def test_fingerprint_tracks_fine_grained_fields(self):
        base = self._graph_with_fine_grained_specs()
        tapped = self._graph_with_fine_grained_specs()
        node = tapped.node("x")
        node.quantization = node.quantization.with_edge_fractional_bits("f", 6)
        assert graph_fingerprint(base) != graph_fingerprint(tapped)
        unpinned = self._graph_with_fine_grained_specs()
        node = unpinned.node("x")
        node.quantization = replace(node.quantization, integer_bits=None)
        assert graph_fingerprint(base) != graph_fingerprint(unpinned)

    def test_assignment_fingerprint_accepts_edge_keys(self):
        first = assignment_fingerprint({"f": 10, "x->f": 8})
        second = assignment_fingerprint({"x->f": 8, "f": 10})
        assert first == second
        assert first != assignment_fingerprint({"f": 10, "x->f": 7})
