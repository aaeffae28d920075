"""Unit tests for graph serialization and the CLI front end."""

import json

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


def _tapped_resampler_graph(node_type: str):
    """``x -> resampler d -> {g1, g2} -> add``, tap ``d->g1`` at 4 bits."""
    builder = SfgBuilder("tapped-resampler")
    x = builder.input("x", fractional_bits=12)
    if node_type == "downsample":
        d = builder.downsample("d", x, factor=2)
    else:
        d = builder.upsample("d", x, factor=2)
    g1 = builder.gain("g1", 0.5, d, fractional_bits=12)
    g2 = builder.gain("g2", 0.25, d, fractional_bits=12)
    builder.output("y", builder.add("s", [g1, g2], fractional_bits=12))
    graph = builder.build()
    node = graph.node("d")
    node.quantization = node.quantization.with_edge_fractional_bits("g1", 4)
    return graph


def _json_graph(**node_keys) -> dict:
    """``x -> gain g -> y`` as graph JSON, with extra keys on ``g``."""
    return {"version": 1, "name": "json",
            "nodes": [{"name": "x", "type": "input", "fractional_bits": 12},
                      {"name": "g", "type": "gain", "gain": 0.3,
                       "fractional_bits": 8, **node_keys},
                      {"name": "y", "type": "output"}],
            "edges": [{"source": "x", "target": "g", "port": 0},
                      {"source": "g", "target": "y", "port": 0}]}


class TestResamplerSpecsRoundTrip:
    @pytest.mark.parametrize("node_type", ["downsample", "upsample"])
    def test_fanout_tap_on_a_resampler_survives_save_and_load(
            self, node_type, tmp_path):
        graph = _tapped_resampler_graph(node_type)
        path = tmp_path / "system.json"
        save_graph(graph, path)
        restored = load_graph(path)
        assert restored.node("d").quantization == graph.node("d").quantization
        assert restored.node("d").quantization.edge_bits_for("g1") == 4
        before, after = evaluate_psd(graph, 128), evaluate_psd(restored, 128)
        np.testing.assert_array_equal(after.ac, before.ac)
        assert after.mean == before.mean
        assert graph_fingerprint(restored) == graph_fingerprint(graph)


class TestLoaderRefusesUnreadKeys:
    @pytest.mark.parametrize("key", ["integer_bits", "frac_bits", "taps",
                                     "factor"])
    def test_unread_node_key_names_node_and_key(self, key):
        with pytest.raises(ValueError,
                           match=f"^node 'g': unknown key '{key}'$"):
            graph_from_dict(_json_graph(**{key: 3}))

    def test_type_parameter_of_another_type_refused(self):
        data = _json_graph()
        data["nodes"].insert(2, {"name": "u", "type": "upsample",
                                 "factor": 2, "phase": 1})
        with pytest.raises(ValueError, match="^node 'u': unknown key 'phase'"):
            graph_from_dict(data)

    @pytest.mark.parametrize("key, value", [("fractional_bits", 8),
                                            ("rounding", "round"),
                                            ("edge_fractional_bits", {})])
    def test_spec_key_on_an_output_refused(self, key, value):
        data = _json_graph()
        data["nodes"][2][key] = value
        with pytest.raises(ValueError, match=f"^node 'y': unknown key '{key}'"):
            graph_from_dict(data)

    def test_unread_edge_key_names_the_edge(self):
        data = _json_graph()
        data["edges"][0]["weight"] = 1.0
        with pytest.raises(ValueError, match="^edge 'x' -> 'g': unknown key "
                                             "'weight'$"):
            graph_from_dict(data)

    def test_unread_top_level_key_refused(self):
        data = _json_graph()
        data["node"] = []
        with pytest.raises(ValueError, match="^graph: unknown key 'node'$"):
            graph_from_dict(data)


class TestJsonWidths:
    """Graph JSON hands widths to the spec as they are, and the spec
    refuses what is not an integer >= 0."""

    @pytest.mark.parametrize("key, bits", [
        ("coefficient_fractional_bits", -2),
        ("coefficient_fractional_bits", 7.5),
        ("coefficient_fractional_bits", True),
        ("coefficient_fractional_bits", "8"),
        ("input_fractional_bits", 9.5),
        ("fractional_bits", 8.7),
        ("fractional_bits", -1),
    ])
    def test_bad_width_names_node_and_field(self, key, bits):
        with pytest.raises(ValueError,
                           match=f"^node 'g': {key} must be an integer"):
            graph_from_dict(_json_graph(**{key: bits}))

    def test_bad_tap_width_names_node_field_and_target(self):
        data = _json_graph()
        data["nodes"][0]["edge_fractional_bits"] = {"g": 4.5}
        with pytest.raises(ValueError, match="^node 'x': edge_fractional_bits "
                                             "toward 'g' must be an integer"):
            graph_from_dict(data)


def _resampling_json() -> dict:
    """``x -> delay d -> downsample down -> upsample up -> y`` as graph
    JSON."""
    return {"version": 1, "name": "json",
            "nodes": [{"name": "x", "type": "input", "fractional_bits": 12},
                      {"name": "d", "type": "delay", "delay": 1},
                      {"name": "down", "type": "downsample", "factor": 2,
                       "phase": 0},
                      {"name": "up", "type": "upsample", "factor": 2},
                      {"name": "y", "type": "output"}],
            "edges": [{"source": "x", "target": "d", "port": 0},
                      {"source": "d", "target": "down", "port": 0},
                      {"source": "down", "target": "up", "port": 0},
                      {"source": "up", "target": "y", "port": 0}]}


# Each value loaded as a rounded integer before the integer rule.
_BAD_INTEGERS = [("d", "delay", 2.7), ("down", "factor", 2.9),
                 ("down", "phase", 1.5), ("up", "factor", True),
                 ("d", "delay", "3"), ("edge 'down' -> 'up'", "port", 0.7)]


def _with_bad_integer(where, key, value) -> dict:
    data = _resampling_json()
    if where.startswith("edge"):
        data["edges"][2][key] = value
    else:
        next(node for node in data["nodes"] if node["name"] == where)[key] \
            = value
    return data


class TestJsonIntegers:
    """A node's ``delay``, ``factor`` and ``phase`` and an edge's
    ``port`` follow the widths' rule: an integer >= 0, not a bool."""

    def test_integers_load(self):
        graph = graph_from_dict(_resampling_json())
        assert graph.node("d").delay == 1
        assert graph.node("down").factor == graph.node("up").factor == 2

    @pytest.mark.parametrize("where, key, value", _BAD_INTEGERS)
    def test_bad_integer_names_node_or_edge_and_key(self, where, key,
                                                    value):
        location = where if where.startswith("edge") else f"node {where!r}"
        with pytest.raises(ValueError) as raised:
            graph_from_dict(_with_bad_integer(where, key, value))
        assert str(raised.value) == (f"{location}: {key} must be an "
                                     f"integer >= 0, got {value!r}")


class TestCli:
    @pytest.mark.parametrize("where, key, value", _BAD_INTEGERS)
    def test_evaluate_bad_integer_is_one_error_line(self, capsys, tmp_path,
                                                    where, key, value):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(_with_bad_integer(where, key, value)))
        assert cli_main(["evaluate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{key} must be an integer" in lines[0]

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
        node.quantization = node.quantization.with_edge_fractional_bits("f", 8)
        return graph

    @pytest.mark.parametrize("fractional_bits, taps", [
        (10, {"f": 7}), (None, {"f": 7}), (None, {})])
    def test_round_trip_preserves_every_spec_field(self, tmp_path,
                                                   fractional_bits, taps):
        """Completeness: a new spec field must survive save -> load.

        Driven by ``dataclasses.fields()`` so that adding a field to
        :class:`QuantizationSpec` without teaching the serializer fails
        here instead of silently dropping the field.  A disabled spec
        keeps its other fields too: a batched evaluation that enables
        the node reads them.
        """
        import dataclasses

        from repro.fixedpoint.quantizer import RoundingMode
        from repro.sfg.nodes import QuantizationSpec

        non_defaults = {
            "fractional_bits": fractional_bits,
            "rounding": RoundingMode.TRUNCATE,
            "coefficient_fractional_bits": 13,
            "input_fractional_bits": 9,
            "edge_fractional_bits": taps,
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

    def test_plain_specs_serialize_as_before(self):
        """Absent fine-grained fields leave the schema byte-identical."""
        builder = SfgBuilder("plain")
        x = builder.input("x", fractional_bits=12)
        f = builder.fir("f", [0.5, 0.5], x, fractional_bits=10)
        builder.output("y", f)
        data = graph_to_dict(builder.build())
        for node in data["nodes"]:
            assert "edge_fractional_bits" not in node

    def test_fingerprint_tracks_fine_grained_fields(self):
        base = self._graph_with_fine_grained_specs()
        tapped = self._graph_with_fine_grained_specs()
        node = tapped.node("x")
        node.quantization = node.quantization.with_edge_fractional_bits("f", 6)
        assert graph_fingerprint(base) != graph_fingerprint(tapped)

    def test_assignment_fingerprint_accepts_edge_keys(self):
        first = assignment_fingerprint({"f": 10, "x->f": 8})
        second = assignment_fingerprint({"x->f": 8, "f": 10})
        assert first == second
        assert first != assignment_fingerprint({"f": 10, "x->f": 7})
