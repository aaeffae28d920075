"""Legacy (pre-compiled-plan) reference semantics.

The compiled-plan refactor must be a pure execution-architecture change:
for every evaluation engine, running through a
:class:`~repro.sfg.plan.CompiledPlan` must produce *bitwise identical*
results to the straightforward per-call traversal the library used before
(validate, re-derive the topological order, resolve predecessors by name,
call every node's propagation rule directly).  Those straightforward
traversals are re-implemented here — deliberately naive, sharing no code
with the plan layer — as the reference semantics of the differential
checks.

They live in the package, rather than in the test suites that also use
them, because the fuzzing harness (:mod:`repro.verify.differential`) runs
the same plan-vs-legacy comparison from the ``fuzz`` CLI, outside pytest.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.transfer_function import TransferFunction
from repro.psd.spectrum import DiscretePsd
from repro.psd.propagation import TrackedSpectrum
from repro.sfg.nodes import AddNode, IirNode, InputNode, OutputNode, _LtiMixin


def legacy_walk(graph, zero, propagate, inject):
    """Name-keyed per-call traversal (the pre-plan engine skeleton)."""
    graph.validate()
    order = graph.topological_order()
    results = {}
    for name in order:
        node = graph.node(name)
        if isinstance(node, InputNode) or node.num_inputs == 0:
            representation = zero(node)
        else:
            inputs = [results[edge.source]
                      for edge in graph.predecessors(name)]
            representation = propagate(node, inputs)
        own = node.generated_noise()
        if own.variance > 0.0 or own.mean != 0.0:
            representation = inject(node, own, representation)
        results[name] = representation
    return results


def legacy_psd(graph, n_psd):
    """Pre-plan PSD walk (proposed method) at the graph's single output."""
    def inject(node, stats, acc):
        psd = DiscretePsd.white(stats, acc.n_bins)
        if isinstance(node, IirNode):
            psd = psd.filtered(
                node.noise_shaping_function().frequency_response(acc.n_bins))
        return acc + psd

    results = legacy_walk(
        graph,
        zero=lambda node: DiscretePsd.zero(n_psd),
        propagate=lambda node, inputs: node.propagate_psd(inputs, n_psd),
        inject=inject)
    return results[graph.output_names()[0]]


def legacy_agnostic(graph):
    """Pre-plan moments-only walk at the graph's single output."""
    def inject(node, stats, acc):
        if isinstance(node, IirNode):
            shaping = node.noise_shaping_function()
            stats = NoiseStats(mean=stats.mean * shaping.coefficient_sum(),
                               variance=stats.variance * shaping.energy())
        return acc + stats

    results = legacy_walk(
        graph,
        zero=lambda node: NoiseStats(0.0, 0.0),
        propagate=lambda node, inputs: node.propagate_stats(inputs),
        inject=inject)
    return results[graph.output_names()[0]]


def legacy_tracked(graph, n_psd):
    """Pre-plan correlation-exact walk (single-rate graphs only)."""
    def inject(node, stats, acc):
        tracked = TrackedSpectrum.from_source(node.name, stats, n_psd)
        if isinstance(node, IirNode):
            tracked = tracked.filtered(
                node.noise_shaping_function().frequency_response(n_psd))
        return acc + tracked

    results = legacy_walk(
        graph,
        zero=lambda node: TrackedSpectrum.zero(n_psd),
        propagate=lambda node, inputs: node.propagate_tracked(inputs, n_psd),
        inject=inject)
    return results[graph.output_names()[0]].to_psd()


def legacy_flat(graph):
    """Pre-plan flat-spectrum path composition (Eq. 4 reference)."""
    graph.validate()
    paths = {}
    for name in graph.topological_order():
        node = graph.node(name)
        if isinstance(node, InputNode) or node.num_inputs == 0:
            accumulated = {}
        else:
            input_maps = [paths[edge.source]
                          for edge in graph.predecessors(name)]
            if isinstance(node, OutputNode):
                (single,) = input_maps
                accumulated = dict(single)
            elif isinstance(node, AddNode):
                accumulated = {}
                for sign, source_map in zip(node.signs, input_maps):
                    for source, tf in source_map.items():
                        contribution = tf.scaled(sign)
                        if source in accumulated:
                            accumulated[source] = \
                                accumulated[source].parallel(contribution)
                        else:
                            accumulated[source] = contribution
            elif isinstance(node, _LtiMixin):
                (single,) = input_maps
                block_tf = node._effective_transfer_function()
                accumulated = {source: tf.cascade(block_tf)
                               for source, tf in single.items()}
            else:
                raise NotImplementedError(type(node).__name__)
        own = node.generated_noise()
        if own.variance > 0.0 or own.mean != 0.0:
            shaping = (node.noise_shaping_function()
                       if isinstance(node, IirNode)
                       else TransferFunction.identity())
            if name in accumulated:
                accumulated[name] = accumulated[name].parallel(shaping)
            else:
                accumulated[name] = shaping
        paths[name] = accumulated

    path_functions = paths[graph.output_names()[0]]
    total_variance = 0.0
    mean_contributions = []
    for name, tf in path_functions.items():
        stats = graph.node(name).generated_noise()
        total_variance += stats.variance * tf.energy()
        mean_contributions.append(stats.mean * tf.coefficient_sum())
    return NoiseStats(mean=float(np.sum(mean_contributions)),
                      variance=total_variance)


def legacy_run(graph, inputs, mode):
    """Pre-plan name-keyed simulation (double or fixed mode)."""
    graph.validate()
    signals = {}
    for name in graph.topological_order():
        node = graph.node(name)
        if isinstance(node, InputNode):
            stimulus = np.asarray(inputs[name], dtype=float)
            if mode == "fixed" and node.quantization.enabled:
                stimulus = node.quantization.quantizer().quantize(stimulus)
            signals[name] = stimulus
            continue
        node_inputs = [signals[edge.source]
                       for edge in graph.predecessors(name)]
        signals[name] = (node.simulate(node_inputs) if mode == "double"
                         else node.simulate_fixed(node_inputs))
    return signals[graph.output_names()[0]]
