"""Legacy (pre-compiled-plan) reference semantics.

The compiled-plan refactor must be a pure execution-architecture change:
for every evaluation engine, running through a
:class:`~repro.sfg.plan.CompiledPlan` must produce *bitwise identical*
results to the straightforward per-call traversal the library used before
(validate, re-derive the topological order, resolve predecessors by name,
propagate node by node).  Those straightforward traversals are
re-implemented here — deliberately naive, importing nothing from the plan
layer or the analytical engine — as the reference semantics of the
differential checks.

The oracle states its own propagation rule, one per node type
(:func:`_propagate`), over four small algebras: PSDs, moments, tracked
spectra and per-source path transfer functions.  From a node it reads
only what the node is: its effective transfer function, an IIR node's
noise-shaping function, an adder's signs, a resampler's factor, its own
noise and its fanout-tap specs.  Sources whose noise is silent are
skipped, not added as zeros.

:func:`legacy_run` is the one whole-graph run on the preserved legacy
loops of the simulation kernels (:func:`_simulate`): it quantizes the
inputs and the fanout taps as the plan does.

They live in the package, rather than in the test suites that also use
them, because the fuzzing harness (:mod:`repro.verify.differential`) runs
the same plan-vs-legacy comparison from the ``fuzz`` CLI, outside pytest.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.noise_model import NoiseStats
from repro.lti.convolution import overlap_save_reference
from repro.lti.transfer_function import TransferFunction
from repro.psd.spectrum import DiscretePsd
from repro.psd.propagation import TrackedSpectrum
from repro.sfg.nodes import (
    AddNode,
    DownsampleNode,
    IirNode,
    InputNode,
    OutputNode,
    UpsampleNode,
    _LtiMixin,
)
from repro.simkernel.reference import iir_df1_reference
from repro.systems.freq_filter import FrequencyDomainFirNode


class _Psd:
    """``DiscretePsd`` values; a block's response on each PSD's own bins."""

    def __init__(self, n_psd):
        self.n_psd = n_psd

    def zero(self, like):
        return DiscretePsd.zero(self.n_psd if like is None else like.n_bins)

    def white(self, key, stats, like):
        return DiscretePsd.white(stats, like.n_bins)

    def add(self, a, b):
        return a + b

    def scaled(self, value, gain):
        return value.scaled(gain)

    def filtered(self, value, tf):
        return value.filtered(tf.frequency_response(value.n_bins))

    def downsampled(self, value, factor):
        return value.downsampled(factor)

    def upsampled(self, value, factor):
        return value.upsampled(factor)


class _Tracked(_Psd):
    """The PSD operations on tracked spectra (which do not resample)."""

    def zero(self, like):
        return TrackedSpectrum.zero(self.n_psd)

    def white(self, key, stats, like):
        return TrackedSpectrum.from_source(key, stats, self.n_psd)


class _Moments:
    """``(mu, sigma^2)`` under the white-input assumption."""

    def zero(self, like):
        return NoiseStats(0.0, 0.0)

    def white(self, key, stats, like):
        return stats

    def add(self, a, b):
        return NoiseStats(mean=a.mean + b.mean,
                          variance=a.variance + b.variance)

    def scaled(self, value, gain):
        return NoiseStats(mean=gain * value.mean,
                          variance=gain * gain * value.variance)

    def filtered(self, value, tf):
        return NoiseStats(mean=value.mean * tf.coefficient_sum(),
                          variance=value.variance * tf.energy())

    def downsampled(self, value, factor):
        return value

    def upsampled(self, value, factor):
        return NoiseStats(mean=value.mean / factor,
                          variance=value.variance / factor)


class _Paths:
    """``{source: path transfer function}`` dicts (single-rate)."""

    def zero(self, like):
        return {}

    def white(self, key, stats, like):
        return {key: TransferFunction.identity()}

    def add(self, a, b):
        merged = dict(a)
        for source, tf in b.items():
            if source in merged:
                merged[source] = merged[source].parallel(tf)
            else:
                merged[source] = tf
        return merged

    def scaled(self, value, gain):
        return {source: tf.scaled(gain) for source, tf in value.items()}

    def filtered(self, value, tf):
        return {source: path.cascade(tf) for source, path in value.items()}


def _noisy(stats) -> bool:
    return stats.variance > 0.0 or stats.mean != 0.0


def _propagate(algebra, node, inputs, own):
    """The oracle's rule: a node's output noise, its own source ``own``
    (``None`` when silent) included."""
    if isinstance(node, InputNode) or node.num_inputs == 0:
        value = algebra.zero(None)
    elif isinstance(node, AddNode):
        value = algebra.zero(inputs[0])
        for sign, term in zip(node.signs, inputs):
            value = algebra.add(value, algebra.scaled(term, sign))
    elif isinstance(node, OutputNode):
        (value,) = inputs
    elif isinstance(node, DownsampleNode):
        value = algebra.downsampled(inputs[0], node.factor)
    elif isinstance(node, UpsampleNode):
        value = algebra.upsampled(inputs[0], node.factor)
    elif isinstance(node, _LtiMixin):
        value = algebra.filtered(inputs[0],
                                 node._effective_transfer_function())
    else:
        raise NotImplementedError(type(node).__name__)
    if own is not None:
        noise = algebra.white(node.name, own, value)
        if isinstance(node, IirNode):
            noise = algebra.filtered(noise, node.noise_shaping_function())
        value = algebra.add(value, noise)
    return value


def _walk(graph, algebra):
    """Name-keyed per-call traversal (the pre-plan engine skeleton).

    Returns the value at the graph's single output and the moments of
    every source that injected noise, keyed by node name or by
    ``"source->target"`` for a fanout tap.  A tap re-quantizes the value
    its edge carries, so its noise enters before the target's rule.
    """
    graph.validate()
    results = {}
    sources = {}
    for name in graph.topological_order():
        inputs = []
        for edge in graph.predecessors(name):
            value = results[edge.source]
            spec = graph.node(edge.source).quantization
            bits = spec.edge_bits_for(name)
            stats = None if bits is None else spec.edge_noise_stats(bits)
            if stats is not None and _noisy(stats):
                key = f"{edge.source}->{name}"
                sources[key] = stats
                value = algebra.add(value, algebra.white(key, stats, value))
            inputs.append(value)
        node = graph.node(name)
        own = node.generated_noise()
        if _noisy(own):
            sources[name] = own
        else:
            own = None
        results[name] = _propagate(algebra, node, inputs, own)
    return results[graph.output_names()[0]], sources


def legacy_psd(graph, n_psd):
    """Pre-plan PSD walk (proposed method) at the graph's single output."""
    return _walk(graph, _Psd(n_psd))[0]


def legacy_agnostic(graph):
    """Pre-plan moments-only walk at the graph's single output."""
    return _walk(graph, _Moments())[0]


def legacy_tracked(graph, n_psd):
    """Pre-plan correlation-exact walk (single-rate graphs only)."""
    return _walk(graph, _Tracked(n_psd))[0].to_psd()


def legacy_flat(graph):
    """Pre-plan flat-spectrum path composition (Eq. 4 reference)."""
    path_functions, sources = _walk(graph, _Paths())
    total_variance = 0.0
    mean_contributions = []
    for name, tf in path_functions.items():
        stats = sources[name]
        total_variance += stats.variance * tf.energy()
        mean_contributions.append(stats.mean * tf.coefficient_sum())
    return NoiseStats(mean=float(np.sum(mean_contributions)),
                      variance=total_variance)


def _simulate(node, inputs, fixed):
    """One node's run: an enabled IIR node's fixed leg on
    ``iir_df1_reference``, an FD-FIR node on its per-block pipeline
    (enabled fixed leg) or overlap-save loop, any other node on its own
    ``simulate`` / ``simulate_fixed``."""
    quantized = fixed and node.quantization.enabled
    if isinstance(node, FrequencyDomainFirNode):
        if quantized:
            return node.simulate_fixed_reference(inputs)
        return overlap_save_reference(
            inputs[0], node._effective_transfer_function().b, node.fft_size)
    if isinstance(node, IirNode) and quantized:
        effective = node._effective_transfer_function()
        return iir_df1_reference(inputs[0], effective.b, effective.a,
                                 node.quantization.quantizer().step,
                                 node.quantization.rounding)
    return node.simulate_fixed(inputs) if fixed else node.simulate(inputs)


def legacy_run(graph, inputs, mode):
    """Pre-plan name-keyed simulation (double or fixed mode) at the
    graph's single output; a fixed run re-quantizes every tapped fanout
    edge's value before its target reads it."""
    graph.validate()
    fixed = mode == "fixed"
    signals = {}
    for name in graph.topological_order():
        node = graph.node(name)
        if isinstance(node, InputNode):
            stimulus = np.asarray(inputs[name], dtype=float)
            if fixed and node.quantization.enabled:
                stimulus = node.quantization.quantizer().quantize(stimulus)
            signals[name] = stimulus
            continue
        node_inputs = []
        for edge in graph.predecessors(name):
            value = signals[edge.source]
            spec = graph.node(edge.source).quantization
            bits = spec.edge_bits_for(name)
            if fixed and bits is not None:
                value = spec.edge_quantizer(bits).quantize(value)
            node_inputs.append(value)
        signals[name] = _simulate(node, node_inputs, fixed)
    return signals[graph.output_names()[0]]


def legacy_error(graph, inputs):
    """Pre-plan output error record: the fixed run minus the double run."""
    reference = legacy_run(graph, inputs, "double")
    return legacy_run(graph, inputs, "fixed") - reference
