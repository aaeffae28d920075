"""Scenario registry: named, parameterized system-family generators.

A *scenario* is a named recipe for one system under exploration: given a
parameter set it builds the signal-flow graph and the stimulus
specification used by simulation-based jobs.  Scenarios are registered
by name so campaigns can be described as data (``{"scenario":
"polyphase_decimator", "params": {"factor": 8}}``) and so every family
gets a *stable parameter signature* — the canonical hash that
content-addresses its jobs in the campaign cache.

The built-in families cover the paper's two benchmarks (Table-I filters,
the 9/7 DWT bank) plus the four families of
:mod:`repro.systems.families`.  Registering a new family is one decorated
function::

    @register_scenario("my_family", description="...", taps=32)
    def _build_my_family(params):
        graph = ...
        return graph, StimulusSpec(num_samples=20_000)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.jobs import StimulusSpec
from repro.fixedpoint.quantizer import RoundingMode
from repro.sfg.serialization import canonical_digest
from repro.lti.fir_design import (
    design_fir_bandpass,
    design_fir_highpass,
    design_fir_lowpass,
)
from repro.sfg.builder import SfgBuilder
from repro.sfg.graph import SignalFlowGraph
from repro.systems.families import (
    build_cascaded_sos_bank,
    build_dwt97_bank,
    build_fft_butterfly,
    build_interpolator_chain,
    build_polyphase_decimator,
    build_scalability_bank,
)
from repro.systems.filter_bank import build_filter_graph, generate_iir_bank
from repro.systems.random_graphs import build_random_graph


def scenario_signature(name: str, params: dict) -> str:
    """Stable short signature of ``(scenario name, parameters)``.

    Canonical JSON (sorted keys) hashed with SHA-256; independent of the
    dict insertion order and of the process.  Used to group jobs by
    scenario and to label cache records and reports.
    """
    return canonical_digest(
        {"scenario": name,
         "params": {str(k): params[k] for k in sorted(params)}})[:16]


@dataclass(frozen=True)
class ScenarioInstance:
    """One concrete system produced by a scenario family.

    Attributes
    ----------
    name:
        Family name the instance was built from.
    params:
        The fully-resolved parameter set (defaults merged with overrides).
    graph:
        The built signal-flow graph.
    stimulus:
        Stimulus specification for simulation-based evaluation.
    """

    name: str
    params: dict = field(hash=False)
    graph: SignalFlowGraph = field(hash=False)
    stimulus: StimulusSpec

    @property
    def signature(self) -> str:
        """Stable parameter signature (see :func:`scenario_signature`)."""
        return scenario_signature(self.name, self.params)


class ScenarioFamily:
    """A registered, parameterized scenario generator."""

    def __init__(self, name: str, builder, description: str,
                 defaults: dict):
        self.name = name
        self.builder = builder
        self.description = description
        self.defaults = dict(defaults)

    def build(self, params: dict | None = None) -> ScenarioInstance:
        """Build one instance with ``params`` overriding the defaults."""
        overrides = dict(params or {})
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"known parameters: {sorted(self.defaults)}")
        resolved = {**self.defaults, **overrides}
        graph, stimulus = self.builder(resolved)
        return ScenarioInstance(name=self.name, params=resolved, graph=graph,
                                stimulus=stimulus)


_REGISTRY: dict[str, ScenarioFamily] = {}


def register_scenario(name: str, description: str = "", **defaults):
    """Decorator registering ``builder(params) -> (graph, stimulus)`` as
    the scenario family ``name``.

    ``defaults`` declares the family's parameters and their default
    values; build-time overrides are validated against it.
    """
    def decorate(builder):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioFamily(name, builder, description, defaults)
        return builder
    return decorate


def get_family(name: str) -> ScenarioFamily:
    """Look up a registered family by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{scenario_names()}")
    return _REGISTRY[name]


def scenario_names() -> list[str]:
    """Sorted names of all registered scenario families."""
    return sorted(_REGISTRY)


def build_scenario(name: str, params: dict | None = None) -> ScenarioInstance:
    """Build one instance of the named family."""
    return get_family(name).build(params)


# ----------------------------------------------------------------------
# Built-in families
# ----------------------------------------------------------------------
@register_scenario(
    "cascaded_sos_bank",
    description="bank of band-pass channels, each a cascade of quantized "
                "biquad sections",
    channels=3, order=2, fractional_bits=12, family="butterworth")
def _scenario_cascaded_sos_bank(params):
    graph = build_cascaded_sos_bank(
        channels=int(params["channels"]), order=int(params["order"]),
        fractional_bits=int(params["fractional_bits"]),
        family=params["family"])
    return graph, StimulusSpec(num_samples=20_000, discard_transient=400)


@register_scenario(
    "polyphase_decimator",
    description="M-branch polyphase FIR decimator (delay / decimate / "
                "sub-filter / sum)",
    taps=32, factor=4, fractional_bits=12)
def _scenario_polyphase_decimator(params):
    graph = build_polyphase_decimator(
        taps=int(params["taps"]), factor=int(params["factor"]),
        fractional_bits=int(params["fractional_bits"]))
    return graph, StimulusSpec(num_samples=24_000, discard_transient=64)


@register_scenario(
    "interpolator_chain",
    description="chain of upsample-by-2 + half-band FIR interpolation "
                "stages",
    stages=2, taps=19, fractional_bits=12)
def _scenario_interpolator_chain(params):
    graph = build_interpolator_chain(
        stages=int(params["stages"]), taps=int(params["taps"]),
        fractional_bits=int(params["fractional_bits"]))
    return graph, StimulusSpec(num_samples=8_000, discard_transient=256)


@register_scenario(
    "fft_butterfly",
    description="radix-2 DIT butterfly network of one DFT bin along the "
                "sample stream",
    stages=3, bin_index=1, fractional_bits=12)
def _scenario_fft_butterfly(params):
    graph = build_fft_butterfly(
        stages=int(params["stages"]), bin_index=int(params["bin_index"]),
        fractional_bits=int(params["fractional_bits"]))
    return graph, StimulusSpec(num_samples=32_000, discard_transient=32)


@register_scenario(
    "table1_fir",
    description="one Table-I FIR system (quantized input, FIR block, "
                "quantized output)",
    taps=32, cutoff=0.35, kind="lowpass", fractional_bits=12)
def _scenario_table1_fir(params):
    taps, cutoff = int(params["taps"]), float(params["cutoff"])
    kind = params["kind"]
    if kind == "lowpass":
        coefficients = design_fir_lowpass(taps, cutoff)
    elif kind == "highpass":
        coefficients = design_fir_highpass(taps, cutoff)
    elif kind == "bandpass":
        coefficients = design_fir_bandpass(taps, max(0.05, cutoff - 0.15),
                                           min(0.95, cutoff + 0.15))
    else:
        raise ValueError(f"unknown FIR kind {kind!r}")
    builder = SfgBuilder(f"table1-fir-{kind}-{taps}taps")
    bits = int(params["fractional_bits"])
    x = builder.input("x", fractional_bits=bits)
    node = builder.fir("filter", list(coefficients), x, fractional_bits=bits)
    builder.output("y", node)
    graph = builder.build()
    return graph, StimulusSpec(num_samples=20_000,
                               discard_transient=4 * taps)


@register_scenario(
    "table1_iir",
    description="one Table-I IIR system drawn from the paper's bank "
                "(index selects the design)",
    index=0, fractional_bits=12)
def _scenario_table1_iir(params):
    index = int(params["index"])
    entry = generate_iir_bank(index + 1)[index]
    graph = build_filter_graph(entry, int(params["fractional_bits"]),
                               RoundingMode.ROUND)
    return graph, StimulusSpec(num_samples=20_000,
                               discard_transient=4 * entry.order + 64)


@register_scenario(
    "random",
    description="seeded random signal-flow graph (the fuzzing generator; "
                "seed selects the topology)",
    seed=0, blocks=8, multirate=1)
def _scenario_random(params):
    # Factor-2 segments only: campaign n_psd values are powers of two and
    # the PSD folding requires divisibility by every decimation factor.
    graph = build_random_graph(
        int(params["seed"]), blocks=int(params["blocks"]),
        multirate=bool(int(params["multirate"])), factors=(2,))
    return graph, StimulusSpec(num_samples=18_000, discard_transient=384)


@register_scenario(
    "scalability_bank",
    description="wide bank of quantized FIR branches under an unquantized "
                "adder tree (the dirty-cone and fine-grained-search "
                "ablation workload)",
    branches=16, taps=17, fractional_bits=14)
def _scenario_scalability_bank(params):
    graph = build_scalability_bank(
        branches=int(params["branches"]), taps=int(params["taps"]),
        fractional_bits=int(params["fractional_bits"]))
    # Keep only the per-branch noise sources: a quantized input would be
    # one source reconverging through every branch, and the PQN adder
    # sum (uncorrelated inputs) underestimates that correlated pile-up.
    # One independent source per FIR branch is exactly the PQN domain,
    # and the shape the dirty-cone ablation times.
    node = graph.node("x")
    node.quantization = node.quantization.with_fractional_bits(None)
    return graph, StimulusSpec(num_samples=16_000, discard_transient=128)


@register_scenario(
    "dwt97_bank",
    description="one-level Daubechies 9/7 analysis + synthesis bank "
                "(multirate)",
    fractional_bits=11)
def _scenario_dwt97_bank(params):
    graph = build_dwt97_bank(
        fractional_bits=int(params["fractional_bits"]))
    return graph, StimulusSpec(num_samples=16_000, discard_transient=64)
