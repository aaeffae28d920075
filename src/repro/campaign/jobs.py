"""Campaign specifications and their expansion into content-addressed jobs.

A campaign is a grid — scenarios x evaluation methods x uniform
word-lengths — and each grid point is one *job*; the methods come from
the table of :mod:`repro.analysis.evaluator`, plus ``simulation``.  A
job is keyed by a canonical SHA-256 over everything its result depends
on: the serialized graph (via
:func:`~repro.sfg.serialization.graph_fingerprint`), the word-length
assignment, the method, the PSD resolution (PSD methods only), the
stimulus specification and the seed.  Identical work therefore hashes
identically across runs, processes and machines, which is what lets the
cache layer (:mod:`repro.campaign.cache`) serve re-runs and overlapping
campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.evaluator import (
    ANALYTICAL_METHODS,
    PSD_METHODS,
    SINGLE_RATE_METHODS,
    check_method,
)
from repro.analysis.simulation_method import (
    check_simulated_word_lengths,
    data_path_word_lengths,
)
from repro.data.signals import SignalGenerator
from repro.sfg.graph import SignalFlowGraph, is_multirate
from repro.sfg.serialization import (
    assignment_fingerprint,
    canonical_digest,
    canonical_graph_dict,
    fingerprint_of_canonical_dict,
    graph_fingerprint,
)

JOB_SCHEMA_VERSION = 1

#: Methods a job may carry: the analytical methods plus the Monte-Carlo
#: reference (recorded like any other method so reports can join
#: estimates against it).
JOB_METHODS = ANALYTICAL_METHODS + ("simulation",)

#: Record status values.  Records without a ``status`` field are
#: successful — the pre-fault-tolerance record shape is unchanged, so
#: existing caches and JSONL streams keep their exact bytes.
STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class StimulusSpec:
    """Deterministic description of the simulation stimulus.

    Attributes
    ----------
    kind:
        Stimulus family (see
        :class:`~repro.data.signals.SignalGenerator`).
    num_samples:
        Samples per input.
    amplitude:
        Peak amplitude.
    discard_transient:
        Leading output samples dropped before measuring (start-up
        transient of the filters).
    """

    kind: str = "white"
    num_samples: int = 20_000
    amplitude: float = 0.9
    discard_transient: int = 0

    def canonical(self) -> dict:
        """JSON-compatible canonical form (part of the job key)."""
        return {"kind": self.kind, "num_samples": int(self.num_samples),
                "amplitude": float(self.amplitude),
                "discard_transient": int(self.discard_transient)}

    def realize(self, input_names, seed: int) -> dict[str, np.ndarray]:
        """Generate the per-input sample vectors for one seed.

        The generator is re-seeded from ``seed`` alone and inputs are
        filled in name order, so the same ``(spec, input names, seed)``
        triple always yields the same stimulus — in any process.
        """
        generator = SignalGenerator(seed=seed)
        return {name: generator.generate(self.kind, self.num_samples,
                                         self.amplitude)
                for name in sorted(input_names)}

    @classmethod
    def from_dict(cls, data: dict) -> "StimulusSpec":
        """Rebuild a spec from :meth:`canonical` output."""
        return cls(kind=data.get("kind", "white"),
                   num_samples=int(data.get("num_samples", 20_000)),
                   amplitude=float(data.get("amplitude", 0.9)),
                   discard_transient=int(data.get("discard_transient", 0)))


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario entry of a campaign: family name plus overrides."""

    name: str
    params: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class CampaignSpec:
    """The full description of a campaign.

    Attributes
    ----------
    scenarios:
        Scenario entries (family name + parameter overrides).
    methods:
        Evaluation methods to run per scenario (see :data:`JOB_METHODS`).
        Include ``"simulation"`` to attach the Monte-Carlo reference —
        reports then compute ``Ed`` per analytical method.
    wordlengths:
        Uniform fractional word lengths swept per scenario; each value is
        applied to every quantized node of the scenario graph.
    n_psd:
        PSD resolution of the PSD-based methods.
    stimulus:
        Full stimulus override; ``None`` uses each scenario's own
        default (kind, length, transient).
    samples:
        Length-only override: keeps each scenario's stimulus kind,
        amplitude and transient handling and changes just
        ``num_samples``.  Ignored when ``stimulus`` is given.
    seed:
        Base seed for every generated stimulus.
    """

    scenarios: tuple
    methods: tuple = ("psd", "simulation")
    wordlengths: tuple = (8, 12, 16)
    n_psd: int = 256
    stimulus: StimulusSpec | None = None
    samples: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class Job:
    """One unit of campaign work, content-addressed by :attr:`key`."""

    key: str
    scenario: str
    signature: str
    params: dict = field(hash=False)
    method: str = "psd"
    wordlength: int = 12
    assignment: dict = field(default_factory=dict, hash=False)
    n_psd: int = 256
    stimulus: StimulusSpec = StimulusSpec()
    seed: int = 0


@dataclass
class PreparedScenario:
    """A built scenario instance plus everything the runner ships to a
    worker: the serialized graph, the uniform-wordlength assignments and
    the jobs grouped under this scenario."""

    spec: ScenarioSpec
    signature: str
    graph_dict: dict
    stimulus: StimulusSpec
    quantized_nodes: tuple
    jobs: list = field(default_factory=list)


def _job_key_from_fingerprints(graph_digest: str, assignment_digest: str,
                               method: str, n_psd: int,
                               stimulus: StimulusSpec, seed: int) -> str:
    return canonical_digest({
        "kind": "campaign-job",
        "schema": JOB_SCHEMA_VERSION,
        "graph": graph_digest,
        "assignment": assignment_digest,
        "method": method,
        # Only the PSD methods key on n_psd, so retuning it never
        # invalidates cached simulation records or moment-only estimates.
        "n_psd": int(n_psd) if method in PSD_METHODS else None,
        "stimulus": stimulus.canonical(),
        "seed": int(seed),
    })


def job_key(graph: SignalFlowGraph, assignment: dict, method: str,
            n_psd: int, stimulus: StimulusSpec, seed: int) -> str:
    """Canonical content hash of one job.

    Everything the result depends on enters the digest — and only that:
    ``n_psd`` is keyed for the PSD-based methods alone, so retuning the
    PSD resolution never invalidates cached simulation or moment-only
    records.  Analytical methods do not consume the stimulus, but keying
    them on it anyway keeps one uniform key shape and re-validates
    estimates whenever the simulation conditions of a campaign change.
    """
    return _job_key_from_fingerprints(
        graph_fingerprint(graph), assignment_fingerprint(assignment),
        method, n_psd, stimulus, seed)


def base_record(payload: dict, job: dict) -> dict:
    """The identity fields every campaign record starts from.

    ``payload`` is the runner's scenario work order (scenario name,
    signature, params, stimulus, seed) and ``job`` one of its job dicts;
    both successful and failure records share this prefix so reports and
    resume streams join them uniformly.
    """
    return {
        "key": job["key"],
        "scenario": payload["scenario"],
        "signature": payload["signature"],
        "params": payload["params"],
        "method": job["method"],
        "wordlength": job["wordlength"],
        "seed": payload["seed"],
        # Part of the report's estimate-vs-simulation join key: records
        # produced under different stimuli must never be joined.
        "stimulus": payload["stimulus"],
    }


def failure_record(payload: dict, job: dict, error: BaseException,
                   attempts: int) -> dict:
    """A quarantined job's structured ``status="failed"`` record.

    Failure records flow to the JSONL stream and the report exactly like
    results, but are **never** stored in the result cache — there is no
    negative caching, so a re-run retries the job from scratch.
    """
    record = base_record(payload, job)
    record.update(
        status=STATUS_FAILED,
        error_type=type(error).__name__,
        error_message=str(error),
        attempts=int(attempts),
        cached=False)
    return record


def quantized_node_names(graph: SignalFlowGraph) -> tuple:
    """Names of the nodes carrying an enabled quantization spec — the
    nodes a uniform word-length assignment re-targets."""
    return tuple(name for name, node in graph.nodes.items()
                 if node.quantization.enabled)


def expand_campaign(spec: CampaignSpec):
    """Expand a campaign into prepared scenarios and their jobs.

    Builds every scenario once (through the registry), serializes the
    graphs, and emits one :class:`Job` per
    ``scenario x method x wordlength`` grid point.  Methods that are
    undefined for a scenario's rate structure (the
    :data:`~repro.analysis.evaluator.SINGLE_RATE_METHODS` on multirate
    graphs) are skipped for that scenario; the skip count is returned so
    callers can surface it instead of silently shrinking the grid.

    A grid is rejected, before any job runs, when a method fails
    :func:`~repro.analysis.evaluator.check_method`, when its ``samples``
    override is not positive, or when it has ``simulation``
    jobs and a word length exceeds what a bit-true simulation can measure
    (:func:`~repro.analysis.simulation_method.check_simulated_word_lengths`).

    Returns
    -------
    (prepared, jobs, skipped):
        ``prepared`` — one :class:`PreparedScenario` per campaign entry,
        each holding its own jobs; ``jobs`` — the flat job list;
        ``skipped`` — number of grid points dropped as unsupported.
    """
    from repro.campaign.registry import build_scenario

    for method in spec.methods:
        check_method(method, spec.n_psd, methods=JOB_METHODS)
    if not spec.wordlengths:
        raise ValueError("campaign needs at least one wordlength")
    if spec.samples is not None and spec.samples < 1:
        raise ValueError(
            f"campaign samples must be positive, got {spec.samples}")
    prepared: list[PreparedScenario] = []
    jobs: list[Job] = []
    skipped = 0
    for entry in spec.scenarios:
        instance = build_scenario(entry.name, entry.params)
        graph = instance.graph
        if spec.stimulus is not None:
            stimulus = spec.stimulus
        elif spec.samples is not None:
            stimulus = replace(instance.stimulus,
                               num_samples=int(spec.samples))
        else:
            stimulus = instance.stimulus
        multirate = is_multirate(graph)
        scenario = PreparedScenario(
            spec=entry,
            signature=instance.signature,
            graph_dict=canonical_graph_dict(graph),
            stimulus=stimulus,
            quantized_nodes=quantized_node_names(graph))
        # The expensive digests depend only on the scenario (graph) and
        # the wordlength (assignment), not on the method — hoist them out
        # of the grid loops; the graph digest reuses the canonical dict
        # already built for the worker payload.
        graph_digest = fingerprint_of_canonical_dict(scenario.graph_dict)
        assignments = {
            wordlength: {name: int(wordlength)
                         for name in scenario.quantized_nodes}
            for wordlength in spec.wordlengths}
        if "simulation" in spec.methods:
            graph_word_lengths = data_path_word_lengths(graph)
            for assignment in assignments.values():
                try:
                    check_simulated_word_lengths(
                        {**graph_word_lengths, **assignment})
                except ValueError as error:
                    raise ValueError(
                        f"scenario {entry.name!r}: {error}") from None
        assignment_digests = {
            wordlength: assignment_fingerprint(assignment)
            for wordlength, assignment in assignments.items()}
        for method in spec.methods:
            if multirate and method in SINGLE_RATE_METHODS:
                skipped += len(spec.wordlengths)
                continue
            for wordlength in spec.wordlengths:
                assignment = assignments[wordlength]
                job = Job(
                    key=_job_key_from_fingerprints(
                        graph_digest, assignment_digests[wordlength],
                        method, spec.n_psd, stimulus, spec.seed),
                    scenario=entry.name,
                    signature=instance.signature,
                    params=dict(instance.params),
                    method=method,
                    wordlength=int(wordlength),
                    assignment=assignment,
                    n_psd=spec.n_psd,
                    stimulus=stimulus,
                    seed=spec.seed)
                scenario.jobs.append(job)
                jobs.append(job)
        prepared.append(scenario)
    return prepared, jobs, skipped
