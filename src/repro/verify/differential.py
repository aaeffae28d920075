"""Cross-engine differential verification of one signal-flow graph.

One graph, six independent consistency obligations — exactly the
contracts the fixture suites pin on the hand-built systems, generalized
so they can be asserted on *any* graph (in particular the seeded random
graphs of :mod:`repro.systems.random_graphs`):

1. **round_trip** — JSON serialization is loss-free: serialize → parse →
   rebuild preserves the canonical fingerprint;
2. **plan_vs_legacy** — every evaluation engine running through the
   compiled plan is *bitwise identical* to the naive per-call traversal
   (:mod:`repro.verify.legacy`): the PSD and moments walks, the flat and
   tracked engines (single-rate graphs) and both simulation modes;
3. **backend_equality** — the bit-true simulation produces identical
   bits under both simulation backends (:mod:`repro.simkernel`): the
   preserved legacy per-sample loops (``reference``) and the default
   kernels (with the JIT IIR recursion when numba is installed), on the
   generated graph and again after a seeded assignment with per-edge
   fanout taps;
4. **batch_vs_sequential** — a K-slice consistency property.  Scalar
   evaluations are the ``K = 1`` case of the batched step rules, so the
   check guards what only a ``K > 1`` walk does — the row-sparse gathers
   from the memo and the per-row skipping of silent sources — against
   ``K = 1`` evaluations: the configuration-batched paths equal the
   sequential requantize-and-evaluate loop, row for row, bit for bit
   (analytical engines and the Monte-Carlo reference), and a stack of
   one-key deltas against a random incumbent equals cold ``K = 1``
   evaluations bit for bit, signed zeros included.  Check 2 is the
   independent anchor of both sides;
5. **ed_band** — the proposed PSD estimate tracks the Monte-Carlo
   measurement within the paper's sub-one-bit ``Ed`` band
   ``(-300 %, +75 %)``;
6. **incremental** — the memoized dirty-cone re-evaluation
   (:class:`~repro.analysis._engine.NoiseMemo`) stays *bitwise
   identical* to a cold full walk across a seeded sequence of
   ``requantize`` edits (multirate graphs included), against a freshly
   compiled plan, and through the configuration-batched walks.

Every check is exception-safe: an engine that crashes on a generated
graph is reported as that check's failure (with the exception text), not
as a crash of the harness — a fuzzer must keep running past the first
broken graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis._engine import memoization_disabled, plan_memo
from repro.analysis.evaluator import AccuracyEvaluator
from repro.analysis.flat_method import evaluate_flat, evaluate_flat_batch
from repro.analysis.metrics import is_sub_one_bit
from repro.analysis.psd_method import (
    evaluate_psd,
    evaluate_psd_batch,
    evaluate_psd_tracked,
)
from repro.analysis.simulation_method import SimulationEvaluator
from repro.data.signals import uniform_white_noise
from repro.obs import span
from repro.sfg.graph import SignalFlowGraph, is_multirate
from repro.sfg.plan import CompiledPlan, compile_plan
from repro.sfg.serialization import graph_fingerprint, graph_from_dict, graph_to_dict
from repro.systems.random_graphs import (
    COMPATIBLE_N_PSD,
    random_assignments,
    random_deltas,
)
from repro.verify.legacy import (
    legacy_agnostic,
    legacy_flat,
    legacy_psd,
    legacy_run,
    legacy_tracked,
)

#: The six differential obligations, in the order they are run.
CHECK_NAMES = ("round_trip", "plan_vs_legacy", "backend_equality",
               "batch_vs_sequential", "ed_band", "incremental")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one differential check on one graph."""

    name: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{status} {self.name}{tail}"


@dataclass
class GraphVerdict:
    """All check outcomes for one graph."""

    graph_name: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list:
        """The failed checks only."""
        return [check for check in self.checks if not check.passed]

    def describe(self) -> str:
        """Deterministic multi-line summary (one line per check)."""
        lines = [f"{self.graph_name}: "
                 f"{'OK' if self.passed else 'FAILED'}"]
        lines.extend("  " + check.describe() for check in self.checks)
        return "\n".join(lines)


class _CheckFailure(AssertionError):
    """Raised inside a check body to fail it with a readable detail."""


def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise _CheckFailure(detail)


def _stimulus(graph: SignalFlowGraph, samples: int, seed: int) -> dict:
    """Deterministic white stimulus, one independent stream per input."""
    return {name: uniform_white_noise(samples, 0.9, seed * 1_000_003 + index)
            for index, name in enumerate(sorted(graph.input_names()))}


# ----------------------------------------------------------------------
# The six checks
# ----------------------------------------------------------------------
def _check_round_trip(graph, plan, **options):
    data = graph_to_dict(graph)
    rebuilt = graph_from_dict(json.loads(json.dumps(data)))
    _require(graph_fingerprint(rebuilt) == graph_fingerprint(graph),
             "canonical fingerprint changed across serialize/parse/rebuild")
    _require(sorted(rebuilt.nodes) == sorted(graph.nodes),
             "node set changed across the round trip")
    _require(len(rebuilt.edges) == len(graph.edges),
             "edge count changed across the round trip")
    return "fingerprint stable"


def _check_plan_vs_legacy(graph, plan, *, samples, seed, n_psd, **options):
    via_plan = evaluate_psd(plan, n_psd)
    reference = legacy_psd(graph, n_psd)
    _require(np.array_equal(via_plan.ac, reference.ac)
             and via_plan.mean == reference.mean,
             "psd walk differs from the legacy traversal")

    stats = evaluate_agnostic(plan)
    reference = legacy_agnostic(graph)
    _require(stats.mean == reference.mean
             and stats.variance == reference.variance,
             "agnostic walk differs from the legacy traversal")

    if not is_multirate(graph):
        flat = evaluate_flat(plan)
        reference = legacy_flat(graph)
        _require(flat.mean == reference.mean
                 and flat.variance == reference.variance,
                 "flat engine differs from the legacy path composition")
        tracked = evaluate_psd_tracked(plan, n_psd)
        reference = legacy_tracked(graph, n_psd)
        _require(np.array_equal(tracked.ac, reference.ac)
                 and tracked.mean == reference.mean,
                 "tracked engine differs from the legacy traversal")

    stimulus = _stimulus(graph, samples, seed)
    for mode in ("double", "fixed"):
        via_plan = plan.run(stimulus, mode=mode).output(None)
        reference = legacy_run(graph, stimulus, mode)
        _require(np.array_equal(via_plan, reference),
                 f"{mode}-precision simulation differs from the legacy "
                 "traversal")
    return "all engines bitwise identical to the legacy traversals"


def _check_backend_equality(graph, plan, *, samples, seed, **options):
    from repro.simkernel import use_backend

    stimulus = _stimulus(graph, samples, seed)

    def compare(label):
        with use_backend("reference"):
            expected = plan.run(stimulus, mode="fixed").output(None)
        output = plan.run(stimulus, mode="fixed").output(None)
        _require(output.shape == expected.shape
                 and np.array_equal(output, expected),
                 f"default backend differs bitwise from the reference "
                 f"loops {label}")

    compare("on the generated graph")
    # edges=True: the assignment may tap fanout edges, so the walk's
    # edge-tap quantization runs under both backends too.
    assignment = random_assignments(graph, seed + 7, 1, edges=True)[0]
    with plan.preserve_quantization():
        plan.requantize(assignment, allow_enable=True)
        compare("after an edge-keyed requantize")
    return "default backend bitwise identical to the reference loops"


def _check_batch_vs_sequential(graph, plan, *, samples, seed, n_psd,
                               batch_configs, **options):
    # edges=True: the vocabulary covers per-fanout-branch taps on top of
    # the node widths, so the batch/sequential equivalence pins the
    # fine-grained requantize path too.
    assignments = random_assignments(graph, seed + 1, batch_configs,
                                     edges=True)
    stimulus = _stimulus(graph, samples, seed)
    single_rate = not is_multirate(graph)

    psd_stack = evaluate_psd_batch(plan, n_psd, assignments)
    agnostic_stack = evaluate_agnostic_batch(plan, assignments)
    flat_stack = evaluate_flat_batch(plan, assignments) if single_rate \
        else None
    simulation = SimulationEvaluator(plan).evaluate_batch(assignments,
                                                          stimulus)
    with plan.preserve_quantization():
        for index, assignment in enumerate(assignments):
            # allow_enable: an assignment may re-enable a node the
            # previous one in the replay disabled.
            plan.requantize(assignment, allow_enable=True)
            scalar = evaluate_psd(plan, n_psd)
            _require(np.array_equal(psd_stack.ac[index], scalar.ac)
                     and psd_stack.mean[index] == scalar.mean,
                     f"psd batch row {index} differs from the sequential "
                     "evaluation")
            scalar = evaluate_agnostic(plan)
            _require(agnostic_stack.mean[index] == scalar.mean
                     and agnostic_stack.variance[index] == scalar.variance,
                     f"agnostic batch row {index} differs from the "
                     "sequential evaluation")
            if flat_stack is not None:
                scalar = evaluate_flat(plan)
                _require(flat_stack.mean[index] == scalar.mean
                         and flat_stack.variance[index] == scalar.variance,
                         f"flat batch row {index} differs from the "
                         "sequential evaluation")
            measured = SimulationEvaluator(plan).evaluate(stimulus)
            _require(simulation[index].error_power == measured.error_power
                     and simulation[index].error_mean == measured.error_mean
                     and simulation[index].num_samples
                     == measured.num_samples,
                     f"simulation batch row {index} differs from the "
                     "sequential evaluation")

    # One-key deltas against a random incumbent have small per-config
    # cones, so the memoized batched walks run row-sparse here.
    incumbent = random_assignments(graph, seed + 5, 1, edges=True)[0]
    with plan.preserve_quantization():
        plan.requantize(incumbent, allow_enable=True)
        deltas = random_deltas(graph, seed + 6, 2 * batch_configs + 1)
        psd_stack = evaluate_psd_batch(plan, n_psd, deltas)
        agnostic_stack = evaluate_agnostic_batch(plan, deltas)
        for index, delta in enumerate(deltas):
            with plan.preserve_quantization(), memoization_disabled():
                plan.requantize(delta, allow_enable=True)
                scalar_psd = evaluate_psd(plan, n_psd)
                scalar_stats = evaluate_agnostic(plan)
            _require(_bitwise(psd_stack.ac[index], scalar_psd.ac)
                     and _bitwise(psd_stack.mean[index], scalar_psd.mean),
                     f"psd delta row {index} ({delta}) differs from the "
                     "cold scalar walk")
            _require(_bitwise(agnostic_stack.mean[index], scalar_stats.mean)
                     and _bitwise(agnostic_stack.variance[index],
                                  scalar_stats.variance),
                     f"agnostic delta row {index} ({delta}) differs from "
                     "the cold scalar walk")
    return (f"{len(assignments)} configs + {len(deltas)} deltas "
            "bit-identical across all engines")


def _bitwise(a, b) -> bool:
    """Equal values and equal zero signs (``-0.0`` is not ``+0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _check_ed_band(graph, plan, *, seed, n_psd, ed_samples,
                   discard_transient, **options):
    # AccuracyEvaluator reuses the plan already attached to the graph
    # (compile_plan memoizes per graph object), so this does not
    # recompile anything.
    evaluator = AccuracyEvaluator(graph, n_psd=n_psd)
    stimulus = _stimulus(graph, ed_samples, seed + 2)
    comparison = evaluator.compare(stimulus, methods=("psd",),
                                   discard_transient=discard_transient)
    _require(comparison.simulation.error_power > 0.0,
             "simulation measured zero error power (no noise source "
             "reaches the output)")
    report = comparison.reports["psd"]
    _require(is_sub_one_bit(report.ed),
             f"Ed = {100.0 * report.ed:.1f}% outside the (-300%, +75%) "
             "sub-one-bit band")
    return f"Ed = {100.0 * report.ed:.1f}%"


def _check_incremental(graph, plan, *, seed, n_psd, batch_configs,
                       **options):
    single_rate = not is_multirate(graph)
    edits = random_assignments(graph, seed + 3, 4, edges=True)
    memo = plan_memo(plan)
    with plan.preserve_quantization():
        # Warm every memo channel on the current quantization, then
        # replay a seeded requantize-edit sequence: each memoized pull
        # (recomputing only the edit's dirty downstream cone) must be
        # bitwise identical to a cold full walk of the same state.
        evaluate_psd(plan, n_psd)
        evaluate_agnostic(plan)
        if single_rate:
            evaluate_psd_tracked(plan, n_psd)
        before = memo.counters()["cone_recomputes"]
        for index, assignment in enumerate(edits):
            plan.requantize(assignment, allow_enable=True)
            warm_psd = evaluate_psd(plan, n_psd)
            warm_stats = evaluate_agnostic(plan)
            warm_tracked = (evaluate_psd_tracked(plan, n_psd)
                            if single_rate else None)
            warm_flat = evaluate_flat(plan) if single_rate else None
            with memoization_disabled():
                cold_psd = evaluate_psd(plan, n_psd)
                cold_stats = evaluate_agnostic(plan)
                cold_tracked = (evaluate_psd_tracked(plan, n_psd)
                                if single_rate else None)
                cold_flat = evaluate_flat(plan) if single_rate else None
            _require(np.array_equal(warm_psd.ac, cold_psd.ac)
                     and warm_psd.mean == cold_psd.mean,
                     f"incremental psd after edit {index} differs from "
                     "the cold full walk")
            _require(warm_stats.mean == cold_stats.mean
                     and warm_stats.variance == cold_stats.variance,
                     f"incremental agnostic walk after edit {index} "
                     "differs from the cold full walk")
            if single_rate:
                _require(np.array_equal(warm_tracked.ac, cold_tracked.ac)
                         and warm_tracked.mean == cold_tracked.mean,
                         f"incremental tracked walk after edit {index} "
                         "differs from the cold full walk")
                _require(warm_flat.mean == cold_flat.mean
                         and warm_flat.variance == cold_flat.variance,
                         f"memoized flat evaluation after edit {index} "
                         "differs from the cold path composition")
        cones = memo.counters()["cone_recomputes"] - before

        # A freshly compiled plan of the edited graph has never seen the
        # edit history at all — its cold build must agree with the
        # incrementally maintained state.
        fresh = CompiledPlan(graph)
        fresh_psd = evaluate_psd(fresh, n_psd)
        final_psd = evaluate_psd(plan, n_psd)
        _require(np.array_equal(final_psd.ac, fresh_psd.ac)
                 and final_psd.mean == fresh_psd.mean,
                 "incrementally maintained state differs from a freshly "
                 "compiled plan")

        # The batched walks copy the memo's values outside each config's
        # cone; the rows must still match the
        # memo-blind batched evaluation bit for bit.
        stacks = random_assignments(graph, seed + 4, batch_configs)
        warm_psd_stack = evaluate_psd_batch(plan, n_psd, stacks)
        warm_agnostic = evaluate_agnostic_batch(plan, stacks)
        with memoization_disabled():
            cold_psd_stack = evaluate_psd_batch(plan, n_psd, stacks)
            cold_agnostic = evaluate_agnostic_batch(plan, stacks)
        _require(np.array_equal(warm_psd_stack.ac, cold_psd_stack.ac)
                 and np.array_equal(warm_psd_stack.mean,
                                    cold_psd_stack.mean),
                 "memoized psd batch walk differs from the memo-blind "
                 "batched evaluation")
        _require(np.array_equal(warm_agnostic.mean, cold_agnostic.mean)
                 and np.array_equal(warm_agnostic.variance,
                                    cold_agnostic.variance),
                 "memoized agnostic batch walk differs from the "
                 "memo-blind batched evaluation")
    return (f"{len(edits)} edits bit-identical to cold walks "
            f"({cones} cone recomputes)")


_CHECKS = {
    "round_trip": _check_round_trip,
    "plan_vs_legacy": _check_plan_vs_legacy,
    "backend_equality": _check_backend_equality,
    "batch_vs_sequential": _check_batch_vs_sequential,
    "ed_band": _check_ed_band,
    "incremental": _check_incremental,
}


def verify_graph(graph: SignalFlowGraph, seed: int = 0,
                 n_psd: int = COMPATIBLE_N_PSD,
                 samples: int = 2304, ed_samples: int = 9216,
                 discard_transient: int = 384, batch_configs: int = 3,
                 checks=CHECK_NAMES) -> GraphVerdict:
    """Run the differential checks on one graph.

    Parameters
    ----------
    graph:
        The system under verification (any acyclic SFG).
    seed:
        Base seed of every stimulus and assignment stack drawn by the
        checks; the verdict is deterministic in ``(graph, seed)``.
    n_psd:
        PSD bin count of the PSD-based engines.  For multirate graphs it
        must be divisible by every decimation factor
        (:data:`repro.systems.random_graphs.COMPATIBLE_N_PSD` always is).
    samples:
        Stimulus length of the bitwise simulation checks.
    ed_samples:
        Stimulus length of the Monte-Carlo run backing the Ed check
        (longer than ``samples`` — the band assertion needs a converged
        power measurement, the bitwise checks do not).
    discard_transient:
        Leading output samples dropped before the Ed measurement.
    batch_configs:
        Size of the random word-length stack of the batch check.
    checks:
        Subset of :data:`CHECK_NAMES` to run, in order.

    Returns
    -------
    GraphVerdict
        One :class:`CheckResult` per requested check; an engine crash is
        folded into that check's failure detail.
    """
    unknown = sorted(set(checks) - set(CHECK_NAMES))
    if unknown:
        raise ValueError(f"unknown check(s) {unknown}; expected a subset "
                         f"of {CHECK_NAMES}")
    verdict = GraphVerdict(graph_name=graph.name)
    try:
        plan = compile_plan(graph)
    except Exception as error:  # noqa: BLE001 - fuzzing must not stop
        # Nothing downstream can run without a plan; fail every requested
        # check with the compilation error so the fuzz run keeps going.
        verdict.checks.extend(CheckResult(
            name, False,
            f"plan compilation failed — {type(error).__name__}: {error}")
            for name in checks)
        return verdict
    options = dict(samples=samples, seed=seed, n_psd=n_psd,
                   batch_configs=batch_configs, ed_samples=ed_samples,
                   discard_transient=discard_transient)
    for name in checks:
        with span("verify.check", check=name,
                  graph=graph.name) as check_span:
            try:
                detail = _CHECKS[name](graph, plan, **options)
                verdict.checks.append(CheckResult(name, True, detail))
                check_span.set(passed=True)
            except _CheckFailure as failure:
                verdict.checks.append(CheckResult(name, False, str(failure)))
                check_span.set(passed=False)
            except Exception as error:  # noqa: BLE001 - fuzzing must not stop
                verdict.checks.append(CheckResult(
                    name, False, f"{type(error).__name__}: {error}"))
                check_span.set(passed=False)
    return verdict
