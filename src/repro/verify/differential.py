"""Cross-engine differential verification of one signal-flow graph.

One graph, six independent consistency obligations — exactly the
contracts the fixture suites pin on the hand-built systems, generalized
so they can be asserted on *any* graph (in particular the seeded random
graphs of :mod:`repro.systems.random_graphs`):

1. **round_trip** — JSON serialization is loss-free: serialize → parse →
   rebuild preserves the canonical fingerprint;
2. **plan_vs_legacy** — every evaluation engine running through the
   compiled plan is *bitwise identical* to the naive per-call traversal
   of :mod:`repro.verify.legacy`, which states its own propagation rule:
   the PSD and moments walks, the flat and tracked engines (single-rate
   graphs) and both simulation modes;
3. **backend_equality** — the plan's bit-true run (the kernels of
   :mod:`repro.simkernel`) produces the same bytes as the oracle's
   fixed run on the preserved legacy loops
   (:func:`~repro.verify.legacy.legacy_run`), signed zeros included, on
   the generated graph and again after a seeded assignment with
   per-edge fanout taps;
4. **batch_vs_sequential** — a K-slice consistency property.  Scalar
   evaluations are the ``K = 1`` case of the engine's one step rule, so
   the check guards what only a ``K > 1`` walk does — the row-sparse
   gathers from the memo and the per-row skipping of silent sources —
   against ``K = 1`` evaluations: the configuration-batched paths equal the
   sequential requantize-and-evaluate loop, row for row, bit for bit
   (analytical engines and the Monte-Carlo reference), and a stack of
   one-key deltas against a random incumbent equals cold ``K = 1``
   evaluations on a freshly compiled plan in raw bytes, signed zeros
   included — once, and again after the plan takes one candidate's
   move, when the walks reuse the first round's rows.  Check 2 is the
   independent anchor of both sides;
5. **ed_band** — the proposed PSD estimate tracks the Monte-Carlo
   measurement within the paper's sub-one-bit ``Ed`` band
   ``(-300 %, +75 %)``;
6. **incremental** — the memoized re-evaluation of the rebuilt steps'
   cones (:class:`~repro.analysis._engine.NoiseMemo`) stays *bitwise
   identical* to the cold walks of a freshly compiled plan across a
   seeded sequence of ``requantize`` edits and one seeded rounding
   change made through a node's spec, which only the evaluation's
   refresh finds (multirate graphs included), and so do the
   configuration-batched walks.

Every check is exception-safe: an engine that crashes on a generated
graph is reported as that check's failure (with the exception text), not
as a crash of the harness — a fuzzer must keep running past the first
broken graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analysis.agnostic_method import (
    evaluate_agnostic,
    evaluate_agnostic_batch,
)
from repro.analysis._engine import plan_memo
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
from repro.fixedpoint.quantizer import RoundingMode
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
    stimulus = _stimulus(graph, samples, seed)

    def compare(label):
        expected = legacy_run(graph, stimulus, "fixed")
        output = plan.run(stimulus, mode="fixed").output(None)
        # Raw bytes: np.array_equal would take -0.0 for +0.0.
        _require(output.shape == expected.shape
                 and output.tobytes() == expected.tobytes(),
                 f"the plan's fixed run differs bitwise from the "
                 f"reference loops {label}")

    compare("on the generated graph")
    # edges=True: the assignment may tap fanout edges, so the plan walk's
    # and the oracle's edge-tap quantization run too.
    assignment = random_assignments(graph, seed + 7, 1, edges=True)[0]
    with plan.preserve_quantization():
        plan.requantize(assignment, allow_enable=True)
        compare("after an edge-keyed requantize")
    return "the plan's fixed run bitwise identical to the reference loops"


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
            _require(_bitwise(psd_stack.ac[index], scalar.ac)
                     and _bitwise(psd_stack.mean[index], scalar.mean),
                     f"psd batch row {index} differs from the sequential "
                     "evaluation")
            scalar = evaluate_agnostic(plan)
            _require(_bitwise(agnostic_stack.mean[index], scalar.mean)
                     and _bitwise(agnostic_stack.variance[index],
                                  scalar.variance),
                     f"agnostic batch row {index} differs from the "
                     "sequential evaluation")
            if flat_stack is not None:
                scalar = evaluate_flat(plan)
                _require(_bitwise(flat_stack.mean[index], scalar.mean)
                         and _bitwise(flat_stack.variance[index],
                                      scalar.variance),
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
    # cones, so the memoized batched walks run row-sparse here.  A second
    # round moves the plan to one of the candidates and runs the stack
    # again: its walks reuse the first round's rows wherever no step
    # upstream of them was rebuilt.
    incumbent = random_assignments(graph, seed + 5, 1, edges=True)[0]
    with plan.preserve_quantization():
        plan.requantize(incumbent, allow_enable=True)
        deltas = random_deltas(graph, seed + 6, 2 * batch_configs + 1)
        first = _delta_walks(plan, n_psd, deltas)
        with plan.preserve_quantization():
            plan.requantize(deltas[1 + seed % (len(deltas) - 1)],
                            allow_enable=True)
            _check_delta_rows(plan, n_psd, deltas,
                              _delta_walks(plan, n_psd, deltas),
                              "second-round ")
        _check_delta_rows(plan, n_psd, deltas, first, "")
    return (f"{len(assignments)} configs + {len(deltas)} deltas over two "
            "rounds bit-identical across all engines")


def _delta_walks(plan, n_psd, deltas) -> tuple:
    """The memoized batched psd and agnostic walks of a delta stack."""
    return (evaluate_psd_batch(plan, n_psd, deltas),
            evaluate_agnostic_batch(plan, deltas))


def _check_delta_rows(plan, n_psd, deltas, walks, label) -> None:
    """Each row of ``walks`` has the raw bytes of the cold scalar walk of
    its delta on the plan as it stands, on a freshly compiled plan."""
    psd_stack, agnostic_stack = walks
    for index, delta in enumerate(deltas):
        with plan.preserve_quantization():
            plan.requantize(delta, allow_enable=True)
            fresh = CompiledPlan(plan.graph)
            scalar_psd = evaluate_psd(fresh, n_psd)
            scalar_stats = evaluate_agnostic(fresh)
        _require(_same_bytes(psd_stack.ac[index], scalar_psd.ac)
                 and _same_bytes(psd_stack.mean[index], scalar_psd.mean),
                 f"{label}psd delta row {index} ({delta}) differs from the "
                 "cold scalar walk")
        _require(_same_bytes(agnostic_stack.mean[index], scalar_stats.mean)
                 and _same_bytes(agnostic_stack.variance[index],
                                 scalar_stats.variance),
                 f"{label}agnostic delta row {index} ({delta}) differs "
                 "from the cold scalar walk")


def _same_bytes(a, b) -> bool:
    """:func:`_bitwise`, and equal raw bytes (dtype included)."""
    a, b = np.asarray(a), np.asarray(b)
    return (_bitwise(a, b) and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


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
    edits = random_assignments(graph, seed + 3, 4, edges=True)
    engines = {"psd": lambda system: evaluate_psd(system, n_psd),
               "agnostic": evaluate_agnostic}
    single_rate = not is_multirate(graph)
    if single_rate:
        engines["tracked"] = lambda system: evaluate_psd_tracked(system,
                                                                 n_psd)
        engines["flat"] = evaluate_flat
    memo = plan_memo(plan)
    with plan.preserve_quantization():
        # Warm every memo channel on the current quantization, then
        # replay a seeded requantize-edit sequence: each memoized pull
        # (recomputing only the edit's dirty downstream cone) must be
        # bitwise identical to the cold walk of a freshly compiled plan
        # of the same state, which has never seen the edit history.
        evaluate_psd(plan, n_psd)
        evaluate_agnostic(plan)
        if single_rate:
            evaluate_psd_tracked(plan, n_psd)
        before = memo.counters()["cone_recomputes"]

        def compare(edit):
            fresh = CompiledPlan(graph)
            for name, evaluate in engines.items():
                _require(_same_fields(evaluate(plan), evaluate(fresh)),
                         f"memoized {name} evaluation after {edit} "
                         "differs from a freshly compiled plan's")

        for index, assignment in enumerate(edits):
            plan.requantize(assignment, allow_enable=True)
            compare(f"edit {index}")
        # The last edit goes through the node's spec, so the evaluations'
        # refresh is what finds it.  On a node that does not quantize it
        # moves no live value, only what the node and its taps give at
        # other word lengths, which the batched walks below read.
        rounded, rounding = _rounding_change(graph, seed + 8)
        node = graph.node(rounded)
        node.quantization = replace(node.quantization, rounding=rounding)
        compare(f"a rounding change on {rounded!r}")
        cones = memo.counters()["cone_recomputes"] - before

        # The batched walks copy the memo's values outside each config's
        # cone and reuse the rows of earlier walks; the rows must still
        # match a fresh plan's batched walk bit for bit.
        stacks = random_assignments(graph, seed + 4, batch_configs)
        fresh = CompiledPlan(graph)
        _require(_same_fields(evaluate_psd_batch(plan, n_psd, stacks),
                              evaluate_psd_batch(fresh, n_psd, stacks)),
                 "memoized psd batch walk differs from a freshly compiled "
                 "plan's")
        _require(_same_fields(evaluate_agnostic_batch(plan, stacks),
                              evaluate_agnostic_batch(fresh, stacks)),
                 "memoized agnostic batch walk differs from a freshly "
                 "compiled plan's")
    return (f"{len(edits)} edits and a rounding change bit-identical to "
            f"fresh plans ({cones} cone recomputes)")


def _rounding_change(graph, seed: int) -> tuple:
    """A seeded ``(node name, rounding mode)``: any node of ``graph``,
    any mode but the node's current one."""
    rng = np.random.default_rng(seed)
    names = list(graph.nodes)
    name = names[int(rng.integers(len(names)))]
    current = graph.node(name).quantization.rounding
    modes = [mode for mode in RoundingMode if mode != current]
    return name, modes[int(rng.integers(len(modes)))]


def _same_fields(a, b) -> bool:
    """:func:`_same_bytes` on each of the two fields of a PSD (``ac``,
    ``mean``) or of moments (``mean``, ``variance``)."""
    fields = ("ac", "mean") if hasattr(a, "ac") else ("mean", "variance")
    return all(_same_bytes(getattr(a, field), getattr(b, field))
               for field in fields)


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
