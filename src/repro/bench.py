"""Machine-readable performance benchmarks and regression checking.

Two halves:

* **Schema + writer** — every benchmark (the pytest harnesses under
  ``benchmarks/`` and the CLI benches below) reports its measurement as
  one ``BENCH_<name>.json`` file: workload description, wall-clock
  seconds and derived speedup ratios.  The schema is deliberately tiny so
  CI jobs and the regression checker can consume any benchmark the same
  way.
* **Registry + checker** — a small set of quick, tagged benchmark
  functions runnable without pytest (the ``repro bench`` subcommand).
  Each times the *reference* backend (the preserved legacy loops of
  :mod:`repro.simkernel.reference`) against the default path on the
  same workload, asserts the outputs are bitwise identical, and reports
  the speedup.  ``repro bench --check`` then compares the measured
  speedups against the committed floors in
  ``benchmarks/bench_baseline.json`` and fails on regression.

Speedup *ratios* — not absolute seconds — are what the baseline pins:
both sides of each ratio run in the same process on the same machine, so
the check is robust to slow CI runners while still catching an engine
regression (the optimized path falling back to, or degrading towards,
the legacy loops).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Version tag written into every BENCH_*.json payload.
BENCH_SCHEMA = 1

#: Default location of the committed speedup floors.
DEFAULT_BASELINE = "benchmarks/bench_baseline.json"


# ----------------------------------------------------------------------
# Schema + writer
# ----------------------------------------------------------------------
def bench_payload(name: str, *, workload: dict, seconds: dict,
                  speedup: dict | None = None, tags=(),
                  mode: str | None = None,
                  warmup_s: dict | None = None) -> dict:
    """Assemble one benchmark measurement in the shared JSON schema.

    ``warmup_s`` records the untimed warm-up call of each measured
    configuration (JIT compilation, plan compilation, cache priming) —
    kept separate so one-time compile cost never pollutes the speedup
    ratios the baseline floors pin.
    """
    return {
        "schema": BENCH_SCHEMA,
        "name": str(name),
        "tags": sorted(str(tag) for tag in tags),
        "mode": mode,
        "workload": dict(workload),
        "seconds": {key: float(value) for key, value in seconds.items()},
        "speedup": {key: float(value)
                    for key, value in (speedup or {}).items()},
        "warmup_s": {key: float(value)
                     for key, value in (warmup_s or {}).items()},
    }


def write_bench_json(results_dir, payload: dict) -> Path:
    """Persist one payload as ``BENCH_<name>.json`` under ``results_dir``."""
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{payload['name']}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path) -> dict:
    """Load one BENCH_*.json payload (validating the schema tag)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: unsupported bench schema "
                         f"{payload.get('schema')!r}")
    return payload


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchEntry:
    """One registered CLI benchmark."""

    name: str
    tags: tuple
    description: str
    function: object = field(repr=False)


_REGISTRY: dict[str, BenchEntry] = {}


def _registered(name: str, tags, description: str):
    def decorate(function):
        _REGISTRY[name] = BenchEntry(name, tuple(tags), description, function)
        return function
    return decorate


def bench_entries(tags=None, names=None) -> list[BenchEntry]:
    """Registered benches filtered by tags and/or explicit names."""
    entries = list(_REGISTRY.values())
    if names:
        unknown = sorted(set(names) - set(_REGISTRY))
        if unknown:
            raise ValueError(f"unknown benchmark(s) {unknown}; registered: "
                             f"{sorted(_REGISTRY)}")
        entries = [_REGISTRY[name] for name in names]
    if tags:
        wanted = set(tags)
        entries = [entry for entry in entries
                   if wanted & set(entry.tags)]
    return entries


def _timed(function, *args):
    start = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - start


def _timed_warm(function, *args):
    """Time one call after one untimed warm-up call.

    The default backend compiles plans (and numba, when installed,
    compiles the IIR recursion) on first use; the warm-up absorbs that
    one-time cost so the sampled seconds measure steady-state
    throughput.  Returns
    ``(result, seconds, warmup_seconds)`` — the warm-up duration is
    reported separately in the payload's ``warmup_s`` field.
    """
    _, warmup_seconds = _timed(function, *args)
    result, seconds = _timed(function, *args)
    return result, seconds, warmup_seconds


def _require_bitwise(label: str, reference, optimized) -> None:
    # Compare the raw bytes: np.array_equal would take -0.0 for +0.0
    # (and refuse identical NaNs).
    reference, optimized = np.asarray(reference), np.asarray(optimized)
    if not (reference.shape == optimized.shape
            and reference.dtype == optimized.dtype
            and reference.tobytes() == optimized.tobytes()):
        raise RuntimeError(
            f"{label}: optimized output is not bitwise identical to the "
            "reference backend — refusing to report a speedup for a "
            "broken kernel")


# ----------------------------------------------------------------------
# The registered benches
# ----------------------------------------------------------------------
@_registered("sim_engine_ff", tags=("smoke", "sim"),
             description="Fig. 6 frequency-filter bit-true simulation: "
                         "legacy loops vs the default backend")
def bench_sim_engine_ff(samples: int = 60_000, seed: int = 1) -> dict:
    """The Fig. 6 F.F. workload: dual-mode simulation of the Fig. 2 system."""
    from repro.analysis.simulation_method import SimulationEvaluator
    from repro.data.signals import uniform_white_noise
    from repro.simkernel import use_backend
    from repro.systems.freq_filter import FrequencyDomainFilter

    system = FrequencyDomainFilter(fractional_bits=12, n_psd=1024)
    evaluator = SimulationEvaluator(system.evaluator.plan)
    stimulus = {"x": uniform_white_noise(samples, seed=seed)}
    warmup: dict = {}
    with use_backend("reference"):
        reference, reference_seconds, warmup["reference"] = _timed_warm(
            evaluator.error_signal, stimulus)
    optimized, fast_seconds, warmup["fast"] = _timed_warm(
        evaluator.error_signal, stimulus)
    _require_bitwise("sim_engine_ff", reference, optimized)
    return bench_payload(
        "sim_engine_ff",
        workload={"system": "frequency-domain-filter", "samples": samples,
                  "fractional_bits": 12},
        seconds={"reference": reference_seconds, "fast": fast_seconds},
        speedup={"bit_true_simulation": reference_seconds / fast_seconds},
        warmup_s=warmup, tags=("smoke", "sim"))


@_registered("sim_engine_iir", tags=("smoke", "sim"),
             description="Direct-form IIR bit-true recursion: legacy "
                         "per-sample loop vs the default backend")
def bench_sim_engine_iir(samples: int = 60_000, seed: int = 3) -> dict:
    """Single-stream and 64-trial batched IIR recursion."""
    from repro.analysis.simulation_method import SimulationEvaluator
    from repro.data.signals import uniform_white_noise
    from repro.simkernel import use_backend
    from repro.systems.filter_bank import build_filter_graph, generate_iir_bank

    graph = build_filter_graph(generate_iir_bank(3)[2], fractional_bits=12)
    evaluator = SimulationEvaluator(graph)
    stimulus = {"x": uniform_white_noise(samples, seed=seed)}
    trials = 64
    batched = {"x": np.stack([
        uniform_white_noise(max(256, samples // trials), seed=seed + 1 + t)
        for t in range(trials)])}

    seconds: dict = {}
    outputs: dict = {}
    warmup: dict = {}
    for backend in ("reference", "fast"):
        with use_backend(backend):
            outputs[backend], seconds[backend], warmup[backend] = _timed_warm(
                evaluator.error_signal, stimulus)
            _, seconds[f"{backend}_batched"] = _timed(
                evaluator.error_signal, batched)
    _require_bitwise("sim_engine_iir", outputs["reference"], outputs["fast"])
    speedup = {
        "single_stream": seconds["reference"] / seconds["fast"],
        "batched_64": seconds["reference_batched"] / seconds["fast_batched"],
    }
    return bench_payload(
        "sim_engine_iir",
        workload={"system": "table1-iir", "samples": samples,
                  "trials": trials, "fractional_bits": 12},
        seconds=seconds, speedup=speedup, warmup_s=warmup,
        tags=("smoke", "sim"))


@_registered("welch_psd", tags=("smoke", "psd"),
             description="Welch PSD estimation: per-segment loop vs "
                         "batched strided FFT")
def bench_welch_psd(samples: int = 400_000, seed: int = 5) -> dict:
    """Welch estimation: one long record, and a 64-trial stacked record."""
    from repro.data.signals import uniform_white_noise
    from repro.psd.estimation import _welch_reference, welch, welch_batched

    n_bins = 256
    record = uniform_white_noise(samples, seed=seed)
    warmup: dict = {}
    loop_psd, loop_seconds, warmup["reference"] = _timed_warm(
        _welch_reference, record, n_bins)
    fast_psd, fast_seconds, warmup["numpy"] = _timed_warm(
        welch, record, n_bins)
    _require_bitwise("welch_psd", loop_psd.ac, fast_psd.ac)
    if loop_psd.mean != fast_psd.mean:
        raise RuntimeError("welch_psd: mean drifted between implementations")

    trials = np.stack([
        uniform_white_noise(max(n_bins, samples // 64), seed=seed + 1 + t)
        for t in range(64)])
    loop_rows, rows_seconds = _timed(
        lambda: [_welch_reference(row, n_bins) for row in trials])
    fast_rows, batch_seconds = _timed(welch_batched, trials, n_bins)
    for loop_row, fast_row in zip(loop_rows, fast_rows):
        _require_bitwise("welch_psd[batched]", loop_row.ac, fast_row.ac)
    return bench_payload(
        "welch_psd",
        workload={"samples": samples, "n_bins": n_bins, "trials": 64},
        seconds={"reference": loop_seconds, "numpy": fast_seconds,
                 "reference_batched": rows_seconds,
                 "numpy_batched": batch_seconds},
        speedup={"welch": loop_seconds / fast_seconds,
                 "welch_batched": rows_seconds / batch_seconds},
        tags=("smoke", "psd"))


@_registered("incremental_reeval", tags=("smoke", "analysis"),
             description="Greedy-candidate PSD re-evaluation: cold full "
                         "walks vs memoized dirty-cone pulls")
def bench_incremental_reeval(samples: int | None = None, branches: int = 64,
                             candidates: int = 24, n_psd: int = 512,
                             seed: int = 7) -> dict:
    """Single-node requantize edits on the wide scalability bank.

    Replays the word-length optimizer's greedy candidate loop — one
    single-node edit, one evaluation — twice on the same edit sequence:
    once as cold full walks (memoization disabled, the pre-memo cost) and
    once as memoized dirty-cone pulls, asserting the per-candidate noise
    powers are bitwise identical before reporting the speedup.

    ``samples`` is accepted for CLI uniformity but ignored: the workload
    is graph-size-bound (``branches`` FIR branches under an unquantized
    binary adder tree), not stimulus-bound.
    """
    del samples, seed  # deterministic workload; kept for CLI uniformity
    from repro.analysis._engine import memoization_disabled, plan_memo
    from repro.analysis.psd_method import evaluate_psd
    from repro.sfg.plan import compile_plan
    from repro.systems.families import build_scalability_bank

    graph = build_scalability_bank(branches=branches)
    plan = compile_plan(graph)
    count = min(candidates, branches)
    edits = [(f"branch{index}", 13 - index % 2) for index in range(count)]

    def replay() -> list:
        powers = []
        with plan.preserve_quantization():
            for name, bits in edits:
                plan.requantize({name: bits})
                powers.append(evaluate_psd(plan, n_psd).total_power)
        return powers

    def replay_cold() -> list:
        with memoization_disabled():
            return replay()

    warmup: dict = {}
    cold_powers, cold_seconds, warmup["full_walks"] = _timed_warm(replay_cold)
    # Sync the memo on the restored baseline quantization so the timed
    # run measures steady-state cone pulls, not the initial cold build.
    evaluate_psd(plan, n_psd)
    warm_powers, warm_seconds, warmup["dirty_cones"] = _timed_warm(replay)
    _require_bitwise("incremental_reeval", cold_powers, warm_powers)
    counters = plan_memo(plan).counters()
    return bench_payload(
        "incremental_reeval",
        workload={"system": graph.name, "branches": branches,
                  "steps": len(plan.steps), "candidates": count,
                  "n_psd": n_psd,
                  "steps_recomputed": counters["steps_recomputed"],
                  "steps_reused": counters["steps_reused"]},
        seconds={"full_walks": cold_seconds, "dirty_cones": warm_seconds,
                 "full_per_candidate": cold_seconds / count,
                 "cone_per_candidate": warm_seconds / count},
        speedup={"per_candidate": cold_seconds / warm_seconds},
        warmup_s=warmup, tags=("smoke", "analysis"))


@_registered("fine_grained_search", tags=("smoke", "analysis"),
             description="Per-edge word-length search: dirty-cone tap "
                         "edits vs cold walks, edge- vs node-level "
                         "search cost at one budget")
def bench_fine_grained_search(samples: int | None = None, branches: int = 16,
                              candidates: int = 16, n_psd: int = 256,
                              budget_factor: float = 16.0,
                              seed: int = 9) -> dict:
    """Per-edge requantize edits and searches on the scalability bank.

    Two claims are measured on the same graph:

    * a single fanout-tap edit (``x->branch_i``) re-evaluates in its
      dirty downstream cone, not the whole graph — replayed cold
      (memoization disabled) vs warm, bitwise-identical powers required
      before the ``per_candidate`` speedup is reported;
    * at the same noise budget, the edge-granularity greedy search ends
      at strictly fewer total fractional bits than the node-level one
      (reported in the workload as ``node_total_bits`` /
      ``edge_total_bits``; the run fails if the edge search is not
      strictly cheaper).

    ``samples`` is accepted for CLI uniformity but ignored: the
    workload is graph-size-bound, not stimulus-bound.
    """
    del samples, seed  # deterministic workload; kept for CLI uniformity
    from repro.analysis._engine import memoization_disabled, plan_memo
    from repro.analysis.psd_method import evaluate_psd
    from repro.sfg.plan import compile_plan
    from repro.systems.families import build_scalability_bank
    from repro.systems.wordlength import WordLengthOptimizer

    graph = build_scalability_bank(branches=branches)
    plan = compile_plan(graph)
    budget = float(evaluate_psd(plan, n_psd).total_power) * budget_factor

    count = min(candidates, branches)
    edits = [(f"x->branch{index}", 12 - index % 2) for index in range(count)]

    def replay() -> list:
        powers = []
        with plan.preserve_quantization():
            for key, bits in edits:
                plan.requantize({key: bits})
                powers.append(evaluate_psd(plan, n_psd).total_power)
        return powers

    def replay_cold() -> list:
        with memoization_disabled():
            return replay()

    warmup: dict = {}
    cold_powers, cold_seconds, warmup["full_walks"] = _timed_warm(replay_cold)
    # Sync the memo on the restored (tap-free) quantization so the timed
    # run measures steady-state cone pulls, not the initial cold build.
    evaluate_psd(plan, n_psd)
    warm_powers, warm_seconds, warmup["dirty_cones"] = _timed_warm(replay)
    _require_bitwise("fine_grained_search", cold_powers, warm_powers)
    counters = plan_memo(plan).counters()

    node_result = WordLengthOptimizer(
        build_scalability_bank(branches=branches),
        n_psd=n_psd).optimize(budget)
    edge_result = WordLengthOptimizer(
        build_scalability_bank(branches=branches), n_psd=n_psd,
        granularity="edge").optimize(budget)
    if edge_result.total_bits >= node_result.total_bits:
        raise RuntimeError(
            f"fine_grained_search: edge-granularity search ended at "
            f"{edge_result.total_bits} total bits, not strictly below "
            f"the node-level {node_result.total_bits} at the same "
            f"budget {budget:.3e}")
    return bench_payload(
        "fine_grained_search",
        workload={"system": graph.name, "branches": branches,
                  "steps": len(plan.steps), "candidates": count,
                  "n_psd": n_psd, "budget_factor": budget_factor,
                  "node_total_bits": node_result.total_bits,
                  "edge_total_bits": edge_result.total_bits,
                  "node_evaluations": node_result.evaluations,
                  "edge_evaluations": edge_result.evaluations,
                  "steps_recomputed": counters["steps_recomputed"],
                  "steps_reused": counters["steps_reused"]},
        seconds={"full_walks": cold_seconds, "dirty_cones": warm_seconds,
                 "full_per_candidate": cold_seconds / count,
                 "cone_per_candidate": warm_seconds / count},
        speedup={"per_candidate": cold_seconds / warm_seconds},
        warmup_s=warmup, tags=("smoke", "analysis"))


def run_benches(entries, results_dir, samples: int | None = None) -> list[dict]:
    """Run benches, write their BENCH_*.json files, return the payloads."""
    from repro.obs import span

    payloads = []
    for entry in entries:
        with span("bench.run", bench=entry.name):
            payload = (entry.function(samples=samples) if samples
                       else entry.function())
        payload["mode"] = "cli"
        write_bench_json(results_dir, payload)
        payloads.append(payload)
    return payloads


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
def load_baseline(path) -> dict:
    """Load the committed speedup floors."""
    baseline = json.loads(Path(path).read_text())
    if baseline.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: unsupported baseline schema "
                         f"{baseline.get('schema')!r}")
    return baseline


def check_against_baseline(payloads: list[dict], baseline: dict) -> list[str]:
    """Compare measured speedups to the baseline floors.

    Returns a list of human-readable regression descriptions (empty when
    everything is at or above its floor).  Missing measurements for a
    floored key are regressions too — a silently skipped benchmark must
    not look like a pass.
    """
    measured = {payload["name"]: payload.get("speedup", {})
                for payload in payloads}
    regressions = []
    for name, floors in sorted(baseline.get("floors", {}).items()):
        if name not in measured:
            if name in _REGISTRY:
                continue  # registered, just outside the selected tags/names
            # A floor for a name the registry does not know means the
            # benchmark was renamed or unregistered: its floor would
            # otherwise never be evaluated again, silently.
            regressions.append(
                f"{name}: baseline floors reference an unknown benchmark "
                "(renamed or unregistered?)")
            continue
        for key, floor in sorted(floors.items()):
            value = measured[name].get(key)
            if value is None:
                regressions.append(
                    f"{name}.{key}: no measurement (floor {floor:g}x)")
            elif value < float(floor):
                regressions.append(
                    f"{name}.{key}: speedup {value:.2f}x below the "
                    f"baseline floor {floor:g}x")
    return regressions


def required_floor(baseline: dict, name: str, key: str,
                   path=DEFAULT_BASELINE) -> float:
    """The committed floor for ``floors.<name>.<key>``.

    Raises a one-line :class:`ValueError` naming the baseline file and
    the missing key when the entry is absent — a harness gating on a
    floor must fail readably, not with a bare ``KeyError``.
    """
    entry = baseline.get("floors", {}).get(name)
    if entry is None or key not in entry:
        raise ValueError(
            f"{path}: no baseline entry floors.{name}.{key} — commit the "
            "speedup floor before gating on it")
    return float(entry[key])


def baseline_diff(payloads: list[dict], baseline: dict) -> list[dict]:
    """Measured-vs-floor rows for every floored key of the measured benches.

    One row per ``floors.<name>.<key>`` whose benchmark was measured:
    the committed floor, the measured speedup, the margin ratio
    (``measured / floor``) and a verdict.
    """
    measured = {payload["name"]: payload.get("speedup", {})
                for payload in payloads}
    rows = []
    for name, floors in sorted(baseline.get("floors", {}).items()):
        if name not in measured:
            continue
        for key, floor in sorted(floors.items()):
            floor = float(floor)
            value = measured[name].get(key)
            row = {"name": name, "key": key, "floor": floor,
                   "measured": value,
                   "margin": value / floor if value is not None else None,
                   "ok": value is not None and value >= floor}
            rows.append(row)
    return rows


def missing_baseline_entries(payloads: list[dict], baseline: dict) -> list[str]:
    """Names of measured benches reporting speedups without any committed
    floor — a new benchmark must not silently run ungated."""
    floors = baseline.get("floors", {})
    return sorted(payload["name"] for payload in payloads
                  if payload.get("speedup") and payload["name"] not in floors)
