"""Command-line front end: evaluate a serialized fixed-point system.

Usage::

    python -m repro.cli evaluate system.json --method psd --n-psd 1024
    python -m repro.cli simulate system.json --samples 100000 --seed 3
    python -m repro.cli compare  system.json --methods psd agnostic flat
    python -m repro.cli optimize system.json --budget 1e-7
    python -m repro.cli sweep    system.json --budget-range 1e-5 1e-8 7
    python -m repro.cli campaign --scenarios polyphase_decimator \
        fft_butterfly --methods psd simulation --wordlengths 8 12 16
    python -m repro.cli fuzz --count 200 --seed 0 --artifacts fuzz-out
    python -m repro.cli bench --tags smoke --check
    python -m repro.cli bench --tags smoke --check --json
    python -m repro.cli campaign --scenarios fft_butterfly \
        --trace trace.json --metrics metrics.json
    python -m repro.cli obs trace.json --metrics-file metrics.json

The system description is the JSON schema of
:mod:`repro.sfg.serialization`.  Stimuli for the simulation-based commands
are generated internally (uniform white noise) so the tool works without
any data files; a single ``--seed`` option, shared by every subcommand,
makes all of them reproducible end to end.

The ``campaign`` subcommand is the design-space front end
(:mod:`repro.campaign`): instead of one serialized system it takes named
scenarios from the registry (``--list-scenarios`` prints them, parameters
ride along as ``name:key=value,...``), expands a scenario x method x
word-length grid into content-addressed jobs, serves repeats from the
result cache and runs the rest on a process pool.  Execution is
supervised (``--max-retries`` / ``--payload-timeout``): failing payloads
are retried, bisected and quarantined as ``status="failed"`` records
rather than aborting the campaign, and ``--chaos SEED@RATE`` arms the
seeded fault injector for reproducible failure drills.  Exit codes: 0 on
success, 1 on error, **2 on partial failure** (the campaign completed
but quarantined at least one job; a machine-readable ``failure
summary:`` JSON line precedes the exit).

The ``fuzz`` subcommand is the differential verification front end
(:mod:`repro.verify`): it generates seeded random signal-flow graphs and
asserts the six cross-engine contracts on each (serialization
round-trip, compiled-plan vs legacy bitwise equivalence, batched vs
sequential equality, analytical-vs-simulation Ed band, incremental vs
cold-walk bitwise identity).  Failures are
shrunk to the simplest reproducing generator configuration and dumped as
serialized regression artifacts; the printed command line reproduces any
failure from its seed alone.

The ``bench`` subcommand is the performance-regression front end
(:mod:`repro.bench`): it runs the registered tagged benchmarks — each
timing the preserved legacy simulation loops against the optimized
kernels of :mod:`repro.simkernel` on the same workload and asserting the
outputs stay bitwise identical — writes one machine-readable
``BENCH_<name>.json`` per benchmark, and with ``--check`` exits nonzero
when any measured speedup falls below the committed baseline floors
(``--json`` emits the payloads and the full measured-vs-floor diff as
JSON instead of the table).

Every workload-running subcommand also carries the global observability
options (:mod:`repro.obs`): ``--trace FILE`` records structured spans at
each architectural boundary and writes Chrome trace-event JSON,
``--metrics FILE`` snapshots the metrics registry, and ``--log-level``
configures the namespaced ``repro.*`` loggers.  Both are off by default
and cost nothing when off.  The ``obs`` subcommand summarizes a saved
trace (per-span timing table, coverage, campaign cache-hit ratio).

Every command follows the library's graph → plan → run pipeline (see
ARCHITECTURE.md): the loaded graph is compiled once into a
:class:`~repro.sfg.plan.CompiledPlan` — validation, topological ordering
and frequency-response computation happen at that point — and all
subsequent evaluations replay the plan.  This matters most for
``optimize``, whose greedy refinement re-evaluates the system hundreds of
times on the shared plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.evaluator import (
    ANALYTICAL_METHODS,
    SEARCH_METHODS,
    AccuracyEvaluator,
)
from repro.bench import DEFAULT_BASELINE
from repro.data.signals import uniform_white_noise
from repro.sfg.serialization import load_graph
from repro.systems.pareto import budget_range, sweep_noise_budgets
from repro.systems.wordlength import WordLengthOptimizer
from repro.utils.tables import TextTable


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def _add_log_level_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", default=None, choices=_LOG_LEVELS,
                        help="configure logging at this level (the "
                             "namespaced repro.* loggers report cache "
                             "healing, campaign summaries, ...); unset "
                             "leaves logging unconfigured")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """The global observability options, shared by every subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", default=None, metavar="FILE",
                       help="record structured trace spans for this "
                            "command and write them to FILE as Chrome "
                            "trace-event JSON (load in chrome://tracing "
                            "or Perfetto, or summarize with 'repro obs')")
    group.add_argument("--metrics", default=None, metavar="FILE",
                       help="collect the metrics registry for this "
                            "command and write its snapshot to FILE as "
                            "JSON")
    _add_log_level_option(group)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("system", help="path to the JSON system description")
    _add_shared_options(parser)


def _add_shared_options(parser: argparse.ArgumentParser,
                        n_psd_default: int = 1024) -> None:
    parser.add_argument("--n-psd", type=int, default=n_psd_default,
                        help="number of PSD bins for the PSD-based methods")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of every stimulus generated by "
                             "this command (reproducible end to end)")


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PSD-based accuracy evaluation of fixed-point systems")
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser(
        "evaluate", help="analytical estimate of the output noise power")
    _add_common_arguments(evaluate)
    evaluate.add_argument("--method", default="psd",
                          choices=ANALYTICAL_METHODS)

    simulate = commands.add_parser(
        "simulate", help="Monte-Carlo measurement of the output noise power")
    _add_common_arguments(simulate)
    simulate.add_argument("--samples", type=int, default=100_000)
    simulate.add_argument("--amplitude", type=float, default=0.9)

    compare = commands.add_parser(
        "compare", help="simulation vs analytical estimates")
    _add_common_arguments(compare)
    compare.add_argument("--methods", nargs="+", default=["psd", "agnostic"],
                         choices=ANALYTICAL_METHODS)
    compare.add_argument("--samples", type=int, default=100_000)
    compare.add_argument("--amplitude", type=float, default=0.9)

    optimize = commands.add_parser(
        "optimize", help="greedy word-length optimization under a noise budget")
    _add_common_arguments(optimize)
    optimize.add_argument("--budget", type=float, required=True)
    optimize.add_argument("--method", default="psd",
                          choices=SEARCH_METHODS)
    optimize.add_argument("--min-bits", type=int, default=4)
    optimize.add_argument("--max-bits", type=int, default=24)
    optimize.add_argument("--granularity", default="node",
                          choices=("node", "edge"),
                          help="tune one width per quantized node (default) "
                               "or additionally one per fanout branch")

    sweep = commands.add_parser(
        "sweep",
        help="sweep noise budgets into a cost-vs-noise Pareto front")
    _add_common_arguments(sweep)
    budgets = sweep.add_mutually_exclusive_group(required=True)
    budgets.add_argument("--budgets", type=float, nargs="+",
                         help="explicit noise-power budgets to sweep")
    budgets.add_argument("--budget-range", type=float, nargs=3,
                         metavar=("LOOSEST", "TIGHTEST", "COUNT"),
                         help="geometric budget sweep (count points)")
    sweep.add_argument("--method", default="psd",
                       choices=SEARCH_METHODS)
    sweep.add_argument("--min-bits", type=int, default=4)
    sweep.add_argument("--max-bits", type=int, default=24)
    sweep.add_argument("--granularity", default="node",
                       choices=("node", "edge"),
                       help="tune one width per quantized node (default) "
                            "or additionally one per fanout branch")
    sweep.add_argument("--validate-samples", type=int, default=0,
                       help="cross-validate every point by a Monte-Carlo "
                            "run of this many samples (0 disables)")

    campaign = commands.add_parser(
        "campaign",
        help="run a multi-scenario evaluation campaign (cached, parallel, "
             "resumable)")
    campaign.add_argument("--scenarios", nargs="+", default=[],
                          metavar="NAME[:k=v,...]",
                          help="registered scenarios to run, with optional "
                               "parameter overrides (e.g. "
                               "polyphase_decimator:factor=8,taps=64)")
    campaign.add_argument("--list-scenarios", action="store_true",
                          help="print the scenario registry and exit")
    campaign.add_argument("--methods", nargs="+",
                          default=["psd", "simulation"],
                          choices=ANALYTICAL_METHODS + ("simulation",),
                          help="evaluation methods of the grid; include "
                               "'simulation' to attach the Monte-Carlo "
                               "reference (enables the Ed columns)")
    campaign.add_argument("--wordlengths", nargs="+", type=int,
                          default=[8, 12, 16],
                          help="uniform fractional word lengths swept per "
                               "scenario")
    campaign.add_argument("--samples", type=int, default=0,
                          help="override the per-scenario stimulus length "
                               "(0 keeps each scenario's default)")
    campaign.add_argument("--workers", type=int, default=None,
                          help="largest process-pool width (default: the "
                               "usable cores); the pool starts at most one "
                               "process per scenario that misses the cache, "
                               "and 1 runs inline")
    campaign.add_argument("--cache-dir", default=None,
                          help="content-addressed result cache directory "
                               "(repeat runs are served from it)")
    campaign.add_argument("--output", default=None,
                          help="append every result to this JSONL file as "
                               "it completes (resume log)")
    campaign.add_argument("--csv", default=None,
                          help="export the joined report rows as CSV")
    campaign.add_argument("--json-report", default=None,
                          help="export summary + rows + records as JSON")
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="re-dispatches a failing payload gets before "
                               "the supervisor bisects / quarantines it "
                               "(0 disables retries)")
    campaign.add_argument("--payload-timeout", type=float, default=0.0,
                          help="seconds a pool payload may run before it is "
                               "declared hung and its pool abandoned "
                               "(0 disables the watchdog)")
    campaign.add_argument("--chaos", default=None,
                          metavar="SEED@RATE[@KIND,KIND]",
                          help="arm the seeded fault injector, e.g. "
                               "7@0.25 or 7@0.25@exception,crash (kinds: "
                               "exception, crash, hang, corrupt); chaos "
                               "runs are reproducible per seed")
    _add_shared_options(campaign, n_psd_default=256)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential verification of seeded random signal-flow "
             "graphs (round-trip, plan-vs-legacy, batch-vs-sequential, "
             "Ed band, incremental-vs-cold)")
    fuzz.add_argument("--count", type=int, default=50,
                      help="number of consecutive seeds to verify, "
                           "starting at --seed")
    fuzz.add_argument("--blocks", type=int, default=8,
                      help="growth operations per generated graph (the "
                           "knob the shrinker minimizes)")
    fuzz.add_argument("--single-rate", action="store_true",
                      help="generate single-rate graphs only (no "
                           "decimators / expanders)")
    fuzz.add_argument("--samples", type=int, default=2304,
                      help="stimulus length of the bitwise simulation "
                           "checks")
    fuzz.add_argument("--ed-samples", type=int, default=9216,
                      help="stimulus length of the Monte-Carlo run "
                           "backing the Ed-band check")
    fuzz.add_argument("--batch-configs", type=int, default=3,
                      help="random word-length configurations per graph "
                           "in the batch-vs-sequential check")
    fuzz.add_argument("--artifacts", default=None,
                      help="directory for shrunk failure artifacts "
                           "(serialized graph + verdict per failing seed)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures as found, without minimizing "
                           "them first")
    fuzz.add_argument("--n-psd", type=int, default=None,
                      help="PSD bin count of the PSD-based checks; must "
                           "be divisible by every decimation factor (the "
                           "default is compatible with any generated "
                           "graph)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first generator seed of the run (a failure "
                           "reproduces with --seed <failing seed> "
                           "--count 1)")

    bench = commands.add_parser(
        "bench",
        help="run the tagged performance benchmarks and (optionally) "
             "check the measured speedups against the committed baseline")
    bench.add_argument("--tags", nargs="+", default=None,
                       help="run every registered benchmark carrying one "
                            "of these tags (default: smoke, unless "
                            "--names is given)")
    bench.add_argument("--names", nargs="+", default=None,
                       help="run exactly these registered benchmarks "
                            "(additionally filtered by --tags only when "
                            "--tags is passed explicitly)")
    bench.add_argument("--list", action="store_true", dest="list_benches",
                       help="print the benchmark registry and exit")
    bench.add_argument("--results", default="benchmarks/results",
                       help="directory receiving the BENCH_<name>.json "
                            "files")
    bench.add_argument("--samples", type=int, default=None,
                       help="override the per-benchmark workload size "
                            "(smoke-testing knob)")
    bench.add_argument("--check", action="store_true",
                       help="compare measured speedups against the "
                            "baseline floors; exit 1 on regression")
    bench.add_argument("--baseline", default=None,
                       help="baseline JSON with the speedup floors "
                            f"(default: {DEFAULT_BASELINE})")
    bench.add_argument("--json", action="store_true", dest="json_output",
                       help="emit the measured payloads — and, with "
                            "--check, the full measured-vs-floor diff "
                            "including warmup_s — as JSON on stdout "
                            "instead of the table")

    obs_cmd = commands.add_parser(
        "obs",
        help="summarize a saved observability trace (written by the "
             "global --trace flag)")
    obs_cmd.add_argument("trace_file",
                         help="Chrome trace-event JSON written by --trace")
    obs_cmd.add_argument("--top", type=int, default=0,
                         help="limit the per-span table to the N largest "
                              "by total time (0 shows all)")
    obs_cmd.add_argument("--metrics-file", default=None,
                         help="also summarize this metrics snapshot "
                              "(written by the global --metrics flag)")
    _add_log_level_option(obs_cmd)

    # The global observability options ride on every workload-running
    # subcommand; 'obs' reads saved traces instead of recording new ones.
    for name, subparser in commands.choices.items():
        if name != "obs":
            _add_obs_options(subparser)
    return parser


def _command_evaluate(args) -> int:
    graph = load_graph(args.system)
    evaluator = AccuracyEvaluator(graph, n_psd=args.n_psd)
    result = evaluator.estimate(args.method)
    print(f"system: {graph.name}")
    print(f"method: {result.method} (N_PSD={result.n_psd})")
    print(f"estimated output noise power: {result.power:.6e}")
    print(f"estimated mean / variance: {result.mean:.3e} / {result.variance:.6e}")
    print(f"evaluation time: {1000.0 * (result.elapsed_seconds or 0.0):.3f} ms")
    return 0


def _command_simulate(args) -> int:
    graph = load_graph(args.system)
    evaluator = AccuracyEvaluator(graph, n_psd=args.n_psd)
    stimulus = {name: uniform_white_noise(args.samples, args.amplitude,
                                          args.seed + index)
                for index, name in enumerate(graph.input_names())}
    result = evaluator.simulate(stimulus)
    print(f"system: {graph.name}")
    print(f"simulated output noise power: {result.error_power:.6e} "
          f"({result.num_samples} samples)")
    return 0


def _command_compare(args) -> int:
    graph = load_graph(args.system)
    evaluator = AccuracyEvaluator(graph, n_psd=args.n_psd)
    stimulus = {name: uniform_white_noise(args.samples, args.amplitude,
                                          args.seed + index)
                for index, name in enumerate(graph.input_names())}
    comparison = evaluator.compare(stimulus, methods=tuple(args.methods))
    table = TextTable(["method", "estimated power", "Ed [%]", "sub-one-bit?"],
                      title=f"{graph.name}: simulated power "
                            f"{comparison.simulation.error_power:.6e}")
    for name, report in comparison.reports.items():
        table.add_row(name, report.estimate.power,
                      round(report.ed_percent, 3),
                      "yes" if report.sub_one_bit else "NO")
    print(table.render())
    return 0


def _command_optimize(args) -> int:
    graph = load_graph(args.system)
    optimizer = WordLengthOptimizer(graph, method=args.method,
                                    n_psd=args.n_psd,
                                    min_bits=args.min_bits,
                                    max_bits=args.max_bits,
                                    granularity=args.granularity)
    result = optimizer.optimize(args.budget)
    table = TextTable(["signal", "fractional bits"],
                      title=f"{graph.name}: optimized word lengths "
                            f"(budget {args.budget:.3e})")
    for name, bits in sorted(result.assignment.items()):
        table.add_row(name, bits)
    print(table.render())
    print(f"estimated output noise: {result.noise_power:.6e}")
    print(f"total fractional bits: {result.total_bits}")
    print(f"analytical evaluations: {result.evaluations}")
    return 0


def _command_sweep(args) -> int:
    graph = load_graph(args.system)
    if args.budget_range is not None:
        loosest, tightest, count = args.budget_range
        if not count.is_integer():
            raise ValueError(
                f"--budget-range COUNT must be a whole number, got {count}")
        budgets = budget_range(loosest, tightest, int(count))
    else:
        budgets = args.budgets
    if len(budgets) == 0:
        print("error: empty budget range (0 points requested)",
              file=sys.stderr)
        return 1
    front = sweep_noise_budgets(
        graph, budgets,
        method=args.method, n_psd=args.n_psd,
        min_bits=args.min_bits, max_bits=args.max_bits,
        granularity=args.granularity,
        validate_samples=args.validate_samples, seed=args.seed)
    if not front.points:
        print("error: no budget in the sweep is reachable within "
              f"{args.max_bits} fractional bits", file=sys.stderr)
        return 1
    print(front.describe())
    print(f"pareto-optimal points: {len(front.pareto_points())} "
          f"of {len(front.points)}")
    return 0


def _parse_scenario_argument(text: str):
    """Parse ``name`` or ``name:key=value,key=value`` into a ScenarioSpec."""
    from repro.campaign import ScenarioSpec

    name, _, tail = text.partition(":")
    params: dict = {}
    if tail:
        for pair in tail.split(","):
            key, separator, raw = pair.partition("=")
            if not separator or not key:
                raise ValueError(
                    f"bad scenario parameter {pair!r} in {text!r}; expected "
                    "name:key=value,key=value")
            try:
                value: object = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
            params[key] = value
    return ScenarioSpec(name, params)


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _command_campaign(args) -> int:
    from repro.campaign import (
        CampaignReport,
        CampaignSpec,
        FaultInjector,
        RetryPolicy,
        expand_campaign,
        get_family,
        run_campaign,
        scenario_names,
    )

    if args.list_scenarios:
        table = TextTable(["scenario", "parameters (defaults)", "description"],
                          title="registered scenario families")
        for name in scenario_names():
            family = get_family(name)
            defaults = ", ".join(f"{key}={value}" for key, value
                                 in sorted(family.defaults.items()))
            table.add_row(name, defaults, family.description)
        print(table.render())
        return 0
    if not args.scenarios:
        print("error: no scenarios given (see --list-scenarios)",
              file=sys.stderr)
        return 1

    scenarios = tuple(_parse_scenario_argument(text)
                      for text in args.scenarios)
    spec = CampaignSpec(scenarios=scenarios, methods=tuple(args.methods),
                        wordlengths=tuple(args.wordlengths),
                        n_psd=args.n_psd,
                        samples=args.samples or None,
                        seed=args.seed)
    if args.max_retries < 0:
        print("error: --max-retries must be non-negative", file=sys.stderr)
        return 1
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 1
    policy = RetryPolicy(
        max_attempts=args.max_retries + 1,
        payload_timeout=args.payload_timeout or None,
        seed=args.seed)
    injector = FaultInjector.parse(args.chaos) if args.chaos else None
    result = run_campaign(spec, cache_dir=args.cache_dir,
                          output_path=args.output,
                          workers=(_usable_cores() if args.workers is None
                                   else args.workers),
                          retry_policy=policy, fault_injector=injector)
    report = CampaignReport(result.records)
    print(report.describe())
    print(f"cache: {result.cache_hits} hits / {result.total_jobs} jobs "
          f"({100.0 * result.hit_rate:.1f}%)")
    if result.skipped_unsupported:
        print(f"skipped {result.skipped_unsupported} unsupported grid "
              "point(s) (single-rate methods on multirate scenarios)")
    print(f"campaign time: {result.elapsed_seconds:.3f} s "
          f"({result.computed} computed, workers={result.workers})")
    if result.retries or result.bisections or result.pool_rebuilds:
        print(f"faults: {result.retries} retries, {result.bisections} "
              f"bisections, {result.pool_rebuilds} pool rebuilds")
    if injector is not None:
        # The injector's ground truth for this grid, for reconciliation
        # by the chaos-smoke CI job (and anyone replaying the seed).
        _prepared, jobs, _skipped = expand_campaign(spec)
        ledger = {key: {"kind": plan.kind, "permanent": plan.permanent}
                  for key, plan in sorted(
                      injector.ledger([job.key for job in jobs]).items())}
        print("chaos ledger: " + json.dumps(ledger, sort_keys=True))
    if args.csv:
        report.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json_report:
        report.to_json(args.json_report)
        print(f"wrote {args.json_report}")
    if result.failed:
        summary = report.summary()
        print("failure summary: " + json.dumps(
            {"failed": summary["failed"], "failures": summary["failures"]},
            sort_keys=True))
        return 2
    return 0


def _command_fuzz(args) -> int:
    from repro.systems.random_graphs import COMPATIBLE_N_PSD
    from repro.verify import run_fuzz

    if args.count < 1:
        print("error: --count must be positive", file=sys.stderr)
        return 1
    if args.blocks < 0:
        print("error: --blocks must be non-negative", file=sys.stderr)
        return 1
    if args.seed < 0:
        print("error: --seed must be non-negative (generator seeds are "
              "unsigned)", file=sys.stderr)
        return 1
    for option, minimum in (("samples", 1), ("ed_samples", 1),
                            ("batch_configs", 1)):
        if getattr(args, option) < minimum:
            print(f"error: --{option.replace('_', '-')} must be at least "
                  f"{minimum}", file=sys.stderr)
            return 1
    if args.n_psd is not None and args.n_psd < 2:
        print("error: --n-psd must be at least 2", file=sys.stderr)
        return 1
    report = run_fuzz(
        range(args.seed, args.seed + args.count),
        blocks=args.blocks,
        multirate=not args.single_rate,
        artifacts_dir=args.artifacts,
        shrink=not args.no_shrink,
        n_psd=args.n_psd if args.n_psd is not None else COMPATIBLE_N_PSD,
        samples=args.samples,
        ed_samples=args.ed_samples,
        batch_configs=args.batch_configs)
    print(report.describe())
    return 0 if report.passed else 1


def _command_obs(args) -> int:
    from repro.obs.export import (
        load_metrics,
        load_trace,
        metrics_table,
        summarize_trace,
    )

    document = load_trace(args.trace_file)
    print(summarize_trace(document, top=args.top))
    if args.metrics_file:
        snapshot = load_metrics(args.metrics_file)
        print()
        print(metrics_table(snapshot["metrics"]))
    return 0


def _command_bench(args) -> int:
    import json

    from repro.bench import (
        BENCH_SCHEMA,
        baseline_diff,
        bench_entries,
        check_against_baseline,
        load_baseline,
        missing_baseline_entries,
        run_benches,
    )

    if args.list_benches:
        table = TextTable(["benchmark", "tags", "description"],
                          title="registered performance benchmarks")
        for entry in bench_entries():
            table.add_row(entry.name, ", ".join(entry.tags),
                          entry.description)
        print(table.render())
        return 0
    if args.samples is not None and args.samples < 256:
        print("error: --samples must be at least 256", file=sys.stderr)
        return 1
    # The smoke-tag default only applies to tag-driven selection; an
    # explicit --names list stands on its own unless --tags was also
    # passed explicitly.
    tags = args.tags if args.tags is not None else (
        None if args.names else ["smoke"])
    entries = bench_entries(tags=tags, names=args.names)
    if not entries:
        print("error: no registered benchmark matches the requested tags "
              f"{tags} / names {args.names}", file=sys.stderr)
        return 1
    payloads = run_benches(entries, args.results, samples=args.samples)
    if not args.json_output:
        table = TextTable(["benchmark", "speedups", "s"],
                          title="simulation-engine benchmarks (reference "
                                "loops vs the default)")
        for payload in payloads:
            speedups = ", ".join(f"{key} {value:.1f}x" for key, value
                                 in sorted(payload["speedup"].items()))
            table.add_row(payload["name"], speedups,
                          round(sum(payload["seconds"].values()), 3))
        print(table.render())
        print(f"wrote {len(payloads)} BENCH_*.json file(s) under "
              f"{args.results}")
    if not args.check:
        if args.json_output:
            print(json.dumps({"schema": BENCH_SCHEMA, "checked": False,
                              "results_dir": args.results,
                              "payloads": payloads},
                             indent=2, sort_keys=True))
        return 0
    baseline_path = args.baseline or DEFAULT_BASELINE
    baseline = load_baseline(baseline_path)
    missing = missing_baseline_entries(payloads, baseline)
    regressions = check_against_baseline(payloads, baseline)
    ok = not missing and not regressions
    if args.json_output:
        # The machine-readable check report: the raw payloads (their
        # warmup_s included) plus one diff row per floored key, so CI can
        # graph margins instead of re-parsing the human table.
        print(json.dumps({"schema": BENCH_SCHEMA, "checked": True,
                          "baseline": str(baseline_path),
                          "results_dir": args.results,
                          "payloads": payloads,
                          "diff": baseline_diff(payloads, baseline),
                          "missing_baseline": missing,
                          "regressions": regressions,
                          "ok": ok},
                         indent=2, sort_keys=True))
        return 0 if ok else 1
    for name in missing:
        # A measured bench without a committed floor must fail with a
        # line naming the file and key to add, not a KeyError later.
        print(f"error: {baseline_path}: no baseline entry "
              f"floors.{name} for registered benchmark {name!r} — "
              "commit its speedup floor(s) before gating with --check",
              file=sys.stderr)
        return 1
    if regressions:
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        return 1
    print(f"speedups at or above every baseline floor ({baseline_path})")
    return 0


_COMMANDS = {
    "evaluate": _command_evaluate,
    "simulate": _command_simulate,
    "compare": _command_compare,
    "optimize": _command_optimize,
    "sweep": _command_sweep,
    "campaign": _command_campaign,
    "fuzz": _command_fuzz,
    "bench": _command_bench,
    "obs": _command_obs,
}


def _configure_logging(level_name: str | None) -> None:
    """Wire the root logger when (and only when) --log-level was given.

    The default output of every command is byte-stable; leaving logging
    unconfigured without the flag keeps it that way (warnings still reach
    stderr through logging's last-resort handler).
    """
    if level_name is None:
        return
    import logging

    logging.basicConfig(level=getattr(logging, level_name.upper()),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def main(argv=None) -> int:
    """Entry point (returns a process exit code)."""
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "log_level", None))
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    try:
        if trace_path is None and metrics_path is None:
            return _COMMANDS[args.command](args)
        # --trace / --metrics turn the no-op observability layer on for
        # exactly one command: the whole dispatch runs under a root
        # cli.<command> span (so a trace covers the full wall time) and
        # the session is exported after the command returns, even on a
        # nonzero exit status.
        from repro import obs
        from repro.obs.export import write_metrics, write_trace

        with obs.observe(trace=trace_path is not None) as session:
            with obs.span(f"cli.{args.command}"):
                status = _COMMANDS[args.command](args)
        if trace_path is not None:
            write_trace(trace_path, session)
            print(f"wrote {trace_path}")
        if metrics_path is not None:
            write_metrics(metrics_path, session)
            print(f"wrote {metrics_path}")
        return status
    except (OSError, ValueError, KeyError, NotImplementedError) as error:
        # NotImplementedError: a method that does not cover the system,
        # e.g. a single-rate analytical method on a multirate graph.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
