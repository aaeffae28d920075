"""Run one repro command under the benchmark's per-layer tracer.

Usage::

    python e2ebench/traced.py --report R.json --metrics M.json cli ARGS...
    python e2ebench/traced.py --report R.json --metrics M.json script PATH ARGS...

The tracer lives entirely in the benchmark: it imports the package (as a
``cli.import`` span), replaces each layer's public functions (listed in
``TARGETS``) with timing wrappers at every module, class or module-level
table that binds them, and then runs the command in this process.  Every
wrapped call is a span; a span's self time is its duration minus the time
covered by its child spans, so the self times of all spans plus the
root's own time add up to the root span exactly.  The root's own time
(this script's work, and the body of a script outside any wrapped call)
is the unattributed part.

``cli`` commands get ``--metrics M.json`` appended, so the counters come
from the CLI's own metrics snapshot.  Scripts have no such flag; they run
under the same ``repro.obs.observe`` session the CLI flag opens, and the
snapshot is written with the same exporter.

The report (``--report``) holds the root duration, the root's own time,
and per-group self time, inclusive time and call counts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

# (group, "module:qualname") of every traced public call.  The layer of a
# group is its first dotted component; groups whose metrics the benchmark
# reports are named like the metric (``sfg.compile_plan`` ->
# ``sfg.compile_plan_s`` / ``sfg.compile_plan_calls``), the others only
# attribute self time to their layer.
TARGETS = (
    ("cli.main", "repro.cli:main"),
    ("sfg.compile_plan", "repro.sfg.plan:compile_plan"),
    ("sfg.requantize", "repro.sfg.plan:CompiledPlan.requantize"),
    ("sfg.run", "repro.sfg.plan:CompiledPlan.run"),
    ("sfg.run", "repro.sfg.plan:CompiledPlan.run_pair"),
    ("sfg.load_graph", "repro.sfg.serialization:load_graph"),
    ("analysis.evaluate_psd", "repro.analysis.psd_method:evaluate_psd"),
    ("analysis.evaluate_batch", "repro.analysis.psd_method:evaluate_psd_batch"),
    ("analysis.evaluate_batch",
     "repro.analysis.agnostic_method:evaluate_agnostic_batch"),
    ("analysis.evaluate_batch", "repro.analysis.flat_method:evaluate_flat_batch"),
    ("analysis.estimate", "repro.analysis.evaluator:AccuracyEvaluator.estimate"),
    ("analysis.compare", "repro.analysis.evaluator:AccuracyEvaluator.compare"),
    ("analysis.simulate", "repro.analysis.evaluator:AccuracyEvaluator.simulate"),
    ("sim.evaluate_batch",
     "repro.analysis.simulation_method:SimulationEvaluator.evaluate_batch"),
    ("sim.error_signal",
     "repro.analysis.simulation_method:SimulationEvaluator.error_signal"),
    ("sim.evaluate",
     "repro.analysis.simulation_method:SimulationEvaluator.evaluate"),
    ("simkernel.iir_df1_fixed", "repro.simkernel.iir:iir_df1_fixed"),
    ("simkernel.fixed_fft", "repro.simkernel.fft:fixed_fft_forward"),
    ("simkernel.fixed_fft", "repro.simkernel.fft:fixed_fft_inverse"),
    ("simkernel.lower_plan", "repro.simkernel.codegen.lowering:lower_plan"),
    ("psd.welch", "repro.psd.estimation:welch"),
    ("psd.welch", "repro.psd.estimation:welch_batched"),
    ("systems.optimize", "repro.systems.wordlength:WordLengthOptimizer.optimize"),
    ("systems.sweep", "repro.systems.pareto:sweep_noise_budgets"),
    ("systems.dwt", "repro.systems.dwt.codec:Dwt97Codec.compare"),
    ("systems.dwt", "repro.systems.dwt.codec:Dwt97Codec.estimate_error_power"),
    ("systems.dwt", "repro.systems.dwt.codec:Dwt97Codec.estimate_output_noise"),
    ("systems.dwt", "repro.systems.dwt.codec:Dwt97Codec.simulated_error_power"),
    ("systems.dwt", "repro.systems.dwt.codec:Dwt97Codec.error_image"),
    ("systems.freq_filter",
     "repro.systems.freq_filter:FrequencyDomainFilter.compare"),
    ("campaign.cache_get", "repro.campaign.cache:ResultCache.get"),
    ("campaign.cache_put", "repro.campaign.cache:ResultCache.put"),
    ("campaign.expand", "repro.campaign.jobs:expand_campaign"),
    ("campaign.payload", "repro.campaign.runner:execute_scenario_payload"),
    ("campaign.supervisor", "repro.campaign.runner:run_campaign"),
)


class Tracer:
    """Span stack with per-group self time, inclusive time and calls."""

    def __init__(self):
        # Each open span is [child_seconds]; the bottom entry is the root.
        self.stack: list[list[float]] = [[0.0]]
        self.self_seconds: dict[str, float] = {}
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._depth: dict[str, int] = {}

    def _open(self, group: str) -> None:
        self.stack.append([0.0])
        self._depth[group] = self._depth.get(group, 0) + 1

    def _close(self, group: str, duration: float) -> None:
        children = self.stack.pop()[0]
        self.stack[-1][0] += duration
        self.self_seconds[group] = (self.self_seconds.get(group, 0.0)
                                    + duration - children)
        self.calls[group] = self.calls.get(group, 0) + 1
        self._depth[group] -= 1
        if self._depth[group] == 0:
            # Inclusive time counts only the outermost call of a group
            # (fixed_fft_inverse calls fixed_fft_forward, for example).
            self.seconds[group] = self.seconds.get(group, 0.0) + duration

    @contextlib.contextmanager
    def span(self, group: str):
        self._open(group)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(group, time.perf_counter() - start)

    def wrap(self, group: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            self._open(group)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self._close(group, time.perf_counter() - start)

        return traced

    def finish(self, root_seconds: float) -> dict:
        return {"root_s": root_seconds,
                "root_self_s": root_seconds - self.stack[0][0],
                "self_s": self.self_seconds, "group_s": self.seconds,
                "calls": self.calls}


def import_package() -> None:
    """Import every ``repro`` module, so that modules a command would
    import lazily already hold the wrapped functions."""
    import repro
    import repro.cli  # noqa: F401

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every target wherever it is bound; return bindings per target.

    Methods are replaced on their class.  Functions are replaced by
    identity in every ``repro`` module namespace and in the dicts and lists
    those namespaces hold (dispatch tables), which catches
    ``from ... import`` call sites too.
    """
    bindings: dict[str, int] = {}
    # Keyed by id(): each wrapper holds its original, so the ids stay valid.
    wrappers: dict[int, tuple] = {}
    for group, target in TARGETS:
        owner, name = _resolve(target)
        if isinstance(owner, type):
            setattr(owner, name, tracer.wrap(group, owner.__dict__[name]))
            bindings[target] = 1
        else:
            original = getattr(owner, name)
            wrappers[id(original)] = (target, tracer.wrap(group, original))
            bindings[target] = 0

    def replacement(value):
        entry = wrappers.get(id(value))
        if entry is None:
            return None
        bindings[entry[0]] += 1
        return entry[1]

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for container in [vars(module)] + [
                value for key, value in vars(module).items()
                if isinstance(value, (dict, list)) and not key.startswith("__")]:
            keys = container.keys() if isinstance(container, dict) \
                else range(len(container))
            for key in list(keys):
                wrapped = replacement(container[key])
                if wrapped is not None:
                    container[key] = wrapped
    return bindings


def _run_script(path: str, args: list[str], metrics_path: str) -> int:
    from repro import obs
    from repro.obs.export import write_metrics

    sys.argv = [path, *args]
    status = 0
    with obs.observe(trace=False) as session:
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exit_:
            status = 0 if exit_.code is None else (
                exit_.code if isinstance(exit_.code, int) else 1)
    write_metrics(metrics_path, session)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--metrics", required=True)
    parser.add_argument("kind", choices=("cli", "script"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    tracer = Tracer()
    with tracer.span("cli.import"):
        import_package()
    bindings = install(tracer)
    unbound = sorted(target for target, count in bindings.items() if count == 0)
    if unbound:
        print(f"traced: no binding found for {unbound}", file=sys.stderr)
        return 3

    if args.kind == "cli":
        import repro.cli

        status = repro.cli.main([*args.rest, "--metrics", args.metrics])
    else:
        status = _run_script(args.rest[0], args.rest[1:], args.metrics)
    report = tracer.finish(time.perf_counter() - _T0)
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
