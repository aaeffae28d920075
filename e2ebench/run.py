"""End-to-end benchmark of the repro command line, with a traced per-layer split.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload campaign --seed 1 --seconds 34 --trace 0
    python3 e2ebench/run.py --workload wordlength --seed 1 --seconds 34 --trace 1
    python3 e2ebench/selftest.py

Every user command runs in a fresh interpreter, so import cost counts, with
its default settings (``--workers 1``, the default simulation backend, the
default ``--n-psd``; ``REPRO_SIMD_BACKEND`` and ``REPRO_FULL_BENCH`` are
removed from the child environment).  One closed-loop client runs one
process at a time.  Workloads (sizes in ``sizes.py``):

``campaign``
    ``repro campaign`` over the 9 registered scenarios x {psd, simulation}
    x word lengths 8..20 (126 jobs): a cold pass against an empty cache
    directory (``primary_s``), then the same command against that cache
    (``secondary_s``).  The cold pass is dominated by bit-true IIR
    simulation, the warm pass by interpreter start-up and cache reads.
``wordlength``
    ``repro optimize --budget 1e-6`` (``primary_s``) and
    ``repro sweep --budget-range 1e-5 1e-8 6`` (``secondary_s``) on the
    64-branch scalability bank: analytical walks, memo cone pulls,
    ``requantize`` and ``compile_plan`` refreshes; no simulation.
``paper``
    the Table II (``primary_s``) and Fig. 5 (``secondary_s``) harness
    bodies as scripts: fixed-point FFT and DWT simulation and the N_PSD
    sweep; no IIR, cache or optimizer.

End-to-end metrics (``--trace 0``): ``setup_s`` (creating a directory and
writing the workload inputs, three times per run), ``startup_s`` (fresh
``python -c "import repro.cli"``), ``primary_s`` and ``secondary_s`` (the
workload's two commands), each the median over the run of the wall time
normalized by a reference process (see ``REFERENCE_CODE``), and
``peak_rss_mb`` (largest child resident set).  Iterations repeat while
the next one is expected to end no later than half an iteration past
``--seconds``.  The raw wall times are printed too.  A command that exits
non-zero or whose output fails a check in ``checks.py`` is a failed
operation; ``failed_ops_frac`` is printed and the result's ``failed``
counts them.

Per-layer metrics (``--trace 1``): one untraced and one traced iteration;
``traced.py`` times the public calls of each layer from outside the
package.  See ``PER_LAYER`` for the list; ``<layer>.self_s`` plus
``unattributed_s`` add up to the traced wall time of the commands.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  All files go to
``.e2ebench-work/`` under the repository root and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from sizes import SIZES  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBES = 3
# Children are killed past this point, so a run ends within 180 s.
RUN_LIMIT_S = 170.0

# A fixed program (interpreter start-up, NumPy import, a Python loop and
# NumPy array passes) run in a fresh process right before every timed
# child, and once after the last.  On a shared host the speed of fresh
# processes swings by 20-40 % for seconds to minutes at a time.  Each
# sample is divided by the mean of the references right before and after
# it, which ran in the same phase, and a run reports the median of these
# ratios scaled to REFERENCE_S (the reference's time on a quiet 2-core
# 2.0 GHz box).  The reference runs only the benchmark's own code, so a
# change to the package moves the normalized times fully.
REFERENCE_CODE = """\
import numpy as np
acc = 0
for i in range(300_000):
    acc = (acc * 31 + i) % 1_000_003
a = np.ones(4_000_000)
for _ in range(5):
    a = a * 1.0001 + 1.0
"""
REFERENCE_S = 0.25

END_TO_END = (("setup_s", "s"), ("startup_s", "s"), ("primary_s", "s"),
              ("secondary_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = ("cli", "sfg", "analysis", "sim", "simkernel", "psd", "systems",
          "campaign")
# Traced groups reported with inclusive time (_s) and calls (_calls).
TIMED_GROUPS = ("sfg.compile_plan", "sfg.requantize", "analysis.evaluate_psd",
                "analysis.evaluate_batch", "analysis.estimate",
                "sim.evaluate_batch", "sim.error_signal",
                "simkernel.iir_df1_fixed", "simkernel.fixed_fft",
                "simkernel.lower_plan", "systems.optimize", "systems.dwt",
                "campaign.cache_get", "campaign.cache_put", "campaign.expand",
                "campaign.payload")
# Counts read from the metrics snapshot: benchmark name -> program name.
SNAPSHOT_COUNTS = {
    "analysis.memo.full_walks": "memo.full_walks",
    "analysis.memo.cone_recomputes": "memo.cone_recomputes",
    "analysis.memo.steps_recomputed": "memo.steps_recomputed",
    "analysis.memo.steps_reused": "memo.steps_reused",
    "sim.reference_memo.hits": "sim.reference_memo.hits",
    "sim.reference_memo.misses": "sim.reference_memo.misses",
    "systems.optimizer.evaluations": "optimizer.evaluations",
    "campaign.cache.hits": "campaign.cache.hits",
    "campaign.cache.misses": "campaign.cache.misses",
    "campaign.retries": "campaign.retries",
    "campaign.jobs.failed": "campaign.jobs.failed",
}
PER_LAYER = (
    (("cli.import_s", "s"), ("cli.scipy_signal_import_s", "s"))
    + tuple(item for group in TIMED_GROUPS
            for item in ((f"{group}_s", "s"), (f"{group}_calls", "count")))
    + (("psd.welch_calls", "count"), ("campaign.supervisor_s", "s"))
    + tuple((name, "count") for name in SNAPSHOT_COUNTS)
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + (("unattributed_s", "s"), ("trace_overhead_s", "s"))
)


def child_env() -> dict:
    """The measured commands' environment: the defaults, the checkout's
    sources."""
    env = dict(os.environ)
    for name in ("REPRO_SIMD_BACKEND", "REPRO_FULL_BENCH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Done:
    """A finished child: exit status (None on timeout), output, wall time
    and the index of the reference run right before it, if any."""
    status: int | None
    stdout: str
    stderr: str
    seconds: float
    reference: int | None = None


class Runner:
    """Runs children one at a time, each bounded by the run's time limit,
    and keeps the wall times of the reference processes it ran."""

    def __init__(self):
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.references: list[float] = []

    def run(self, argv: list, cwd: Path, reference: bool = False) -> Done:
        """Run ``python argv``; with ``reference``, time the reference
        process right before it."""
        index = self.reference(cwd) if reference else None
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *map(str, argv)], cwd=cwd,
                                  env=self.env, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired as expired:
            return Done(None, expired.stdout or "", expired.stderr or "",
                        time.perf_counter() - start, index)
        return Done(done.returncode, done.stdout, done.stderr,
                    time.perf_counter() - start, index)

    def reference(self, cwd: Path) -> int:
        """Time one reference process; return its index."""
        done = self.run(["-c", REFERENCE_CODE], cwd)
        if done.status != 0:
            raise RuntimeError(f"reference failed: {done.stderr.strip()}")
        self.references.append(done.seconds)
        return len(self.references) - 1

    def normalized(self, dones: list[Done]) -> float:
        """Median over the samples of the wall time divided by the mean of
        the references right before and after it, scaled to REFERENCE_S."""
        refs = self.references
        return REFERENCE_S * statistics.median(
            done.seconds * 2.0 / (refs[done.reference] + refs[done.reference + 1])
            for done in dones)

    def probe(self, code: str, cwd: Path) -> float:
        """Seconds a fresh interpreter reports for ``code``'s timed part."""
        done = self.run(["-c", code], cwd)
        if done.status != 0:
            raise RuntimeError(f"probe failed: {code!r}: {done.stderr.strip()}")
        return float(done.stdout.strip().splitlines()[-1])


def _load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Campaign:
    labels = ("campaign_cold_s", "campaign_warm_s")

    def __init__(self, size: dict, seed: int, inputs: Path):
        self.size, self.seed = size, seed
        self.expected = _load_json(inputs / "expected_jobs.json")["keys"]

    def commands(self, directory: Path) -> list:
        argv = ["campaign", "--scenarios", *self.size["scenarios"],
                "--wordlengths", *self.size["wordlengths"],
                "--seed", self.seed, "--cache-dir", directory / "cache"]
        return [("cli", [*argv, "--json-report", directory / "cold.json"]),
                ("cli", [*argv, "--json-report", directory / "warm.json"])]

    def check(self, index: int, stdout: str, directory: Path) -> list:
        cold = _load_json(directory / "cold.json")
        if index == 0:
            return checks.campaign_cold(cold, self.expected)
        return checks.campaign_warm(_load_json(directory / "warm.json"), cold)


class Wordlength:
    labels = ("optimize_s", "sweep_s")

    def __init__(self, size: dict, seed: int, inputs: Path):
        self.size, self.seed, self.bank = size, seed, inputs / "bank.json"
        self.digest = None

    def commands(self, directory: Path) -> list:
        return [("cli", ["optimize", self.bank, "--budget", self.size["budget"],
                         "--seed", self.seed]),
                ("cli", ["sweep", self.bank, "--budget-range",
                         *self.size["budget_range"], "--seed", self.seed])]

    def check(self, index: int, stdout: str, directory: Path) -> list:
        if index == 1:
            return checks.sweep(stdout, self.size["budget_range"][2])
        failures, digest = checks.optimize(stdout, self.size["budget"])
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("optimize assignment differs from an earlier "
                            "iteration of the same seed")
        return failures


class Paper:
    labels = ("table2_s", "fig5_s")

    def __init__(self, size: dict, seed: int, inputs: Path):
        self.size, self.inputs = size, inputs

    def commands(self, directory: Path) -> list:
        return [("script", [BENCH / "paper_table2.py", "--inputs", self.inputs,
                            "--out", directory / "table2.json"]),
                ("script", [BENCH / "paper_fig5.py", "--inputs", self.inputs,
                            "--out", directory / "fig5.json", "--n-psd",
                            *self.size["n_psd_sweep"]])]

    def check(self, index: int, stdout: str, directory: Path) -> list:
        if index == 0:
            return checks.table2(_load_json(directory / "table2.json"))
        return checks.fig5(_load_json(directory / "fig5.json"),
                           self.size["n_psd_sweep"])


WORKLOADS = {"campaign": Campaign, "wordlength": Wordlength, "paper": Paper}


def untraced_argv(kind: str, args: list, label: str) -> list:
    return ["-m", "repro.cli", *args] if kind == "cli" else args


class Tally:
    """Attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, status, stderr: str, failures) -> None:
        self.attempted += 1
        if status != 0:
            failures = [f"exit status {status}: {stderr.strip()[-300:]}",
                        *failures]
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {label}: {failure}", file=sys.stderr)


def run_commands(runner: Runner, workload, tally: Tally, directory: Path,
                 to_argv, reference: bool = False) -> list[Done]:
    """Run and check one iteration of the workload's commands."""
    results = []
    for index, ((kind, args), label) in enumerate(
            zip(workload.commands(directory), workload.labels)):
        done = runner.run(to_argv(kind, args, label), directory, reference)
        failures = []
        if done.status == 0:
            try:
                failures = workload.check(index, done.stdout, directory)
            except (OSError, ValueError, KeyError, TypeError) as error:
                failures = [f"unreadable output: {error!r}"]
        tally.record(label, done.status, done.stderr, failures)
        results.append(done)
    return results


def setup(runner: Runner, name: str, seed: int, scale: str, run_dir: Path,
          repeats: int) -> tuple[Path, list[Done]]:
    """Write the workload inputs ``repeats`` times; return the last
    directory and the timed set-ups (creating the directory included)."""
    results = []
    for repeat in range(repeats):
        start = time.perf_counter()
        directory = Path(tempfile.mkdtemp(prefix=f"setup{repeat}-",
                                          dir=run_dir))
        made = time.perf_counter() - start
        done = runner.run(
            [BENCH / "prepare.py", name, "--seed", seed, "--scale", scale,
             "--out", directory], run_dir, reference=True)
        if done.status != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        done.seconds += made
        results.append(done)
    return directory, results


def environment(env: dict) -> dict:
    """Fingerprint printed with every result."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], **env,
            "nproc": os.cpu_count(), "executable": Path(sys.executable).name}


def describe(rows: list) -> str:
    width = max(len(row[0]) for row in rows)
    return "\n".join(f"  {name.ljust(width)}  {text}" for name, text in rows)


def measure(runner, workload, tally, run_dir, seconds, setups) -> dict:
    """Untraced iterations while they fit in ``seconds``."""
    samples = {"setup_s": setups, "startup_s": [], "primary_s": [],
               "secondary_s": []}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        directory = Path(tempfile.mkdtemp(prefix="iter-", dir=run_dir))
        done = runner.run(["-c", "import repro.cli"], directory,
                          reference=True)
        tally.record("startup", done.status, done.stderr, [])
        first, second = run_commands(
            runner, workload, tally, directory, untraced_argv, reference=True)
        for name, sample in (("startup_s", done), ("primary_s", first),
                             ("secondary_s", second)):
            samples[name].append(sample)
        shutil.rmtree(directory)
        now = time.perf_counter()
        if now - start + (now - began) / 2 > seconds:
            break
    # One more reference closes the last sample's window.
    runner.reference(run_dir)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    labels = {"primary_s": workload.labels[0],
              "secondary_s": workload.labels[1]}
    references = runner.references
    walls = {name: [done.seconds for done in dones]
             for name, dones in samples.items()}
    print("wall seconds, in order: " + json.dumps(
        {**walls, "reference": references}))
    print(f"{len(samples['primary_s'])} iteration(s); reference process "
          f"median {statistics.median(references):.4f} s, normalized to "
          f"{REFERENCE_S} s:")
    metrics = {name: runner.normalized(dones)
               for name, dones in samples.items()}
    metrics["peak_rss_mb"] = rss_mb
    rows = [(name, f"{metrics[name]:.4f} s normalized; wall median "
                   f"{statistics.median(values):.4f} s min {min(values):.4f}"
                   f" max {max(values):.4f} n={len(values)}  "
                   f"{labels.get(name, '')}")
            for name, values in walls.items()]
    rows.append(("peak_rss_mb", f"{rss_mb:.1f} MB"))
    print(describe(rows))
    return metrics


def _snapshot_counts(path: Path) -> dict:
    counts: dict[str, float] = {}
    for key, value in _load_json(path)["metrics"].items():
        name = key.split("{", 1)[0]
        if isinstance(value, (int, float)):
            counts[name] = counts.get(name, 0) + value
    return counts


def trace(runner, workload, tally, run_dir) -> dict:
    """One untraced and one traced iteration; per-layer metrics."""
    untraced_dir = Path(tempfile.mkdtemp(prefix="untraced-", dir=run_dir))
    untraced = run_commands(runner, workload, tally, untraced_dir,
                            untraced_argv)
    traced_dir = Path(tempfile.mkdtemp(prefix="traced-", dir=run_dir))

    def traced_argv(kind, args, label):
        return [BENCH / "traced.py", "--report", traced_dir / f"{label}.report",
                "--metrics", traced_dir / f"{label}.metrics", kind, *args]

    walls = [done.seconds for done in run_commands(
        runner, workload, tally, traced_dir, traced_argv)]
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
    rows = []
    for label, wall in zip(workload.labels, walls):
        if not (traced_dir / f"{label}.report").is_file():
            raise RuntimeError(f"traced {label} command left no report")
        report = _load_json(traced_dir / f"{label}.report")
        layer_self = {layer: 0.0 for layer in LAYERS}
        for group, value in report["self_s"].items():
            layer_self[group.split(".", 1)[0]] += value
        # The root's own time plus interpreter start-up and exit.
        unattributed = report["root_self_s"] + wall - report["root_s"]
        for layer, value in layer_self.items():
            metrics[f"{layer}.self_s"] += value
        metrics["unattributed_s"] += unattributed
        for group in TIMED_GROUPS:
            metrics[f"{group}_s"] += report["group_s"].get(group, 0.0)
            metrics[f"{group}_calls"] += report["calls"].get(group, 0)
        metrics["psd.welch_calls"] += report["calls"].get("psd.welch", 0)
        metrics["campaign.supervisor_s"] += report["self_s"].get(
            "campaign.supervisor", 0.0)
        counts = _snapshot_counts(traced_dir / f"{label}.metrics")
        for name, source in SNAPSHOT_COUNTS.items():
            metrics[name] += counts.get(source, 0)
        total = sum(layer_self.values()) + unattributed
        split = "  ".join(f"{layer} {value:.3f}" for layer, value
                          in sorted(layer_self.items(), key=lambda item: -item[1])
                          if value)
        rows.append((label, f"wall {wall:.3f} s = self {total:.3f} s: {split}  "
                            f"unattributed {unattributed:.3f}"))
    metrics["trace_overhead_s"] = sum(walls) - sum(done.seconds
                                                    for done in untraced)
    metrics["cli.import_s"] = statistics.median(
        runner.probe("import time; t = time.perf_counter(); import repro.cli; "
                     "print(time.perf_counter() - t)", run_dir)
        for _ in range(IMPORT_PROBES))
    metrics["cli.scipy_signal_import_s"] = statistics.median(
        runner.probe("import time, numpy; t = time.perf_counter(); "
                     "import scipy.signal; print(time.perf_counter() - t)",
                     run_dir)
        for _ in range(IMPORT_PROBES))
    print("traced self time by layer:")
    print(describe(rows))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input size (small: the self-tests' size)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # Byte-compile the sources once, as an installed package would be,
        # so no timed interpreter pays for it.
        done = runner.run(["-m", "compileall", "-q", SRC], run_dir)
        if done.status != 0:
            raise RuntimeError(f"byte-compiling failed: {done.stderr.strip()}")
        inputs, setups = setup(
            runner, args.workload, args.seed, args.scale, run_dir,
            1 if args.trace else SETUP_REPEATS)
        print("env: " + json.dumps(environment(
            _load_json(inputs / "env.json")), sort_keys=True))
        size = SIZES[args.scale][args.workload]
        workload = WORKLOADS[args.workload](size, args.seed, inputs)
        tally = Tally()
        if args.trace:
            values = trace(runner, workload, tally, run_dir)
            units = PER_LAYER
        else:
            values = measure(runner, workload, tally, run_dir, args.seconds,
                             setups)
            units = END_TO_END
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"failed_ops_frac: {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
