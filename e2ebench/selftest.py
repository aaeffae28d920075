"""Self-tests of the end-to-end benchmark.

Usage (from the repository root; takes about a minute)::

    python3 e2ebench/selftest.py

1. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   prints.
2. Each workload runs at its smallest size, untraced and traced, and
   prints every named metric with its unit and no failed operation; the
   traced layer self times add up to each command's wall time.
3. Tampered outputs count as failed operations: a flipped campaign record
   power, a psd Ed outside the band, a non-monotone Pareto front and a
   paper Ed outside the band.

Exits 1 on the first failed expectation.  The file name keeps it out of
the repository's pytest collection.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = [(metric["name"], metric["unit"]) for metric in spec[key]]
        expect(listed == list(names),
               f"BENCHMARK.json {key} differs from run.py: "
               f"{sorted(set(listed) ^ set(names))}")


def check_workload(name: str, traced: bool) -> None:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(int(traced)),
         "--scale", "small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    label = f"{name} (trace {int(traced)})"
    expect(done.returncode == 0, f"{label} exited {done.returncode}: "
                                 f"{done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: {result}")
    expected = run.PER_LAYER if traced else run.END_TO_END
    printed = [(metric, entry["unit"])
               for metric, entry in result["metrics"].items()]
    expect(printed == list(expected), f"{label}: metrics {printed}")
    for metric, entry in result["metrics"].items():
        expect(isinstance(entry["value"], (int, float)),
               f"{label}: {metric} = {entry['value']!r}")
    if traced:
        for wall, total in re.findall(r"wall (\S+) s = self (\S+) s",
                                      done.stdout):
            expect(wall == total, f"{label}: layer self times sum to "
                                  f"{total} s, wall time {wall} s")
    print(f"ok {label}: {len(printed)} metrics")


def _edit_json(path: Path, edit) -> None:
    document = json.loads(path.read_text())
    edit(document)
    path.write_text(json.dumps(document))


def _flip_power(report: dict) -> None:
    record = report["records"][0]
    record["power"] = math.nextafter(record["power"], math.inf)


def _psd_ed_out_of_band(report: dict) -> None:
    row = next(row for row in report["rows"] if row["method"] == "psd")
    row["ed_percent"] = 80.0


def _swap_front(stdout: str) -> str:
    # Give the tightest budget fewer bits than the loosest one.
    rows = [line for line in stdout.splitlines()
            if run.checks._SWEEP_ROW.match(line)]
    first, last = rows[0], rows[-1]
    first_bits, last_bits = (line.split("|")[1] for line in (first, last))
    return (stdout.replace(first, first.replace(first_bits, last_bits, 1))
            .replace(last, last.replace(last_bits, first_bits, 1)))


def _table2_out_of_band(result: dict) -> None:
    result["dwt"]["max_acc"] = 76.0


def tampered(base, index: int, edit_file=None, edit_stdout=None):
    """A workload whose ``index``-th command output is edited before its
    check."""

    class Tampered(base):
        def check(self, position, stdout, directory):
            if position == index:
                if edit_file is not None:
                    _edit_json(directory / edit_file[0], edit_file[1])
                if edit_stdout is not None:
                    stdout = edit_stdout(stdout)
            return super().check(position, stdout, directory)

    return Tampered


def check_tampering() -> None:
    cases = (
        ("campaign", tampered(run.Campaign, 1, ("warm.json", _flip_power)),
         "flipped campaign record power"),
        ("campaign", tampered(run.Campaign, 0,
                              ("cold.json", _psd_ed_out_of_band)),
         "campaign psd Ed outside the band"),
        ("wordlength", tampered(run.Wordlength, 1, edit_stdout=_swap_front),
         "non-monotone Pareto front"),
        ("paper", tampered(run.Paper, 0,
                           ("table2.json", _table2_out_of_band)),
         "paper Ed outside the band"),
    )
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        runner = run.Runner()
        inputs = {}
        for name, workload_class, what in cases:
            if name not in inputs:
                inputs[name], _ = run.setup(runner, name, 3, "small", work, 1)
            size = run.SIZES["small"][name]
            clean, dirty = run.Tally(), run.Tally()
            for tally, cls in ((clean, run.WORKLOADS[name]),
                               (dirty, workload_class)):
                directory = Path(tempfile.mkdtemp(dir=work))
                run.run_commands(runner, cls(size, 3, inputs[name]), tally,
                                 directory, run.untraced_argv)
            expect(clean.failed == 0, f"{what}: clean run failed")
            expect(dirty.failed == 1 and dirty.attempted == 2,
                   f"{what}: {dirty.failed} of {dirty.attempted} operations "
                   "failed, expected exactly the tampered one")
            print(f"ok tampered: {what} counts as a failed operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    check_benchmark_json()
    for name in run.WORKLOADS:
        for traced in (False, True):
            check_workload(name, traced)
    check_tampering()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
