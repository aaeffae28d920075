"""Output checks of the end-to-end benchmark.

Each check takes a command's parsed output and returns a list of failure
messages (empty when the output is correct).  A command whose exit status
is not 0, or whose output fails a check, counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import re

# The paper's sub-one-bit band on Ed, in percent.
ED_LOW, ED_HIGH = -300.0, 75.0
PAPER_ED_LIMIT = 75.0


def campaign_cold(report: dict, expected_keys: list) -> list[str]:
    """First pass: every expected job ran once, no failures, Ed in band."""
    failures = []
    summary = report["summary"]
    if summary["failed"]:
        failures.append(f"cold pass quarantined {summary['failed']} job(s)")
    keys = sorted(record["key"] for record in report["records"])
    if keys != sorted(expected_keys):
        failures.append(f"cold pass records {len(keys)} jobs, expected the "
                        f"{len(expected_keys)} keys the grid expands to")
    if summary["cached"]:
        failures.append(f"cold pass served {summary['cached']} job(s) from "
                        "a cache that should be empty")
    for row in report["rows"]:
        if row["method"] != "psd":
            continue
        ed = row["ed_percent"]
        if ed is None or not ED_LOW < ed < ED_HIGH:
            failures.append(f"{row['scenario']} W={row['wordlength']}: psd "
                            f"Ed {ed} outside ({ED_LOW}, {ED_HIGH}) %")
    return failures


def campaign_warm(report: dict, cold: dict) -> list[str]:
    """Second pass: all hits, and record powers bitwise equal to the cold
    pass's."""
    failures = []
    summary = report["summary"]
    if summary["cached"] != summary["jobs"] or summary["jobs"] != len(cold["records"]):
        failures.append(f"warm pass served {summary['cached']}/"
                        f"{summary['jobs']} jobs from the cache, expected "
                        f"{len(cold['records'])}/{len(cold['records'])}")
    cold_power = {record["key"]: record["power"] for record in cold["records"]}
    for record in report["records"]:
        was = cold_power.get(record["key"])
        if was is None or float(was).hex() != float(record["power"]).hex():
            failures.append(f"warm record {record['key'][:12]} power "
                            f"{record['power']!r} != cold {was!r}")
    return failures


_ASSIGNMENT_ROW = re.compile(r"^(\S+)\s*\|\s*(\d+)\s*$")


def optimize(stdout: str, budget: float) -> tuple[list[str], str]:
    """``repro optimize``: noise within budget.  Also returns a digest of
    the assignment, which must repeat across iterations of one seed."""
    failures = []
    noise = re.search(r"^estimated output noise: (\S+)$", stdout, re.M)
    if noise is None:
        failures.append("optimize printed no estimated output noise")
    elif not float(noise.group(1)) <= budget:
        failures.append(f"optimize noise {noise.group(1)} > budget {budget}")
    rows = sorted(match.groups() for match in
                  map(_ASSIGNMENT_ROW.match, stdout.splitlines()) if match)
    if not rows:
        failures.append("optimize printed no word-length assignment")
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return failures, digest


_SWEEP_ROW = re.compile(r"^(\S+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*\|\s*(\d+)\s*\|")


def sweep(stdout: str, count: int) -> list[str]:
    """``repro sweep``: ``count`` points, and total bits never decrease as
    the budgets tighten."""
    points = sorted(((float(budget), int(bits)) for budget, bits, _power, _evals
                     in (match.groups() for match in
                         map(_SWEEP_ROW.match, stdout.splitlines()) if match)),
                    reverse=True)
    failures = []
    if len(points) != count:
        failures.append(f"sweep yielded {len(points)}/{count} points")
    for (loose, loose_bits), (tight, tight_bits) in zip(points, points[1:]):
        if tight_bits < loose_bits:
            failures.append(f"total bits fall from {loose_bits} to "
                            f"{tight_bits} as the budget tightens from "
                            f"{loose:.3e} to {tight:.3e}")
    return failures


def _eds_in_band(label: str, eds) -> list[str]:
    return [f"{label}: Ed {ed!r} % not within +/-{PAPER_ED_LIMIT} %"
            for ed in eds if not abs(ed) < PAPER_ED_LIMIT]


def table2(result: dict) -> list[str]:
    """Every Ed sub-one-bit; on the frequency filter the PSD method at
    N_PSD=1024 beats the PSD-agnostic method."""
    failures = (_eds_in_band("table2 ff", result["ff"].values())
                + _eds_in_band("table2 dwt", result["dwt"].values()))
    ff = result["ff"]
    if not abs(ff["max_acc"]) < abs(ff["agnostic"]):
        failures.append(f"table2 ff: |Ed(N_PSD=1024)| = {abs(ff['max_acc'])} "
                        f"not below |Ed_agnostic| = {abs(ff['agnostic'])}")
    return failures


def fig5(result: dict, sweep_points) -> list[str]:
    """Every Ed of both series sub-one-bit, one per N_PSD."""
    failures = (_eds_in_band("fig5 ff", result["ff"])
                + _eds_in_band("fig5 dwt", result["dwt"]))
    if list(result["n_psd"]) != list(sweep_points):
        failures.append(f"fig5 swept N_PSD {result['n_psd']}, expected "
                        f"{list(sweep_points)}")
    return failures
