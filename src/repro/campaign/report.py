"""Aggregation of campaign records into accuracy / runtime tables.

The runner emits flat per-job records; this module joins each analytical
estimate against the matching Monte-Carlo record (same scenario
signature, same wordlength, same seed), computes the paper's ``Ed``
deviation and renders the result as a text table, CSV or JSON.  The JSON
export also carries a machine-readable summary (job counts, cache hit
rate, per-method Ed statistics) consumed by the CI campaign smoke job.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from repro.analysis.evaluator import ANALYTICAL_METHODS
from repro.analysis.metrics import ed_deviation, is_sub_one_bit
from repro.campaign.jobs import STATUS_FAILED, STATUS_OK
from repro.utils.tables import TextTable

#: Columns of the flattened row/CSV form, in order.
ROW_FIELDS = ("scenario", "signature", "wordlength", "method", "power",
              "simulated_power", "ed_percent", "sub_one_bit", "cached",
              "elapsed_ms", "status")


def _join_key(record: dict) -> tuple:
    """Key matching an analytical record to its simulation reference.

    Includes the stimulus (canonical form) so that record sets mixing
    several stimulus configurations — e.g. a JSONL file accumulated
    across campaigns with different ``--samples`` — never join an
    estimate against a foreign simulation.
    """
    stimulus = record.get("stimulus")
    return (record["signature"], record["wordlength"],
            record.get("seed", 0),
            json.dumps(stimulus, sort_keys=True) if stimulus else None)


class CampaignReport:
    """Joined, render-ready view of a campaign's records."""

    def __init__(self, records: list):
        self.records = list(records)
        self._simulated: dict[tuple, dict] = {
            _join_key(r): r
            for r in self.records
            if r["method"] == "simulation" and "power" in r}
        self._rows: list | None = None

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "CampaignReport":
        """Load a report from the runner's JSONL stream.

        Later records win over earlier ones with the same key, so a file
        appended to by an interrupted run plus its resume reads cleanly.
        """
        by_key: dict[str, dict] = {}
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if line:
                record = json.loads(line)
                by_key[record["key"]] = record
        return cls(list(by_key.values()))

    # ------------------------------------------------------------------
    # Joined rows
    # ------------------------------------------------------------------
    def _simulation_for(self, record: dict) -> dict | None:
        return self._simulated.get(_join_key(record))

    def rows(self) -> list[dict]:
        """One flattened row per record (see :data:`ROW_FIELDS`).

        Analytical rows carry ``Ed`` against the matching simulation
        record when the campaign included one.  The join runs once;
        describe / summary / export all reuse it.
        """
        if self._rows is not None:
            return list(self._rows)
        rows = []
        for record in self.records:
            failed = record.get("status") == STATUS_FAILED
            row = {
                "scenario": record["scenario"],
                "signature": record["signature"],
                "wordlength": record["wordlength"],
                "method": record["method"],
                "power": record.get("power"),
                "simulated_power": None,
                "ed_percent": None,
                "sub_one_bit": None,
                "cached": bool(record.get("cached", False)),
                "elapsed_ms": 1000.0 * record.get("elapsed_seconds", 0.0),
                "status": STATUS_FAILED if failed else STATUS_OK,
            }
            if not failed and record["method"] in ANALYTICAL_METHODS:
                simulated = self._simulation_for(record)
                if simulated is not None and simulated["power"] > 0:
                    ed = ed_deviation(simulated["power"], record["power"])
                    row["simulated_power"] = simulated["power"]
                    row["ed_percent"] = 100.0 * ed
                    row["sub_one_bit"] = is_sub_one_bit(ed)
            rows.append(row)
        self._rows = rows
        return list(rows)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Machine-readable roll-up (used by the CI smoke assertions)."""
        rows = self.rows()
        cached = sum(1 for row in rows if row["cached"])
        failed = sum(1 for row in rows if row["status"] == STATUS_FAILED)
        failures = [
            {"key": record["key"], "scenario": record["scenario"],
             "method": record["method"],
             "wordlength": record["wordlength"],
             "error_type": record.get("error_type"),
             "error_message": record.get("error_message"),
             "attempts": record.get("attempts")}
            for record in self.records
            if record.get("status") == STATUS_FAILED]
        methods: dict[str, dict] = {}
        for method in sorted({row["method"] for row in rows}):
            method_rows = [row for row in rows if row["method"] == method]
            entry = {
                "jobs": len(method_rows),
                "total_elapsed_ms": float(sum(r["elapsed_ms"]
                                              for r in method_rows)),
            }
            eds = [row["ed_percent"] for row in method_rows
                   if row["ed_percent"] is not None]
            if eds:
                entry["ed_mean_abs_percent"] = float(np.mean(np.abs(eds)))
                entry["ed_max_abs_percent"] = float(np.max(np.abs(eds)))
                entry["all_sub_one_bit"] = all(
                    row["sub_one_bit"] for row in method_rows
                    if row["sub_one_bit"] is not None)
            methods[method] = entry
        return {
            "jobs": len(rows),
            "cached": cached,
            "computed": len(rows) - cached - failed,
            "failed": failed,
            "failures": failures,
            "hit_rate": cached / len(rows) if rows else 0.0,
            "scenarios": sorted({row["scenario"] for row in rows}),
            "wordlengths": sorted({row["wordlength"] for row in rows}),
            "methods": methods,
        }

    def describe(self) -> str:
        """Render the joined rows as the text table printed by the CLI."""
        summary = self.summary()
        table = TextTable(
            ["scenario", "W", "method", "est. power", "sim. power",
             "Ed [%]", "sub-1-bit?", "cached?", "ms"],
            title=(f"campaign: {summary['jobs']} jobs over "
                   f"{len(summary['scenarios'])} scenario(s), "
                   f"{summary['cached']} served from cache"
                   + (f", {summary['failed']} FAILED"
                      if summary["failed"] else "")))
        for row in self.rows():
            table.add_row(
                row["scenario"], row["wordlength"], row["method"],
                "FAILED" if row["status"] == STATUS_FAILED
                else f"{row['power']:.3e}",
                "-" if row["simulated_power"] is None
                else f"{row['simulated_power']:.3e}",
                "-" if row["ed_percent"] is None
                else round(row["ed_percent"], 2),
                "-" if row["sub_one_bit"] is None
                else ("yes" if row["sub_one_bit"] else "NO"),
                "yes" if row["cached"] else "no",
                round(row["elapsed_ms"], 3))
        return table.render()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self, path: str | Path) -> None:
        """Write the joined rows as CSV."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as stream:
            writer = csv.DictWriter(stream, fieldnames=ROW_FIELDS)
            writer.writeheader()
            writer.writerows(self.rows())

    def to_json(self, path: str | Path) -> None:
        """Write summary + joined rows + raw records as one JSON file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"summary": self.summary(), "rows": self.rows(),
                   "records": self.records}
        path.write_text(json.dumps(payload, indent=2) + "\n")
