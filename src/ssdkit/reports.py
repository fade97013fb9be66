"""Structured pass/fail records for every verification battery."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, doc) -> None:
    """Write `doc` as JSON indented by two, keys sorted, with a final newline:
    the one layout of every JSON file the toolkit writes."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, rows) -> None:
    """Write check rows (suite, check_id, anchor, status, worst_residual cell)
    under their header: the one layout of every check CSV the toolkit writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check_id", "anchor", "status", "worst_residual"])
        writer.writerows(rows)


def residual_cell(value) -> str:
    """CSV cell of a worst residual: empty for none, else the repr of the
    float, read back from its JSON string ("inf", "nan") when not finite."""
    return "" if value is None else repr(float(value))


@dataclass
class CheckResult:
    """Outcome of one checked inequality or identity.

    `anchor` is the statement label the check certifies ("lemma_2_13a",
    "eq_2_1_3", ...) or "plumbing" for artifact-level checks.
    """

    check_id: str
    anchor: str
    status: str
    worst_residual: float | None = None
    witness: object = None
    note: str = ""

    def to_dict(self):
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "worst_residual": _jsonable(self.worst_residual),
            "witness": _jsonable(self.witness),
            "note": self.note,
        }


@dataclass
class VerifyReport:
    """One battery run: checks plus the grid/tolerances that scope its claims."""

    suite: str = ""
    checks: list = field(default_factory=list)
    grid: dict | None = None
    tolerances: dict = field(default_factory=dict)
    wall_time: float = 0.0
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    def add(self, check_id, anchor, ok, residual=None, witness=None, note="", skipped=False):
        status = SKIPPED if skipped else (PASS if ok else FAIL)
        res = None if residual is None else float(residual)
        self.checks.append(CheckResult(check_id, anchor, status, res, witness, note))
        return self.checks[-1]

    def add_worst(self, check_id, anchor, excess, witnesses, tol=0.0, note=""):
        """Record the sampled inequality excess <= tol at its worst node: the
        first argmax i of `excess` decides the verdict, max(0, excess[i]) is
        the residual and witnesses[i] the witness.  A lower bound x >= -tol
        passes -x, a two-sided one |x|, and a masked node -inf."""
        i = int(np.argmax(excess))
        worst = float(excess[i])
        return self.add(check_id, anchor, worst <= tol, residual=max(0.0, worst),
                        witness=witnesses[i], note=note)

    def check(self, check_id):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self):
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "grid": _jsonable(self.grid),
            "tolerances": _jsonable(self.tolerances),
            "wall_time": self.wall_time,
            "seed": self.seed,
            "meta": _jsonable(self.meta),
            "passed": self.passed,
        }

    def rows(self):
        """Flat (suite, id, anchor, status, residual) rows for CSV hand-off."""
        return [(self.suite, c.check_id, c.anchor, c.status, residual_cell(c.worst_residual))
                for c in self.checks]

    def summary_line(self) -> str:
        n = len(self.checks)
        bad = self.n_failed
        state = "PASS" if bad == 0 else f"FAIL ({bad}/{n})"
        return f"{self.suite}: {state} [{n} checks, {self.wall_time:.2f}s]"
