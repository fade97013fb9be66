#!/usr/bin/env python3
"""Run `ssdkit verify --suite all` on a list of boxes and list what fails.

Usage: python3 scripts/grid_audit.py OUT [BOX ...]

A box is a `--grid` value, "lo:hi:n,lo:hi:n", or one "lo:hi:n" triple for
the square with that triple on both axes.  With no BOX the fixed list runs:
the `-3:3:n` squares, an off-centre square, two dyadic squares, three
non-square boxes and four off-centre boxes with unequal node counts, odd
and even.  Each box's report tree goes to OUT/<box>/, so
`scripts/compare_reports.py` compares two audits box by box.

Prints each box's exit code, then one line per refusing suite and per
failing `suite:check_id` (with its count when several reports fail it), as
`ssdkit report` summarises the box's tree in its summary.json.
Exits 1 when any check fails on any box, that is when any box's `verify`
exits 1, else 0.  A refusal alone (a box that exits 2) does not count: it
names an unmet precondition, and `verify` exits 2 only when no check failed.
Every box is parsed before any runs: one that is not a valid `--grid` (a
mistyped flag such as `--out` reads as a box) exits 2 naming it, and no box runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

from ssdkit.cli import main as ssdkit_main
from ssdkit.grids import GridSpec

# the baseline's boxes, then four off-centre boxes with unequal node counts,
# odd on both axes, the first, the second and neither (drawn once with numpy's
# default_rng(2024): spans [-a, b] with a, b in 1.5..3.9, counts in 33..80)
FIXED_BOXES = [
    "-3:3:41", "-3:3:61", "-3:3:81", "-3:3:121", "-3:3:60",
    "-2:4:61", "-4:4:65", "-2:2:33",
    "-3:3:61,-2:2:41", "-4:4:81,-3:3:61", "-3:3:61,-3:3:41",
    "-2.1:3.1:37,-2:2.2:47", "-3.7:3.4:75,-3.9:1.6:40",
    "-3.6:1.6:40,-1.9:3.7:49", "-2.1:1.9:56,-2.9:3.5:62",
]


def grid_arg(box: str) -> str:
    return box if "," in box else f"{box},{box}"


def audit_box(box: str, out: Path) -> tuple[int, list]:
    """(exit code, lines) of `verify --suite all` on the box, its tree under
    `out`: a line per refusing suite, then per failing check id, read from
    the summary that `ssdkit report` writes there."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = ssdkit_main(["verify", "--suite", "all", f"--grid={grid_arg(box)}",
                            "--out", str(out)])
        ssdkit_main(["report", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    lines = [f"refused {name}: {suite['refused']}"
             for name, suite in summary["suites"].items() if "refused" in suite]
    fails = Counter(f"{row['suite']}:{row['check_id']}"
                    for row in summary["checks"] if row["status"] == "fail")
    lines += [f"fail {key}" + (f" ({n})" if n > 1 else "") for key, n in fails.items()]
    return code, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    out, boxes = Path(argv[0]), argv[1:] or FIXED_BOXES
    for box in boxes:
        try:
            GridSpec.from_string(grid_arg(box))
        except ValueError as exc:
            print(f"error: bad box {box!r}: {exc}", file=sys.stderr)
            return 2
    failed = False
    for box in boxes:
        code, lines = audit_box(box, out / box)
        print(f"{box}: exit {code}")
        for line in lines:
            print(f"  {line}")
        failed |= code == 1
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
