#!/usr/bin/env python3
"""Compare two `ssdkit verify --out` trees report by report.

Usage: python3 scripts/compare_reports.py PARENT_DIR CHANGE_DIR [--ignore-meta KEY ...]

Every JSON file at any depth of either tree is compared with the file at the
same relative path in the other, so trees of per-suite `--out` directories
compare too: check ids, statuses, residuals, witnesses, tolerances, grids
and meta must be equal, values exactly: floats by value and sign, so 0.0
and -0.0 differ.  A `wall_time` key is ignored at any depth, and so is any
meta key named with `--ignore-meta` (for keys one side adds).  Every CSV
file (the per-suite files of `verify --format csv`, `summary.csv`) is
compared the same way byte for byte, and a difference names its first
differing line.  Prints one line per difference and exits 1 if there is
any, else 0; exits 2 when the parent tree holds no JSON file, since then
nothing was compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path


def _strip(doc, ignore_meta):
    """The document without `wall_time` keys and the ignored meta keys."""
    if isinstance(doc, dict):
        out = {}
        for key, val in doc.items():
            if key == "wall_time":
                continue
            if key == "meta" and isinstance(val, dict):
                val = {k: v for k, v in val.items() if k not in ignore_meta}
            out[key] = _strip(val, ignore_meta)
        return out
    if isinstance(doc, list):
        return [_strip(v, ignore_meta) for v in doc]
    return doc


def _label(item, index):
    """A readable path step for a list entry: a check's id or a report's suite."""
    if isinstance(item, dict):
        for key in ("id", "suite"):
            if key in item:
                return f"[{index}:{item[key]}]"
    return f"[{index}]"


def diff(a, b, path=""):
    """Lines naming each place where the two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            where = f"{path}.{key}" if path else key
            if key not in a:
                out.append(f"{where}: only in change")
            elif key not in b:
                out.append(f"{where}: only in parent")
            else:
                out += diff(a[key], b[key], where)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: {len(a)} entries in parent, {len(b)} in change"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += diff(x, y, path + _label(x, i))
        return out
    if isinstance(a, float) and isinstance(b, float):
        same = repr(a) == repr(b)  # by value and sign; nan matches nan
    else:
        same = type(a) is type(b) and a == b
    return [] if same else [f"{path}: {a!r} != {b!r}"]


def csv_diff(left: Path, right: Path) -> list:
    """One line naming the first line where two CSV files differ, if any."""
    pairs = zip_longest(left.read_bytes().splitlines(keepends=True),
                        right.read_bytes().splitlines(keepends=True), fillvalue=b"")
    for no, (a, b) in enumerate(pairs, 1):
        if a != b:
            return [f"line {no}: {a.decode(errors='replace')!r} != "
                    f"{b.decode(errors='replace')!r}"]
    return []


def report_files(tree: Path, pattern: str = "*.json") -> set:
    """Paths of the files matching `pattern` at any depth under the tree,
    relative to it."""
    return {p.relative_to(tree).as_posix() for p in tree.glob(f"**/{pattern}")}


def compare_trees(parent: Path, change: Path, ignore_meta=()) -> list:
    def json_diff(left, right):
        docs = [_strip(json.loads(p.read_text(encoding="utf-8")), set(ignore_meta))
                for p in (left, right)]
        return diff(*docs)

    out = []
    for pattern, compare in (("*.json", json_diff), ("*.csv", csv_diff)):
        for name in sorted(report_files(parent, pattern) | report_files(change, pattern)):
            left, right = parent / name, change / name
            if not left.exists():
                out.append(f"{name}: only in change")
            elif not right.exists():
                out.append(f"{name}: only in parent")
            else:
                out += [f"{name}: {line}" for line in compare(left, right)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--ignore-meta", action="append", default=[], metavar="KEY",
                    help="meta key to leave out of the comparison (repeatable)")
    args = ap.parse_args(argv)
    for d in (args.parent, args.change):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    n = len(report_files(args.parent))
    if n == 0:
        print(f"no report file under {args.parent}: nothing to compare", file=sys.stderr)
        return 2
    lines = compare_trees(args.parent, args.change, args.ignore_meta)
    for line in lines:
        print(line)
    n_csv = len(report_files(args.parent, "*.csv"))
    print(f"{len(lines)} difference(s) over {n} parent report file(s) "
          f"and {n_csv} parent CSV file(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
