"""Output checks, independent of ssdkit's own code.

Suite commands are checked against a pinned table of check ids and statuses
(`suite_checks.json`: 285 checks, all passing except the 4 skipped in
`lemma_2_13`). The file commands are recomputed by numpy brute force at
seeded sample points. Each check returns a list of problems; an empty list
means the command's output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PINNED = Path(__file__).with_name("suite_checks.json")
SAMPLES = 64
RTOL = 1e-9


def load_pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def suite_rows(doc):
    return [[c["id"], c["status"]] for rep in doc["reports"] for c in rep["checks"]]


def check_suite(out: Path, suite, pinned):
    path = out / f"{suite}.json"
    if not path.is_file():
        return [f"{suite}: no report at {path}"]
    rows = suite_rows(json.loads(path.read_text(encoding="utf-8")))
    if rows != pinned[suite]:
        bad = [f"{r} != {p}" for r, p in zip(rows, pinned[suite]) if r != p]
        return [f"{suite}: {len(rows)} checks vs {len(pinned[suite])} pinned; "
                + "; ".join(bad[:3])]
    return []


def read_gridfn_csv(path):
    """(nodes, values, lower, upper, num) from ssdkit's grid-function CSV."""
    lines = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    dim = int(lines[0].split(",")[1])
    lo, hi, num = np.zeros(dim), np.zeros(dim), np.zeros(dim, dtype=int)
    for ln in lines[1:1 + dim]:
        _, ax, a, b, n = ln.split(",")
        lo[int(ax)], hi[int(ax)], num[int(ax)] = float(a), float(b), int(n)
    values = np.array([float(tok) for tok in lines[2 + dim:]])
    axes = [np.linspace(lo[i], hi[i], num[i]) for i in range(dim)]
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    if values.shape[0] != nodes.shape[0]:
        raise ValueError(f"{path}: {values.shape[0]} values for {nodes.shape[0]} nodes")
    return nodes, values, lo, hi, num


def _close(got, want):
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def check_conjugate(out: Path, inputs, rng):
    nodes, values, lo, hi, num = read_gridfn_csv(out / "conjugate.csv")
    problems = []
    n = int(round(np.sqrt(inputs.fn_values.shape[0])))
    if list(num) != [n, n]:
        problems.append(f"conjugate grid is {list(num)}, expected the input's {n} x {n}")
    f = inputs.fn_values.reshape(n, n)
    h = inputs.fn_grid[n, 0] - inputs.fn_grid[0, 0]
    for ax in range(2):
        d = np.diff(f, axis=ax) / h
        if lo[ax] > d.min() or hi[ax] < d.max():
            problems.append(f"slope box axis {ax} [{lo[ax]}, {hi[ax]}] misses the "
                            f"observed slopes [{d.min()}, {d.max()}]")
    for i in rng.choice(nodes.shape[0], size=SAMPLES, replace=False):
        want = float(np.max(inputs.fn_grid @ nodes[i] - inputs.fn_values))
        if not _close(values[i], want):
            problems.append(f"conjugate at {nodes[i].tolist()}: {values[i]!r} != {want!r}")
    return problems


def check_fitzpatrick(out: Path, inputs, rng):
    problems = []
    doc = json.loads((out / "fitz_checks.json").read_text(encoding="utf-8"))
    if doc["set_size"] != len(inputs.distinct):
        problems.append(f"set_size {doc['set_size']} != {len(inputs.distinct)} distinct rows")
    nodes, values, _, _, _ = read_gridfn_csv(out / "phi.csv")
    a = inputs.distinct
    for i in rng.choice(nodes.shape[0], size=SAMPLES, replace=False):
        b = nodes[i]
        # swap pairing: pair(a, b) = a0 b1 + a1 b0 and q(a) = a0 a1
        want = float(np.max(a[:, 0] * b[1] + a[:, 1] * b[0] - a[:, 0] * a[:, 1]))
        if not _close(values[i], want):
            problems.append(f"phi at {b.tolist()}: {values[i]!r} != {want!r}")
    return problems


def check_align(out: Path, inputs, rng=None):
    doc = json.loads((out / "alignment.json").read_text(encoding="utf-8"))
    dy = inputs.distinct[:, 0] - inputs.point[0]
    dys = inputs.distinct[:, 1] - inputs.dual_point[0]
    objective = np.maximum(dy**2, dys**2) + dy * dys     # alpha = beta = 1
    best = float(np.min(objective))
    ties = np.abs(objective - best) <= RTOL * max(1.0, abs(best))
    omegas = np.abs(dy[ties])
    problems = []
    if not _close(doc["objective_min"], best):
        problems.append(f"objective_min {doc['objective_min']!r} != {best!r}")
    if not np.any(np.abs(omegas - doc["omega"]) <= RTOL * max(1.0, doc["omega"])):
        problems.append(f"omega {doc['omega']!r} not in {omegas.tolist()}")
    return problems


FILE_CHECKS = {"conjugate": check_conjugate, "fitzpatrick": check_fitzpatrick,
               "align": check_align}


def check(cmd, code, inputs, pinned, rng):
    """Problems with one command's exit code and outputs; [] when correct."""
    if code != 0:
        return [f"{cmd.name}: exit code {code}, expected 0"]
    try:
        if cmd.kind == "suite":
            return check_suite(cmd.out, cmd.suite, pinned)
        return FILE_CHECKS[cmd.kind](cmd.out, inputs, rng)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"{cmd.name}: unreadable output ({exc})"]
