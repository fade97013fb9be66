"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
import worker
import workloads
from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _suite_doc(rows):
    return {"suite": "helix", "passed": True,
            "reports": [{"checks": [{"id": i, "status": s} for i, s in rows]}]}


class _FakeCli:
    """Stands in for ssdkit.cli: writes the pinned helix report, optionally
    with one status flipped."""

    def __init__(self, pinned, flip_in):
        self.pinned, self.flip_in = pinned, flip_in

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        rows = [list(r) for r in self.pinned["helix"]]
        if out.name == self.flip_in:
            rows[0][1] = "fail"
        (out / "helix.json").write_text(json.dumps(_suite_doc(rows)))
        return 0


def test_run_pass_counts_a_perturbed_suite_report_as_failed(tmp_path):
    pinned = oracle.load_pinned()
    cmds = [workloads.Command(name, ["verify", "--out", str(tmp_path / name)],
                              tmp_path / name, "suite", suite="helix")
            for name in ("first", "second")]
    _, _, failed, _ = worker.run_pass(_FakeCli(pinned, flip_in=""), cmds, None, pinned, 0, [])
    assert failed == 0
    problems = []
    _, _, failed, _ = worker.run_pass(_FakeCli(pinned, flip_in="second"), cmds, None,
                                   pinned, 0, problems)
    assert failed == 1
    assert "helix" in problems[0]


def test_pinned_table_matches_the_suite_registry():
    pinned = oracle.load_pinned()
    suites = [s for names in workloads.SUITE_WORKLOADS.values() for s in names]
    assert sorted(suites) == sorted(pinned)
    statuses = [s for rows in pinned.values() for _, s in rows]
    assert len(statuses) == 285
    assert [s for s in statuses if s != "pass"] == ["skipped"] * 4
    assert sum(s == "skipped" for _, s in pinned["lemma_2_13"]) == 4


def _scale_gridfn_values(path, factor):
    lines = path.read_text().splitlines()
    start = lines.index("values") + 1
    lines[start:] = [repr(float(v) * factor) for v in lines[start:]]
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path, key, change):
    doc = json.loads(path.read_text())
    doc[key] = change(doc[key])
    path.write_text(json.dumps(doc))


def test_user_files_oracle_rejects_perturbed_outputs(tmp_path):
    cli = worker.import_cli(ROOT)
    inputs = workloads.make_user_inputs(3, tmp_path)
    cmds = workloads.commands("user_files", tmp_path, inputs)
    pinned = oracle.load_pinned()
    problems = []
    _, _, failed, _ = worker.run_pass(cli, cmds, inputs, pinned, 3, problems)
    assert (failed, problems) == (0, [])

    conj, fitz, align = cmds
    perturb = [
        (conj, lambda: _scale_gridfn_values(conj.out / "conjugate.csv", 1 + 1e-6)),
        (fitz, lambda: _scale_gridfn_values(fitz.out / "phi.csv", 1 + 1e-6)),
        (fitz, lambda: _edit_json(fitz.out / "fitz_checks.json", "set_size", lambda n: n + 1)),
        (align, lambda: _edit_json(align.out / "alignment.json", "omega", lambda w: w + 1e-6)),
    ]
    for cmd, damage in perturb:
        shutil.copytree(cmd.out, tmp_path / "good")
        damage()
        assert oracle.check(cmd, 0, inputs, pinned, np.random.default_rng([3, 1])), cmd.name
        shutil.rmtree(cmd.out)
        shutil.move(tmp_path / "good", cmd.out)
        assert oracle.check(cmd, 0, inputs, pinned, np.random.default_rng([3, 1])) == []
    assert oracle.check(conj, 2, inputs, pinned, None)


def _traced_counts(seed):
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "user_files",
                          "--seed", str(seed), "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(METRICS)
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith((".calls", ".entries", ".rows_in", "_share"))}


def test_work_counts_repeat_across_runs_and_seeds():
    first = _traced_counts(1)
    assert first["positivity.dedup.rows_in"] > 0 and first["gridfn.sup.entries"] > 0
    assert _traced_counts(1) == first
    assert _traced_counts(2) == first
