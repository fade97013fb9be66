import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from ssdkit.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main


@pytest.fixture
def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert main(["verify", "--suite", "helix", "--out", str(parent)]) == 0
    shutil.copytree(parent, change)
    return parent, change


def _edit(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def test_equal_trees_apart_from_wall_time(compare, trees, capsys):
    parent, change = trees

    def slower(doc):
        for rep in doc["reports"]:
            rep["wall_time"] += 1.0

    _edit(change / "helix.json", slower)
    assert compare([str(parent), str(change)]) == 0
    assert "0 difference(s)" in capsys.readouterr().out


def test_changed_residual_and_new_meta_key(compare, trees, capsys):
    parent, change = trees

    def perturb(doc):
        check = doc["reports"][0]["checks"][0]
        check["worst_residual"] = (check["worst_residual"] or 0.0) + 1e-15
        doc["reports"][0]["meta"]["extra"] = 1

    _edit(change / "helix.json", perturb)
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "worst_residual" in out and "meta.extra: only in change" in out
    assert compare([str(parent), str(change), "--ignore-meta", "extra"]) == 1
    assert "meta.extra" not in capsys.readouterr().out


def test_kernel_wall_time_ignored_but_calls_compared(compare, trees, capsys):
    parent, change = trees

    def bump(field, delta):
        def edit(doc):
            doc["reports"][0]["meta"]["kernels"][0][field] += delta
        return edit

    _edit(change / "helix.json", bump("wall_time", 1.0))
    assert compare([str(parent), str(change)]) == 0
    capsys.readouterr()
    _edit(change / "helix.json", bump("calls", 1))
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "meta.kernels[0].calls" in out and "1 difference(s)" in out


def test_missing_report_file(compare, trees, capsys):
    parent, change = trees
    (change / "helix.json").unlink()
    assert compare([str(parent), str(change)]) == 1
    assert "helix.json: only in parent" in capsys.readouterr().out


def test_signed_zero_flip_is_a_difference(compare, trees, capsys):
    parent, change = trees

    def zero(sign):
        def edit(doc):
            doc["reports"][0]["checks"][0]["worst_residual"] = sign * 0.0
        return edit

    _edit(parent / "helix.json", zero(1.0))
    _edit(change / "helix.json", zero(-1.0))
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "worst_residual: 0.0 != -0.0" in out and "1 difference(s)" in out
    _edit(change / "helix.json", zero(1.0))
    assert compare([str(parent), str(change)]) == 0


def test_per_suite_trees_compare_by_relative_path(compare, trees, capsys):
    # two per-suite `--out` directories holding files of the same name
    parent, change = trees
    for root in (parent, change):
        for sub in ("a", "b"):
            (root / sub).mkdir()
            shutil.copy(root / "helix.json", root / sub / "helix.json")
        (root / "helix.json").unlink()
    assert compare([str(parent), str(change)]) == 0
    assert "0 difference(s) over 2 parent report file(s)" in capsys.readouterr().out

    def perturb(doc):
        doc["reports"][0]["checks"][0]["status"] = "FAIL"

    _edit(change / "b" / "helix.json", perturb)
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "b/helix.json: reports[0:" in out and "a/helix.json" not in out
    (change / "b" / "helix.json").rename(change / "helix.json")
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "b/helix.json: only in parent" in out and "\nhelix.json: only in change" in out


def test_empty_parent_tree_is_refused(compare, trees, tmp_path, capsys):
    _, change = trees
    empty = tmp_path / "empty"
    empty.mkdir()
    assert compare([str(empty), str(change)]) == 2
    captured = capsys.readouterr()
    assert "difference(s)" not in captured.out and "nothing to compare" in captured.err


@pytest.fixture
def csv_trees(tmp_path):
    """A `verify --format csv` tree with its `report` summary, and a copy."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert main(["verify", "--suite", "helix", "--format", "csv", "--out", str(parent)]) == 0
    assert main(["report", "--out", str(parent)]) == 0
    shutil.copytree(parent, change)
    return parent, change


def test_equal_csv_files(compare, csv_trees, capsys):
    assert compare([str(p) for p in csv_trees]) == 0
    assert ("0 difference(s) over 2 parent report file(s) and 2 parent CSV file(s)"
            in capsys.readouterr().out)


def test_differing_csv_names_its_first_differing_line(compare, csv_trees, capsys):
    parent, change = csv_trees
    path = change / "helix.csv"
    text = path.read_bytes()
    path.write_bytes(text.replace(b"1.0194239718136417", b"1.0194239718136418"))
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("helix.csv"))
    assert line.startswith("helix.csv: line 3: 'helix,flattened_helix_fails,")
    assert "1.0194239718136417" in line and "1.0194239718136418" in line
    assert "1 difference(s)" in out
    # a byte past the last line, such as a trailing blank line, differs too
    path.write_bytes(text + b"\n")
    assert compare([str(parent), str(change)]) == 1
    assert "helix.csv: line 6: '' != '\\n'" in capsys.readouterr().out


def test_csv_in_one_tree_only(compare, csv_trees, capsys):
    parent, change = csv_trees
    (change / "summary.csv").unlink()
    (change / "extra.csv").write_text("a,b\n")
    assert compare([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "summary.csv: only in parent" in out and "extra.csv: only in change" in out
    assert "2 difference(s)" in out
