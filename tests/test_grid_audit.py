import importlib.util
from pathlib import Path

import pytest

from ssdkit.grids import GridSpec
from ssdkit.suites import SUITES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "grid_audit.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("grid_audit", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_41_node_boxes_pass_and_write_one_tree_each(audit, tmp_path, capsys):
    assert audit.main([str(tmp_path), "-3:3:41", "-2:2:41"]) == 0
    assert capsys.readouterr().out == "-3:3:41: exit 0\n-2:2:41: exit 0\n"
    for box in ("-3:3:41", "-2:2:41"):
        assert {p.stem for p in (tmp_path / box).glob("*.json")} == set(SUITES) | {"summary"}


def test_last_boxes_are_off_centre_with_unequal_odd_and_even_counts(audit):
    parities = []
    for box in audit.FIXED_BOXES[-4:]:
        grid = GridSpec.from_string(audit.grid_arg(box))
        assert grid.dim == 2 and grid.num[0] != grid.num[1]
        assert all(lo != -hi for lo, hi in zip(grid.lower, grid.upper))
        parities.append(tuple(grid.num % 2))
    assert set(parities) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("argv,bad", [
    (["out", "-3:3:41", "1:0:5"], "1:0:5"),
    (["out", "-3:3:41", "--out"], "--out"),
    (["--out", "out", "-3:3:41"], "out"),  # OUT is "--out", and "out" reads as a box
])
def test_bad_box_exits_2_before_any_box_runs(audit, tmp_path, monkeypatch, capsys, argv,
                                             bad):
    monkeypatch.chdir(tmp_path)
    assert audit.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad box {bad!r}: ")
    assert list(tmp_path.iterdir()) == []
