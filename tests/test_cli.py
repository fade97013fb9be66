import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import PreconditionFailed
from ssdkit.cli import main
from ssdkit.catalog import default_grid, half_sq_norm_fn, space_r2_product
from ssdkit.duality import density_report, save_space_document
from ssdkit.gridfn import GridFn
from ssdkit.kernels import kernel_ledger
from ssdkit.positivity import PointSet
from ssdkit.reports import FAIL, PASS, VerifyReport, write_json


def run(args):
    return main([str(a) for a in args])


class TestVerify:
    def test_helix_suite_passes(self, tmp_path, capsys):
        assert run(["verify", "--suite", "helix", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "helix.json").read_text())
        assert doc["passed"] is True
        assert any(c["status"] == "pass"
                   for rep in doc["reports"] for c in rep["checks"])

    def test_flattened_helix_fails_with_witness(self, tmp_path):
        assert run(["verify", "--suite", "helix", "--lambda", "0.5",
                    "--out", tmp_path]) == 1
        doc = json.loads((tmp_path / "helix.json").read_text())
        failing = [c for rep in doc["reports"] for c in rep["checks"]
                   if c["status"] == "fail"]
        assert failing and failing[0]["witness"] is not None
        b, c = (np.asarray(w) for w in failing[0]["witness"])
        d = b - c
        assert d[0] * d[1] + 0.5 * d[2] ** 2 < 0  # witness pair really violates

    def test_unknown_suite_is_config_error(self, tmp_path):
        assert run(["verify", "--suite", "nope", "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    def test_bad_grid_string_is_config_error(self, tmp_path):
        assert run(["verify", "--suite", "helix", "--grid", "0..1..5",
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("grid,reason", [
        ("-3:3:1,-3:3:1", "need at least 2 points per axis"),
        ("3:-3:61,-3:3:61", "need lower < upper on every axis"),
        ("-3:3,-3:3:61", "bad grid axis '-3:3', expected lo:hi:n"),
        ("a:3:61,-3:3:61", "could not convert string to float: 'a'"),
    ])
    def test_bad_grid_says_why(self, tmp_path, capsys, grid, reason):
        for command in ("verify", "conjugate", "fitzpatrick", "project"):
            assert run([command, f"--grid={grid}", "--out", tmp_path / "out"]) == 2
            assert f"argument --grid: {reason}\n" in capsys.readouterr().err, command
            assert not (tmp_path / "out").exists()

    def test_malformed_space_json(self, tmp_path):
        bad = tmp_path / "space.json"
        bad.write_text("{not json")
        assert run(["fitzpatrick", "--space", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("doc,message", [
        ({"dim": 2, "label": "no pairing"}, "space document has no 'pairing' key"),
        ({"pairing": [[0.0, 1.0], [1.0, 0.0]], "dual": {"norm": {}}},
         "space document's 'dual' has no 'pairing' key"),
        ([[0.0, 1.0], [1.0, 0.0]], "space document is not a JSON object"),
    ])
    def test_space_document_without_pairing_is_input_error(self, tmp_path, capsys, doc,
                                                           message):
        bad = tmp_path / "space.json"
        bad.write_text(json.dumps(doc))
        for command in ("fitzpatrick", "project"):
            assert run([command, "--space", bad, "--out", tmp_path / "out"]) == 2, command
            err = capsys.readouterr().err
            assert err == f"error: {message}\n", command
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("norm", [[1], "two", 1.0, None])
    def test_space_document_with_non_object_norm_is_input_error(self, tmp_path, capsys,
                                                                norm):
        bad = tmp_path / "space.json"
        bad.write_text(json.dumps({"pairing": [[0.0, 1.0], [1.0, 0.0]], "norm": norm}))
        for command in ("fitzpatrick", "project"):
            assert run([command, "--space", bad, "--out", tmp_path / "out"]) == 2, command
            err = capsys.readouterr().err
            assert err == "error: space document's 'norm' is not a JSON object\n", command
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("norm,dual_norm,message", [
        ({"variant": "two"}, "x", "space document's 'dual''s 'norm' is not a JSON object"),
        ({"variant": "two"}, {"variant": "one", "tau": 3},
         "space document's 'dual''s 'norm' disagrees with the canonical dual norm "
         "for this space"),
        ({"variant": "two"}, {"variant": "two", "scale": 2.0},
         "space document's 'dual''s 'norm' disagrees with the canonical dual norm "
         "for this space"),
        ({"variant": "quadratic", "weight": [[1.0, 0.0], [0.0, -1.0]]}, None,
         "quadratic norm weight is not positive definite"),
        ({"variant": "quadratic", "weight": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}, None,
         "quadratic norm weight must be a square matrix, got shape (3, 2)"),
    ])
    def test_space_document_norm_is_input_error(self, tmp_path, capsys, norm, dual_norm,
                                                message):
        swap = [[0.0, 1.0], [1.0, 0.0]]
        doc = {"pairing": swap, "norm": norm}
        if dual_norm is not None:
            doc["dual"] = {"pairing": swap, "norm": dual_norm}
        bad = tmp_path / "space.json"
        bad.write_text(json.dumps(doc))
        for command in ("fitzpatrick", "project"):
            assert run([command, "--space", bad, "--out", tmp_path / "out"]) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n", command
            assert not (tmp_path / "out").exists()

    def test_canonical_stored_dual_round_trips(self, tmp_path):
        space_file = tmp_path / "space.json"
        save_space_document(space_r2_product("two"), space_file, dual=True)
        assert "dual" in json.loads(space_file.read_text())
        assert run(["fitzpatrick", "--space", space_file, "--out", tmp_path / "f"]) == 0
        assert run(["project", "--space", space_file, "--point", "1,0",
                    "--out", tmp_path / "p"]) == 0

    def test_grid_of_another_dimension_is_input_error(self, tmp_path, capsys):
        assert run(["fitzpatrick", "--grid=-1:1:5", "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == ("error: the space has dimension 2 but the grid "
                                           "has dimension 1\n")
        assert not (tmp_path / "out").exists()

    def test_singleton_set_refuses_battery(self, tmp_path):
        setfile = tmp_path / "singleton.csv"
        np.savetxt(setfile, np.zeros((1, 2)), delimiter=",")
        assert run(["verify", "--suite", "theorem_5_8", "--set", setfile,
                    "--out", tmp_path]) == 2

    def test_odd_coordinate_set_refuses_battery(self, tmp_path):
        setfile = tmp_path / "helix.csv"
        theta = np.linspace(-3.0, 3.0, 31)
        np.savetxt(setfile, np.stack([np.cos(theta), np.sin(theta), theta], axis=1),
                   delimiter=",")
        assert run(["verify", "--suite", "theorem_5_8", "--set", setfile,
                    "--out", tmp_path]) == 2
        doc = json.loads((tmp_path / "theorem_5_8.json").read_text())
        assert doc["reports"] == [] and "even coordinate count" in doc["refused"]

    def test_odd_coordinate_set_refused_alike_by_align(self, tmp_path, capsys):
        setfile = tmp_path / "odd.csv"
        np.savetxt(setfile, np.arange(9.0).reshape(3, 3), delimiter=",")
        assert run(["verify", "--suite", "theorem_5_8", "--set", setfile,
                    "--out", tmp_path / "verify"]) == 2
        refused = json.loads((tmp_path / "verify" / "theorem_5_8.json").read_text())["refused"]
        capsys.readouterr()
        assert run(["align", "--set", setfile, "--point", "0", "--dual-point", "0",
                    "--out", tmp_path / "align"]) == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert refused == "monotone sets need an even coordinate count"
        assert not (tmp_path / "align").exists()

    def test_budget_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSDKIT_BUDGET", "100")
        assert run(["verify", "--suite", "helix", "--grid=-3:3:61,-3:3:61",
                    "--out", tmp_path]) == 2

    def test_csv_format_writes_table(self, tmp_path):
        assert run(["verify", "--suite", "helix", "--format", "csv",
                    "--out", tmp_path]) == 0
        lines = (tmp_path / "helix.csv").read_text().strip().splitlines()
        assert lines[0].startswith("suite,check_id,anchor,status")
        assert len(lines) > 1

    def test_worked_example_suite_all_pass(self, tmp_path):
        assert run(["verify", "--suite", "remark_2_17", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "remark_2_17.json").read_text())
        statuses = [c["status"] for rep in doc["reports"] for c in rep["checks"]]
        assert statuses and all(s == "pass" for s in statuses)

    def test_vz_path_and_tolerance_reach_the_written_reports(self, tmp_path, prod_space,
                                                             grid61):
        from ssdkit import is_vz, vz_mas_equivalence

        assert run(["verify", "--suite", "remark_2_17", "--out", tmp_path]) == 0
        meta = json.loads((tmp_path / "remark_2_17.json").read_text())["reports"][0]["meta"]
        assert meta["vz_tol"] > 0.0
        assert [k["kernel"] for k in meta["kernels"]] == ["scattered"]
        fn = half_sq_norm_fn(grid61)
        with kernel_ledger() as ledger:
            rep = vz_mas_equivalence(prod_space, fn,
                                     density_report(prod_space, grid61))
        write_json(tmp_path / "vz_mas.json", rep.to_dict())
        meta = json.loads((tmp_path / "vz_mas.json").read_text())["meta"]
        with kernel_ledger() as vz_ledger:
            vz = is_vz(fn, prod_space)
        assert meta["vz_tol"] == vz.tolerances["tol"]
        # after the density probes: is_vz's inf, then is_mas's conjugate
        assert [e[:3] for e in ledger[-2:]] == [vz_ledger[0][:3], ("separable", 3721, 3721)]

    def test_user_set_through_representer_suite(self, tmp_path):
        setfile = tmp_path / "diag.csv"
        t = np.linspace(-3, 3, 121)
        np.savetxt(setfile, np.stack([t, t], axis=1), delimiter=",")
        assert run(["verify", "--suite", "lemma_2_13", "--set", setfile,
                    "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "lemma_2_13.json").read_text())
        assert doc["reports"][0]["meta"]["set"] == "diag"

    def test_report_wall_times_are_measured_per_report(self):
        import time

        from ssdkit.suites import run_suite

        t0 = time.perf_counter()
        reports = run_suite("remark_2_17")
        elapsed = time.perf_counter() - t0
        times = [rep.wall_time for rep in reports]
        assert len(times) == 3 and all(t > 0.0 for t in times)
        assert sum(times) <= elapsed
        assert len(set(times)) == len(times)  # not one average copied into each

    def test_every_report_carries_its_kernels(self):
        from ssdkit.suites import SUITES, run_suite

        for name in SUITES:
            for rep in run_suite(name):
                rows = rep.meta["kernels"]
                keys = [(row["kernel"], row["sources"], row["targets"]) for row in rows]
                assert len(set(keys)) == len(keys), name
                assert all(row["kernel"] in ("scattered", "separable", "min-plus", "pairwise")
                           and row["calls"] >= 1 for row in rows), name
                assert sum(row["wall_time"] for row in rows) <= rep.wall_time, name

    def test_lemma_1_6_passes_on_a_finer_grid(self, tmp_path):
        # its diagonal representer is built from a diagonal on the grid's nodes
        assert run(["verify", "--suite", "lemma_1_6", "--grid=-3:3:121,-3:3:121",
                    "--out", tmp_path]) == 0

    @pytest.mark.parametrize("name", ["theorem_5_5", "theorem_2_16", "helix"])
    def test_reports_carry_the_suite_that_ran_them(self, name):
        from ssdkit.suites import run_suite

        reports = run_suite(name)
        assert reports and all(rep.suite == name for rep in reports)

    def test_readme_lists_every_suite(self):
        import re
        from pathlib import Path

        from ssdkit.suites import SUITES

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"^Suites: (.*?)\.  ", readme, re.M | re.S).group(1)
        assert set(re.findall(r"`(\w+)`", listed)) == set(SUITES)


@pytest.fixture
def three_suites(monkeypatch):
    """The suite registry replaced by three cheap suites; the middle one
    refuses, the last one records a +inf residual."""
    from ssdkit import cli, suites

    def first(opts):
        rep = VerifyReport()
        rep.add("one", "plumbing", True, residual=0.25)
        yield rep

    def refuses(opts):
        yield VerifyReport()
        raise PreconditionFailed("set is not grid-maximal")

    def third(opts):
        rep = VerifyReport()
        rep.add("unbounded", "plumbing", False, residual=math.inf)
        yield rep

    registry = {"a_first": first, "b_refuses": refuses, "c_third": third}
    monkeypatch.setattr(suites, "SUITES", registry)
    monkeypatch.setattr(cli, "SUITES", registry)


class TestRefusal:
    def test_refused_suite_is_recorded_and_the_rest_run(self, tmp_path, three_suites,
                                                         capsys):
        # c_third FAILs, and a FAIL outranks b_refuses's refusal
        assert run(["verify", "--suite", "all", "--out", tmp_path]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "b_refuses: REFUSED (set is not grid-maximal)" in out
        assert out[-1].startswith("c_third: FAIL (1/1)")
        refused = json.loads((tmp_path / "b_refuses.json").read_text())
        assert refused == {"suite": "b_refuses", "passed": False,
                           "refused": "set is not grid-maximal", "reports": []}
        third = json.loads((tmp_path / "c_third.json").read_text())
        assert third["passed"] is False and "refused" not in third
        assert [c["id"] for c in third["reports"][0]["checks"]] == ["unbounded"]

        assert run(["report", "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["suites"]["b_refuses"] == {
            "passed": False, "n_failed": 0, "refused": "set is not grid-maximal"}
        assert summary["suites"]["a_first"] == {"passed": True, "n_failed": 0}
        assert summary["n_checks"] == 2 and summary["n_failed"] == 1

    def test_infinite_residual_is_one_cell_in_both_csv_files(self, tmp_path, three_suites):
        assert run(["verify", "--suite", "all", "--format", "csv", "--out", tmp_path]) == 1
        assert run(["report", "--out", tmp_path]) == 0
        with open(tmp_path / "c_third.csv", newline="") as fh:
            suite_rows = list(csv.reader(fh))
        with open(tmp_path / "summary.csv", newline="") as fh:
            summary_rows = list(csv.reader(fh))
        assert suite_rows[1] == ["c_third", "unbounded", "plumbing", "fail", "inf"]
        assert summary_rows[0] == suite_rows[0]
        assert suite_rows[1] in summary_rows
        assert ["a_first", "one", "plumbing", "pass", "0.25"] in summary_rows
        assert (tmp_path / "b_refuses.csv").read_text().splitlines() == [",".join(suite_rows[0])]

    def test_refusal_with_no_fail_exits_2(self, tmp_path, three_suites, monkeypatch, capsys):
        from ssdkit import cli

        monkeypatch.delitem(cli.SUITES, "c_third")
        assert run(["verify", "--suite", "all", "--out", tmp_path]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "b_refuses: REFUSED (set is not grid-maximal)"
        assert json.loads((tmp_path / "a_first.json").read_text())["passed"] is True

    def test_non_dividing_grid_refuses_one_suite_and_the_rest_run(self, tmp_path, capsys):
        # 30 intervals per axis: remark_5_6 takes every 4th node, which does not divide
        from ssdkit.suites import SUITES

        message = "step must divide the interval count on every axis"
        assert run(["verify", "--suite", "all", "--grid=-3:3:31,-3:3:31",
                    "--out", tmp_path]) == 2
        assert f"remark_5_6: REFUSED ({message})" in capsys.readouterr().out.splitlines()
        docs = {p.stem: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
        assert set(docs) == set(SUITES)
        assert docs["remark_5_6"]["refused"] == message
        assert all(doc["passed"] for name, doc in docs.items() if name != "remark_5_6")


class TestReport:
    def test_aggregation_and_idempotence(self, tmp_path):
        assert run(["verify", "--suite", "helix", "--out", tmp_path]) == 0
        assert run(["verify", "--suite", "theorem_2_16", "--out", tmp_path]) == 0
        assert run(["report", "--out", tmp_path]) == 0
        first = (tmp_path / "summary.json").read_bytes()
        first_csv = (tmp_path / "summary.csv").read_bytes()
        assert run(["report", "--out", tmp_path]) == 0
        assert (tmp_path / "summary.json").read_bytes() == first
        assert (tmp_path / "summary.csv").read_bytes() == first_csv
        doc = json.loads(first)
        assert doc["n_checks"] >= 5
        assert doc["n_failed"] == 0
        assert "helix" in doc["suites"] and "theorem_2_16" in doc["suites"]

    def test_empty_dir_is_missing_artifacts(self, tmp_path):
        assert run(["report", "--out", tmp_path / "nothing"]) == 2

    def test_summary_stamps_the_environment(self, tmp_path, monkeypatch):
        import ssdkit

        assert run(["verify", "--suite", "helix", "--out", tmp_path]) == 0
        monkeypatch.setenv("SSDKIT_BUDGET", "12345")
        assert run(["report", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["environment"] == {"ssdkit": ssdkit.__version__,
                                      "numpy": np.__version__,
                                      "point_budget": 12345}


class TestAddWorst:
    """`VerifyReport.add_worst`: the first argmax decides, the residual is
    clamped at 0 and the witness is the row at the argmax."""

    @staticmethod
    def add(excess, tol=0.0, witnesses=None):
        excess = np.asarray(excess, dtype=float)
        if witnesses is None:
            witnesses = np.arange(excess.size)[:, None] * np.ones((1, 2))
        return VerifyReport().add_worst("c", "a", excess, witnesses, tol, note="n")

    def test_record_and_ties_to_lowest_index(self):
        rep = VerifyReport()
        check = rep.add_worst("c", "anchor", np.array([1.0, 3.0, 2.0, 3.0]),
                              np.array([[0.0], [1.0], [2.0], [3.0]]), 5.0, note="n")
        assert check is rep.checks[-1]
        assert (check.check_id, check.anchor, check.note) == ("c", "anchor", "n")
        assert check.status == PASS and check.worst_residual == 3.0
        assert check.witness.tolist() == [1.0]

    def test_excess_equal_to_tol_passes(self):
        assert self.add([-1.0, 1e-9], tol=1e-9).status == PASS
        above = np.nextafter(1e-9, np.inf)
        check = self.add([-1.0, above], tol=1e-9)
        assert check.status == FAIL and check.worst_residual == above
        assert self.add([0.0, -0.0]).status == PASS

    @pytest.mark.parametrize("excess", [[-3.0, -1.0, -2.0], [-0.0, -5.0]])
    def test_negative_worst_gives_zero_residual(self, excess):
        check = self.add(excess)
        assert check.status == PASS
        assert check.worst_residual == 0.0 and math.copysign(1.0, check.worst_residual) == 1.0

    def test_all_masked_passes_at_row_zero(self):
        vals = np.array([np.inf, np.nan, -np.inf])
        masked = np.where(np.isfinite(vals), vals, -np.inf)
        check = self.add(masked, witnesses=np.array([[7.0, 8.0], [1.0, 2.0], [3.0, 4.0]]))
        assert check.status == PASS and check.worst_residual == 0.0
        assert check.witness.tolist() == [7.0, 8.0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -1.0, -1e-9, -0.0, 0.0, 1e-9, 1.0, 2.0,
                                     -np.inf, np.inf]), min_size=1, max_size=12),
           st.sampled_from([0.0, 1e-9, 1.0]))
    def test_lower_bound_as_negation_matches_argmin(self, xs, tol):
        x = np.array(xs)
        i = int(np.argmin(x))
        old = (float(x[i]) >= -tol, max(0.0, -float(x[i])), i)
        check = self.add(-x, tol=tol, witnesses=np.arange(x.size))
        new = (check.status == PASS, check.worst_residual, int(check.witness))
        assert new == old
        assert math.copysign(1.0, new[1]) == math.copysign(1.0, old[1])


class TestConstructions:
    def test_conjugate_roundtrip(self, tmp_path):
        grid = default_grid(2, -2.0, 2.0, 41)
        fn = half_sq_norm_fn(grid)
        src = tmp_path / "fn.csv"
        fn.to_csv(src)
        assert run(["conjugate", "--fn", src, "--grid=-2:2:41,-2:2:41",
                    "--out", tmp_path]) == 0
        star = GridFn.from_csv(tmp_path / "conjugate.csv")
        expected = 0.5 * np.sum(star.grid.points() ** 2, axis=1)
        assert np.max(np.abs(star.values - expected)) < 5e-3

    def test_fitzpatrick_outputs(self, tmp_path):
        space_file = tmp_path / "space.json"
        save_space_document(space_r2_product("two"), space_file)
        setfile = tmp_path / "diag.csv"
        t = np.linspace(-3, 3, 121)
        np.savetxt(setfile, np.stack([t, t], axis=1), delimiter=",")
        assert run(["fitzpatrick", "--space", space_file, "--set", setfile,
                    "--out", tmp_path]) == 0
        for name in ("phi.csv", "theta.csv", "star_theta.csv", "fitz_checks.json"):
            assert (tmp_path / name).exists()
        checks = json.loads((tmp_path / "fitz_checks.json").read_text())
        assert checks["phi_equals_theta_through_map_gap"] < 1e-9

    def test_project_worked_example(self, tmp_path):
        assert run(["project", "--point", "1,0", "--epsilon", "0.5",
                    "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "projection_trace.json").read_text())
        assert doc["limit"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["achieved_distance"] <= doc["distance_bound"] + 1e-12

    def test_align_unit_case(self, tmp_path):
        assert run(["align", "--point", "1", "--dual-point", "-1",
                    "--alpha", "1", "--beta", "1", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "alignment.json").read_text())
        assert doc["omega"] == pytest.approx(1.0, abs=1e-9)
        assert doc["inner"] == pytest.approx(-1.0, abs=1e-9)

    def test_project_requires_point(self, tmp_path):
        assert run(["project", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("text,err", [
        ("dim,2\n", "ends before its axis 0 line"),
        ("dim,2\naxis,0,-2.0,2.0,41\n", "ends before its axis 1 line"),
        ("dim,2\naxis,0,-2.0,2.0,41\naxis,1,-2.0,2.0,41\n", "ends before its values line"),
        ("dim,2\naxis,0,-2.0,2.0,41\naxis,1,-2.0\nvalues\n", "expected axis line"),
    ])
    def test_truncated_fn_csv_is_config_error(self, tmp_path, capsys, text, err):
        src = tmp_path / "fn.csv"
        src.write_text(text)
        assert run(["conjugate", "--fn", src, "--out", tmp_path]) == 2
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        ("axis,0,-2.0,2.0,3", "axis,2,-1.0,1.0,3"),    # out of range
        ("axis,0,-2.0,2.0,3", "axis,-1,-1.0,1.0,3"),   # negative
        ("axis,0,-2.0,2.0,3", "axis,0,-1.0,1.0,3"),    # repeated
    ])
    def test_bad_axis_index_is_config_error(self, tmp_path, capsys, bad):
        src = tmp_path / "fn.csv"
        src.write_text("dim,2\n" + "\n".join(bad) + "\nvalues\n" + "0.0\n" * 9)
        assert run(["conjugate", "--fn", src, "--out", tmp_path / "out"]) == 2
        assert repr(bad[1]) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("at,line,err", [
        (0, "dim,two", "expected dim line"),
        (0, "dim,2,2", "expected dim line"),
        (0, "dim,0", "expected dim line"),
        (2, "axis,one,-1.0,1.0,3", "expected axis line 1"),
        (2, "axis,1,lo,1.0,3", "expected axis line 1"),
        (2, "axis,1,-1.0,1.0,three", "expected axis line 1"),
        (3, "value", "expected values line"),
        (7, "zero", "expected a value"),
        (7, "0.0,1.0", "expected a value"),
    ])
    def test_unparsable_fn_csv_line_is_quoted(self, tmp_path, capsys, at, line, err):
        # the same file with the good line back in converts
        lines = ["dim,2", "axis,0,-2.0,2.0,3", "axis,1,-1.0,1.0,3", "values"] + ["1.0"] * 9
        src = tmp_path / "fn.csv"
        src.write_text("\n".join(lines) + "\n")
        assert run(["conjugate", "--fn", src, "--out", tmp_path / "good"]) == 0
        lines[at] = line
        src.write_text("\n".join(lines) + "\n")
        assert run(["conjugate", "--fn", src, "--out", tmp_path / "out"]) == 2
        assert f"{err}, got {line!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,err", [
        ("1,2\n3,4,5\n", "expected 2 numbers on line 2, got '3,4,5'"),
        ("# label: x\n1,2\n\na,1\n", "expected 2 numbers on line 4, got 'a,1'"),
        ("1,2\n3,4,\n", "expected 2 numbers on line 2, got '3,4,'"),
        ("", "point set must be nonempty"),
        ("# label: x\n", "point set must be nonempty"),
    ])
    @pytest.mark.filterwarnings("error")   # no numpy warning on the way
    def test_bad_set_csv_says_why(self, tmp_path, capsys, text, err):
        src = tmp_path / "set.csv"
        src.write_text(text)
        for argv in (["fitzpatrick"], ["align", "--point", "0", "--dual-point", "0"],
                     ["verify", "--suite", "theorem_5_8"]):
            assert run(argv + ["--set", src, "--out", tmp_path / "out"]) == 2
            assert capsys.readouterr().err == f"error: {err}\n", argv
            assert not (tmp_path / "out").exists()

    def test_set_csv_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = PointSet(rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-9, 9, (50, 1)),
                       label="x")
        pts.to_csv(tmp_path / "set.csv")
        back = PointSet.from_csv(tmp_path / "set.csv")
        assert back.points.tobytes() == pts.points.tobytes()


class TestFlags:
    """Each subcommand takes only the flags its command reads."""

    READ = {
        "verify": {"--out", "--set", "--grid", "--suite", "--seed", "--format",
                   "--lambda", "--epsilon"},
        "report": {"--out"},
        "conjugate": {"--out", "--fn", "--grid"},
        "fitzpatrick": {"--out", "--space", "--set", "--grid"},
        "project": {"--out", "--space", "--fn", "--grid", "--point", "--epsilon"},
        "align": {"--out", "--set", "--point", "--dual-point", "--alpha", "--beta"},
    }

    def test_registered_flags_are_the_read_ones(self):
        from ssdkit.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(sub.choices) == set(self.READ)
        for name, parser in sub.choices.items():
            flags = {s for a in parser._actions for s in a.option_strings
                     if s.startswith("--") and s != "--help"}
            assert flags == self.READ[name], name

    @pytest.mark.parametrize("argv", [
        ["verify", "--fn", "x.csv"],
        ["verify", "--space", "s.json"],
        ["report", "--tol", "1"],
        ["report", "--seed", "1"],
        ["conjugate", "--set", "s.csv"],
        ["fitzpatrick", "--fn", "f.csv"],
        ["project", "--format", "csv"],
        ["align", "--grid", "-1:1:3"],
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, argv):
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["0", "1e-3"])
    def test_tolerance_flag_is_usage_error(self, tmp_path, value):
        assert run(["verify", "--suite", "lemma_4_7", "--tol", value,
                    "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()
