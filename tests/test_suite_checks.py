"""Each suite, run with the command line's defaults, yields the check ids and
statuses pinned in `perfbench/suite_checks.json`, in the same order.  The
table is read as data, so a renamed, dropped, reordered or newly failing
check shows here as well as in the benchmark's output check.  The suites
whose diagonal is paired with their grid also pass, unrefused, on coarser
and finer square grids."""

import json
from pathlib import Path

import pytest

from ssdkit.catalog import default_grid
from ssdkit.suites import SUITES, SuiteOptions, run_suite

PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "suite_checks.json")
                    .read_text(encoding="utf-8"))


def test_every_suite_is_pinned():
    assert sorted(PINNED) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_suite_checks_match_the_pinned_table(suite):
    rows = [[c.check_id, c.status] for rep in run_suite(suite) for c in rep.checks]
    assert rows == PINNED[suite]


@pytest.mark.parametrize("n", [41, 81])
@pytest.mark.parametrize("suite", ["lemma_2_13", "theorem_2_9", "theorem_2_15", "theorem_2_16",
                                   "lemma_4_7", "theorem_4_10", "theorem_5_8", "remark_5_6"])
def test_grid_paired_suites_pass_on_refined_grids(suite, n):
    reports = run_suite(suite, SuiteOptions(grid=default_grid(2, -3.0, 3.0, n)))
    failed = [c.check_id for rep in reports for c in rep.checks if c.status == "fail"]
    assert reports and not failed
