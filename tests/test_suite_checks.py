"""Each suite, run with the command line's defaults, yields the check ids and
statuses pinned in `perfbench/suite_checks.json`, in the same order.  The
table is read as data, so a renamed, dropped, reordered or newly failing
check shows here as well as in the benchmark's output check."""

import json
from pathlib import Path

import pytest

from ssdkit.suites import SUITES, run_suite

PINNED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "suite_checks.json")
                    .read_text(encoding="utf-8"))


def test_every_suite_is_pinned():
    assert sorted(PINNED) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_suite_checks_match_the_pinned_table(suite):
    rows = [[c.check_id, c.status] for rep in run_suite(suite) for c in rep.checks]
    assert rows == PINNED[suite]
