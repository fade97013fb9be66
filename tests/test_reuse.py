"""Values built once and handed on: a failed density report still refuses,
the theorem 2.15 reports share their setup, and each suite runs a fixed
number of sup kernels."""

import pytest

from ssdkit import (
    DensityNotVerified,
    GridFn,
    fitz_triple,
    theorem_2_15_reports,
    theorem_4_10_battery,
    theorem_5_8_battery,
)
from ssdkit.duality import density_report
from ssdkit.catalog import cubic_graph_set
from ssdkit.suites import run_suite


def _doc(rep):
    doc = rep.to_dict()
    del doc["wall_time"]
    return doc


class TestPrebuiltDensity:
    def test_failed_density_given_still_refuses(self, prod_space, grid61):
        triple = fitz_triple(prod_space, cubic_graph_set(grid61), grid61)
        failed = density_report(prod_space, grid61, tol_density=-1.0)
        assert not failed.passed
        with pytest.raises(DensityNotVerified):
            theorem_4_10_battery(triple, failed)
        with pytest.raises(DensityNotVerified):
            theorem_5_8_battery(triple, failed)


class TestTheorem215Reports:
    def test_equal_to_separate_calls(self, prod_space, grid61, worked_fn61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        mid = GridFn._raw(grid61, 0.5 * (triple.phi_fn.values + triple.star_theta_fn.values),
                          form="midpoint")
        cands = [triple.phi_fn, triple.star_theta_fn, mid, None]
        shared = list(theorem_2_15_reports(prod_space, worked_fn61, cands))
        assert len(shared) == len(cands)
        for h, rep in zip(cands, shared):
            alone, = theorem_2_15_reports(prod_space, worked_fn61, [h])
            assert _doc(rep) == _doc(alone)

    def test_reports_are_independent(self, prod_space, grid61, worked_fn61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        first, second = theorem_2_15_reports(prod_space, worked_fn61,
                                             [triple.phi_fn, triple.star_theta_fn])
        assert first is not second
        before = _doc(second)
        first.meta["candidate"] = "changed"
        first.grid["num"].append(0)
        first.tolerances["tol"] = -1.0
        first.checks[0].note = "changed"
        assert _doc(second) == before


# sup-kernel calls of one run of each representer suite, with each representer
# triple, VZ verdict and pairing-conjugate built once and no triple built where
# a suite reads phi alone; a rebuild or an unread triple raises a count
SUITE_KERNEL_CALLS = {
    "fenchel_moreau": 42,
    "lemma_1_6": 3,
    "lemma_2_7": 42,
    "lemma_2_13": 59,
    "lemma_4_7": 10,
    "remark_2_17": 1,
    "remark_5_6": 2,
    "theorem_2_9": 9,
    "theorem_2_15": 36,
    "theorem_2_16": 8,
    "theorem_4_10": 19,
    "theorem_5_5": 1,
    "theorem_5_8": 60,
}


@pytest.mark.parametrize("suite", sorted(SUITE_KERNEL_CALLS))
def test_suite_kernel_call_count(suite):
    calls = sum(row["calls"] for rep in run_suite(suite) for row in rep.meta["kernels"]
                if row["kernel"] in ("separable", "scattered"))
    assert calls == SUITE_KERNEL_CALLS[suite]
