"""Passing a prebuilt representer triple or density report: same reports,
less work."""

from unittest import mock

import numpy as np
import pytest

from ssdkit import (
    DensityNotVerified,
    GridFn,
    fitz_triple,
    sigma_minorant_test,
    theorem_2_15_reports,
    theorem_2_15_suite,
    theorem_4_10_battery,
    theorem_5_8_battery,
)
from ssdkit import duality
from ssdkit.duality import density_report
from ssdkit.catalog import cubic_graph_set
from ssdkit.suites import run_suite


def _doc(rep):
    doc = rep.to_dict()
    del doc["wall_time"]
    return doc


class TestPrebuiltTriple:
    def test_theorem_4_10_battery(self, prod_space, prod_dual, grid61, diag121):
        triple = fitz_triple(prod_space, diag121.underlying, grid61)
        own = theorem_4_10_battery(prod_space, prod_dual, diag121.underlying, grid61)
        given = theorem_4_10_battery(prod_space, prod_dual, diag121.underlying, grid61,
                                     triple=triple)
        assert _doc(given) == _doc(own)

    def test_theorem_4_10_battery_explicit_candidates(self, prod_space, prod_dual, grid61,
                                                      diag121):
        triple = fitz_triple(prod_space, diag121.underlying, grid61)
        cands = [triple.star_theta_fn, triple.phi_fn]
        own = theorem_4_10_battery(prod_space, prod_dual, diag121.underlying, grid61,
                                   h_candidates=cands)
        given = theorem_4_10_battery(prod_space, prod_dual, diag121.underlying, grid61,
                                     h_candidates=cands, triple=triple)
        assert _doc(given) == _doc(own)
        assert len([c for c in own.checks if c.check_id.startswith("e_candidate")]) == 2

    def test_theorem_5_8_battery(self, prod_space, prod_dual, grid61):
        cubic = cubic_graph_set(grid61)
        triple = fitz_triple(prod_space, cubic.underlying, grid61)
        own = theorem_5_8_battery(prod_space, prod_dual, cubic, grid61)
        given = theorem_5_8_battery(prod_space, prod_dual, cubic, grid61, triple=triple)
        assert _doc(given) == _doc(own)

    def test_sigma_minorant_test(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121.underlying, grid61)
        a0 = np.array([1.0, 1.0])
        affine = GridFn.from_callable(
            grid61, lambda p: np.atleast_2d(p) @ prod_space.pairing @ a0 - prod_space.q(a0),
            form="affine tangent")
        for h in (triple.phi_fn, affine):
            own = sigma_minorant_test(prod_space, diag121.underlying, h)
            given = sigma_minorant_test(prod_space, diag121.underlying, h, triple=triple)
            assert _doc(given) == _doc(own)


class TestPrebuiltDensity:
    def test_batteries_equal_with_given_density(self, prod_space, prod_dual, grid61):
        cubic = cubic_graph_set(grid61)
        triple = fitz_triple(prod_space, cubic.underlying, grid61)
        dens = density_report(prod_space, prod_dual, grid61)
        assert dens.passed
        own = theorem_5_8_battery(prod_space, prod_dual, cubic, grid61, triple=triple)
        with mock.patch.object(duality, "density_report",
                               side_effect=AssertionError("density rebuilt")):
            given = theorem_5_8_battery(prod_space, prod_dual, cubic, grid61, triple=triple,
                                        density=dens)
            given_4_10 = theorem_4_10_battery(prod_space, prod_dual, cubic.underlying, grid61,
                                              triple=triple, density=dens)
        assert _doc(given) == _doc(own)
        own_4_10 = theorem_4_10_battery(prod_space, prod_dual, cubic.underlying, grid61,
                                        triple=triple)
        assert _doc(given_4_10) == _doc(own_4_10)

    def test_failed_density_given_still_refuses(self, prod_space, prod_dual, grid61):
        cubic = cubic_graph_set(grid61)
        failed = density_report(prod_space, prod_dual, grid61, tol_density=-1.0)
        assert not failed.passed
        with pytest.raises(DensityNotVerified):
            theorem_4_10_battery(prod_space, prod_dual, cubic.underlying, grid61,
                                 density=failed)
        with pytest.raises(DensityNotVerified):
            theorem_5_8_battery(prod_space, prod_dual, cubic, grid61, density=failed)


class TestTheorem215Reports:
    def test_equal_to_separate_calls(self, prod_space, grid61, worked_fn61, diag121):
        triple = fitz_triple(prod_space, diag121.underlying, grid61)
        mid = GridFn._raw(grid61, 0.5 * (triple.phi_fn.values + triple.star_theta_fn.values),
                          form="midpoint")
        cands = [triple.phi_fn, triple.star_theta_fn, mid, None]
        shared = list(theorem_2_15_reports(prod_space, worked_fn61, cands))
        assert len(shared) == len(cands)
        for h, rep in zip(cands, shared):
            assert _doc(rep) == _doc(theorem_2_15_suite(prod_space, worked_fn61, h))

    def test_reports_are_independent(self, prod_space, grid61, worked_fn61, diag121):
        triple = fitz_triple(prod_space, diag121.underlying, grid61)
        first, second = theorem_2_15_reports(prod_space, worked_fn61,
                                             [triple.phi_fn, triple.star_theta_fn])
        assert first is not second
        before = _doc(second)
        first.meta["candidate"] = "changed"
        first.grid["num"].append(0)
        first.tolerances["tol"] = -1.0
        first.checks[0].note = "changed"
        assert _doc(second) == before


# sup-kernel calls of one run of each suite, with each representer triple,
# VZ verdict and pairing-conjugate built once; a rebuild raises a count
SUITE_KERNEL_CALLS = {
    "theorem_2_15": 36,
    "theorem_2_16": 8,
    "theorem_4_10": 19,
    "theorem_5_8": 60,
}


@pytest.mark.parametrize("suite", sorted(SUITE_KERNEL_CALLS))
def test_suite_kernel_call_count(suite):
    calls = sum(row["calls"] for rep in run_suite(suite) for row in rep.meta["kernels"]
                if row["kernel"] in ("separable", "scattered"))
    assert calls == SUITE_KERNEL_CALLS[suite]
