"""Suites as functions of their options and their spaces."""

import numpy as np
import pytest

from ssdkit.catalog import space_r2_product
from ssdkit.kernels import kernel_ledger
from ssdkit.reports import FAIL, PASS, VerifyReport
from ssdkit.suites import (
    SPECIAL,
    SUITES,
    SuiteOptions,
    _expect_fail,
    _norm,
    suite_theorem_4_10,
    suite_theorem_5_8,
)


def _run(suite, sp):
    """All reports of `suite` under `sp` at the default grid, and the kernels
    they ran; a refusal raises."""
    with kernel_ledger() as ledger:
        reports = list(suite(SuiteOptions(), sp=sp))
    return reports, {row[0] for row in ledger}


@pytest.mark.parametrize("sp", SPECIAL, ids=_norm)
def test_theorem_4_10_battery_passes_under_every_special_norm(sp):
    reports, kernels = _run(suite_theorem_4_10, sp)
    assert reports and all(rep.passed for rep in reports)
    assert all(rep.grid["num"] == [61, 61] for rep in reports)
    assert all(rep.meta["space"] == sp.label for rep in reports)
    # only `two` has a quadratic form; the kinked norms run the min-plus inf
    assert ("min-plus" in kernels) == (sp.norm.variant != "two")


@pytest.mark.parametrize("kind,tau", [("one", 2.0), ("inf", 0.5)])
def test_theorem_5_8_battery_passes_under_kinked_norms(kind, tau):
    sp = space_r2_product(kind, tau)
    reports, kernels = _run(suite_theorem_5_8, sp)
    assert len(reports) == 9 and all(rep.passed for rep in reports)
    assert all(rep.meta["space"] == sp.label for rep in reports)
    assert "min-plus" in kernels


def _control(passed):
    bad = VerifyReport(tolerances={"tol": 1e-6}, meta={"ignored": True})
    bad.add("first", "eq_x", passed, residual=0.25, witness=np.array([1.0, -1.0]))
    bad.add("second", "eq_y", True, residual=9.0, witness="not this one")
    return bad


def test_expect_fail_passes_when_the_control_fails():
    rep = _expect_fail(_control(False), "must_fail", "eq_x", "expected to fail", pitch=0.5)
    (check,) = rep.checks
    assert (check.check_id, check.anchor, check.status) == ("must_fail", "eq_x", PASS)
    assert check.worst_residual == 0.25 and check.note == "expected to fail"
    assert rep.meta == {"pitch": 0.5} and rep.tolerances == {"tol": 1e-6}


def test_expect_fail_fails_with_the_first_residual_when_the_control_passes():
    rep = _expect_fail(_control(True), "must_fail", "eq_x", "expected to fail")
    (check,) = rep.checks
    assert check.status == FAIL and not rep.passed
    assert check.worst_residual == 0.25
    np.testing.assert_array_equal(check.witness, [1.0, -1.0])


def test_a_passing_halved_norm_control_fails_banach_ssd(monkeypatch):
    from ssdkit import suites

    real = suites.check_banach_ssd

    def halved_norm_passes(sp, probe):
        rep = real(sp, probe=probe)
        if sp.norm.scale == 0.5:
            for check in rep.checks:
                check.status = PASS
        return rep

    monkeypatch.setattr(suites, "check_banach_ssd", halved_norm_passes)
    reports = list(SUITES["banach_ssd"](SuiteOptions()))
    (flip,) = [rep for rep in reports if rep.checks[0].check_id == "halved_norm_fails"]
    check = flip.checks[0]
    assert check.status == FAIL and check.worst_residual > 0
    assert check.witness[0] == pytest.approx(-check.witness[1], abs=1e-12)
    assert sum(not rep.passed for rep in reports) == 1
