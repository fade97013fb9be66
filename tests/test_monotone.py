import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ssdkit import (
    DimensionMismatch,
    EmptySet,
    GridSpec,
    MonotoneSet,
    PointSet,
    PreconditionFailed,
    alignment_report,
    fitz_triple,
    is_q_positive,
    lemma_2_13_suite,
    mf_set,
    negative_alignment,
    projection_closure_check,
    remark_5_6_bound,
    strongly_representable_check,
    theorem_5_8_battery,
    type_ni_check,
)
from ssdkit.catalog import (
    cubic_graph_set,
    diagonal_set,
    q_plus_const_fn,
    sign_graph_set,
)
from ssdkit.suites import SUITES, SuiteOptions

from conftest import assert_scans_bitwise_one_block, difference_scans

SQRT2 = np.sqrt(2.0)


class TestMonotoneSets:
    def test_monotone_iff_q_positive(self, prod_space):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pts = rng.normal(size=(12, 2))
            a = MonotoneSet(pts)
            classical = all(
                (pts[i, 0] - pts[j, 0]) * (pts[i, 1] - pts[j, 1]) >= 0
                for i in range(12) for j in range(i))
            assert is_q_positive(prod_space, a).passed is classical

    def test_csv_roundtrip(self, tmp_path):
        a = diagonal_set(GridSpec.box(-1.0, 1.0, 6, 2))
        path = tmp_path / "set.csv"
        a.to_csv(path)
        back = MonotoneSet.from_csv(path)
        assert isinstance(back, MonotoneSet) and isinstance(back, PointSet) and back.n == 1
        for got, want in ((back.points, a.points), (back.x, a.x), (back.xstar, a.xstar)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_monotone_set_is_a_point_set(self, prod_space, grid61, diag121):
        assert isinstance(diag121, PointSet)
        rep = lemma_2_13_suite(fitz_triple(prod_space, diag121, grid61))
        assert rep.passed and rep.meta["set"] == "diagonal"
        # the same triple, bit for bit, as from a plain point set of those rows
        got = fitz_triple(prod_space, diag121, grid61)
        want = fitz_triple(prod_space, PointSet(diag121.points, label="diagonal"), grid61)
        for name in ("phi_fn", "theta_fn", "star_theta_fn"):
            assert np.array_equal(getattr(got, name).values.view(np.int64),
                                  getattr(want, name).values.view(np.int64)), name
        docs = [{k: v for k, v in r.to_dict().items() if k != "wall_time"}
                for r in (rep, lemma_2_13_suite(want))]
        assert docs[0] == docs[1]

    def test_odd_coordinate_count_refused_after_the_point_checks(self, tmp_path):
        message = "monotone sets need an even coordinate count"
        with pytest.raises(DimensionMismatch) as exc:
            MonotoneSet(np.arange(9.0).reshape(3, 3))
        assert str(exc.value) == message
        path = tmp_path / "odd.csv"
        np.savetxt(path, np.arange(9.0).reshape(3, 3), delimiter=",")
        with pytest.raises(DimensionMismatch) as exc:
            MonotoneSet.from_csv(path)
        assert str(exc.value) == message
        # the point set's own refusals come first, as when it was built apart
        with pytest.raises(EmptySet):
            MonotoneSet(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="points must be finite"):
            MonotoneSet([[np.nan, 0.0, 0.0]])


class TestMfSet:
    def test_worked_example_recovers_diagonal(self, prod_space, worked_fn121):
        mf = mf_set(worked_fn121, prod_space)
        assert len(mf) == 121
        assert np.max(np.abs(mf.x - mf.xstar)) < 1e-12

    def test_doubling_graph_recovered(self, prod_space, grid61):
        from ssdkit.catalog import monotone_graph_set
        from ssdkit.positivity import sets_match

        graph = monotone_graph_set(grid61, lambda t: 2 * t, label="doubling graph")
        phi_fn = fitz_triple(prod_space, graph, grid61).phi_fn
        mf = mf_set(phi_fn, prod_space)
        ok, dist, _ = sets_match(prod_space, graph.points, mf.points, grid61)
        assert ok, dist

    def test_shifted_form_is_empty(self, prod_space, grid61):
        mf = mf_set(q_plus_const_fn(prod_space, grid61), prod_space)
        assert len(mf) == 0


class TestTypeNI:
    def test_diagonal_passes(self, prod_space, grid61, diag121):
        rep = type_ni_check(prod_space, diag121, grid61)
        assert rep.passed

    def test_origin_singleton_fails_at_positive_quadrant(self, prod_space, grid61):
        a = MonotoneSet(np.zeros((1, 2)), label="origin singleton")
        rep = type_ni_check(prod_space, a, grid61)
        assert not rep.passed
        # over the set {0} the infimum at a probe c is q~(c) = c1 c2, worst
        # (9) at the first corner probe (-3, -3)
        probes = grid61.points() @ prod_space.pairing.T
        gaps = prod_space.dual.q(probes)
        i = int(np.argmax(gaps))
        check = rep.check("nonpositive_infimum")
        assert check.worst_residual == pytest.approx(9.0)
        assert check.worst_residual == float(gaps[i])
        assert np.array_equal(check.witness, probes[i])

    def test_cubic_graph_passes(self, prod_space, grid61):
        rep = type_ni_check(prod_space, cubic_graph_set(grid61), grid61)
        assert rep.passed

    def test_sign_graph_passes(self, prod_space, grid61):
        rep = type_ni_check(prod_space, sign_graph_set(grid61), grid61)
        assert rep.passed


class TestStrongRepresentability:
    def test_diagonal_with_both_representers(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        for fn in (triple.phi_fn, triple.star_theta_fn):
            rep = strongly_representable_check(diag121, fn, prod_space)
            assert rep.passed

    def test_smaller_touching_set_fails_with_witness(self, prod_space, grid61):
        import ssdkit

        # touching set is the origin alone: gap (f - q) = |x|^2 vanishes only there
        pinched = ssdkit.GridFn.from_callable(
            grid61, lambda p: np.sum(np.atleast_2d(p) ** 2, axis=1)
            + prod_space.q(np.atleast_2d(p)), form="pinched", require_convex=False)
        full = diagonal_set(grid61)
        rep = strongly_representable_check(full, pinched, prod_space)
        assert not rep.passed
        w = np.asarray(rep.check("represents_the_set").witness)
        assert np.abs(w[0]) > 1.0  # a missing far-out diagonal point

    @pytest.mark.parametrize("case", ["missing", "extra"])
    def test_witness_is_the_brute_force_farthest_point(self, case, prod_space,
                                                       grid61, diag121):
        import ssdkit

        if case == "missing":   # touching set {0}; the sample reaches out to (3, 3)
            sample = diagonal_set(GridSpec.box(-1.0, 3.0, 21, 2))
            fn = ssdkit.GridFn.from_callable(
                grid61, lambda p: np.sum(np.atleast_2d(p) ** 2, axis=1)
                + prod_space.q(np.atleast_2d(p)), form="pinched", require_convex=False)
        else:                   # touching set the whole diagonal; the sample is [0, 1]
            sample = diagonal_set(GridSpec.box(0.0, 1.0, 6, 2))
            fn = fitz_triple(prod_space, diag121, grid61).phi_fn
        touch = mf_set(fn, prod_space).points
        near = lambda rows, others: [min(float(prod_space.norm(r - o)) for o in others)
                                     for r in rows]
        missing, extra = near(sample.points, touch), near(touch, sample.points)
        if case == "missing":
            assert max(missing) > max(extra)
            expected = sample.points[int(np.argmax(missing))]
        else:
            assert max(extra) > max(missing)
            expected = touch[int(np.argmax(extra))]
        check = strongly_representable_check(sample, fn, prod_space) \
            .check("represents_the_set")
        assert check.status == "fail"
        assert np.array_equal(check.witness, expected)
        assert check.worst_residual == pytest.approx(max(missing + extra), rel=1e-12)


def _battery(space, mset, grid, density):
    return theorem_5_8_battery(fitz_triple(space, mset, grid), density)


class TestTheorem58:
    def test_diagonal_battery(self, prod_space, grid61, diag121, density61):
        rep = _battery(prod_space, diag121, grid61, density61)
        assert rep.passed
        assert all(rep.meta["verdicts"].values())
        assert rep.check("b_classical_form").status == "pass"

    def test_cubic_graph_battery(self, prod_space, grid61, density61):
        rep = _battery(prod_space, cubic_graph_set(grid61), grid61, density61)
        assert rep.passed

    def test_sign_graph_battery(self, prod_space, grid61, density61):
        rep = _battery(prod_space, sign_graph_set(grid61), grid61, density61)
        assert rep.passed

    @pytest.mark.parametrize("set_fn", [
        lambda grid: diagonal_set(grid), cubic_graph_set, sign_graph_set])
    @pytest.mark.parametrize("prebuilt", [False, True])
    def test_classical_form_matches_dense_max(self, prod_space, grid61,
                                              density61, set_fn, prebuilt):
        # the classical form's sup over the set, read from the triple, against
        # a dense numpy max over the set x image-of-grid matrix; a prebuilt
        # triple has already been read by another check before the battery
        a = set_fn(grid61)
        triple = fitz_triple(prod_space, a, grid61)
        if prebuilt:
            assert lemma_2_13_suite(triple).passed
        rep = theorem_5_8_battery(triple, density61)
        image = grid61.points() @ prod_space.pairing.T
        dense = np.max(a.points @ image.T - prod_space.q(a.points)[:, None], axis=0)
        gap = prod_space.dual.q(image) - dense
        i = int(np.argmax(gap))
        check = rep.check("b_classical_form")
        assert check.worst_residual == max(0.0, float(gap[i]))
        assert np.array_equal(check.witness, image[i])
        assert np.array_equal(triple.dual_blocks[1][1], dense)

    def test_singleton_refused(self, prod_space, grid61, density61):
        with pytest.raises(PreconditionFailed):
            _battery(prod_space,
                     MonotoneSet(np.zeros((1, 2)), label="origin singleton"), grid61, density61)


class TestDiagonalSet:
    @pytest.mark.parametrize("n", [41, 61, 81, 121])
    def test_holds_every_diagonal_node(self, n):
        grid = GridSpec.box(-3.0, 3.0, n, 2)
        axis = grid.axes()[0]
        nodes = np.stack([axis, axis], axis=1)
        pts = diagonal_set(grid).points
        assert len(pts) == 2 * n - 1
        assert all(np.any(np.all(pts == node, axis=1)) for node in nodes)

    def test_default_grid_gives_the_121_point_sample(self):
        from ssdkit.catalog import default_grid

        t = np.linspace(-3.0, 3.0, 121)
        assert np.array_equal(diagonal_set(default_grid()).points, np.stack([t, t], axis=1))


class TestSignGraphOffNodeHeights:
    """At 41^2 (spacing 0.15) +-1 is not an axis node: the branches sit at
    the nodes nearest +-1, where the vertical segment meets them."""

    def test_branches_meet_the_segment(self):
        from ssdkit.catalog import default_grid

        pts = sign_graph_set(default_grid(2, -3.0, 3.0, 41)).points
        for height in (-1.05, 1.05):
            on_segment = (pts[:, 0] == 0.0) & np.isclose(pts[:, 1], height, rtol=0.0, atol=1e-12)
            assert np.count_nonzero(on_segment) == 1
            branch = np.isclose(pts[:, 1], height, rtol=0.0, atol=1e-12)
            assert np.unique(pts[branch, 1]).size == 1  # one exact node height

    @pytest.mark.parametrize("suite", ["theorem_5_8", "theorem_5_5"])
    def test_suite_passes_at_41(self, suite):
        from ssdkit.catalog import default_grid
        from ssdkit.suites import SuiteOptions, run_suite

        reports = run_suite(suite, SuiteOptions(grid=default_grid(2, -3.0, 3.0, 41)))
        failed = [(r.meta.get("set"), c.check_id) for r in reports for c in r.checks
                  if c.status == "fail"]
        assert not failed


class TestNegativeAlignment:
    def test_unit_case_on_diagonal(self, diag121):
        res = negative_alignment(diag121, [1.0], [-1.0], 1.0, 1.0)
        assert res.omega == pytest.approx(1.0, abs=1e-12)
        assert res.rho == pytest.approx(1.0, abs=1e-12)
        assert res.sigma == pytest.approx(1.0, abs=1e-12)
        assert res.inner == pytest.approx(-1.0, abs=1e-12)
        assert res.minimizer == pytest.approx([0.0, 0.0])
        assert res.alignment_ratio == pytest.approx(-1.0, abs=1e-12)

    def test_unit_case_against_scan_oracle(self, diag121):
        ts = np.linspace(-3, 3, 600_001)
        obj = np.maximum((ts - 1.0) ** 2, (ts + 1.0) ** 2) + (ts - 1.0) * (ts + 1.0)
        assert np.min(obj) == pytest.approx(0.0, abs=1e-9)
        assert ts[np.argmin(obj)] == pytest.approx(0.0, abs=1e-4)

    def test_on_set_point_degenerates(self, diag121):
        res = negative_alignment(diag121, [1.0], [1.0], 1.0, 1.0)
        assert res.degenerate and res.omega == 0.0

    def test_asymmetric_weights(self, diag121):
        res = negative_alignment(diag121, [1.0], [-1.0], 4.0, 1.0)
        assert res.objective_min == pytest.approx(0.0, abs=1e-12)
        assert res.minimizer == pytest.approx([-0.6, -0.6])
        assert res.omega == pytest.approx(0.4, abs=1e-12)
        assert res.rho == pytest.approx(4 * res.omega)
        assert res.sigma == pytest.approx(1 * res.omega)
        assert res.rho * res.sigma == pytest.approx(-res.inner, abs=1e-12)

    def test_omega_stable_under_reordering(self, diag121):
        rng = np.random.default_rng(13)
        omegas = []
        for _ in range(8):
            perm = rng.permutation(len(diag121))
            shuffled = MonotoneSet(diag121.points[perm])
            omegas.append(negative_alignment(shuffled, [1.0], [-1.0], 1.0, 1.0).omega)
        assert max(omegas) - min(omegas) <= 1e-6

    def test_alignment_report_passes(self, diag121):
        rep = alignment_report(diag121, [1.0], [-1.0], 1.0, 1.0)
        assert rep.passed

    def test_bounded_product_gate(self, diag121):
        # inf over the set of the product is -1 > -alpha*beta for 1.2/1.2,
        # so both radii stay strictly under their weights
        res = negative_alignment(diag121, [1.0], [-1.0], 1.2, 1.2)
        inf_prod = float(np.min((diag121.x[:, 0] - 1.0) * (diag121.xstar[:, 0] + 1.0)))
        assert inf_prod > -1.2 * 1.2
        assert res.rho < 1.2 and res.sigma < 1.2

    def test_empty_set_rejected(self):
        empty = MonotoneSet(np.zeros((0, 2)), allow_empty=True)
        with pytest.raises(EmptySet):
            negative_alignment(empty, [0.0], [0.0], 1.0, 1.0)

    def test_two_dimensional_halves(self):
        # graph of the identity on R^2, sampled on a lattice; by symmetry the
        # balanced minimizer for ((1,0), (-1,0)) is the origin with omega 1
        t = np.linspace(-2, 2, 41)
        vv = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        ident_graph = MonotoneSet(np.hstack([vv, vv]))
        res = negative_alignment(ident_graph, [1.0, 0.0], [-1.0, 0.0], 1.0, 1.0)
        assert res.objective_min == pytest.approx(0.0, abs=1e-12)
        assert res.minimizer == pytest.approx([0.0, 0.0, 0.0, 0.0])
        assert res.omega == pytest.approx(1.0, abs=1e-12)
        assert res.alignment_ratio == pytest.approx(-1.0, abs=1e-12)


class TestRemark56:
    def test_worked_example_chain_and_sharpness(self, prod_space, worked_fn121, grid121, diag121):
        probe = grid121.subsample(2)
        rep = remark_5_6_bound(diag121, worked_fn121, prod_space, probe)
        assert rep.passed
        # equality at off-diagonal probes: dist = sqrt(2) sqrt(-inf product)
        pts = probe.points()
        d = np.abs(pts[:, 0] - pts[:, 1])
        off = d > 0.5
        dx = pts[off, None, 0] - diag121.x[None, :, 0]
        dxs = pts[off, None, 1] - diag121.xstar[None, :, 0]
        dist = np.sqrt(np.min(dx**2 + dxs**2, axis=1))
        neg = -np.min(dx * dxs, axis=1)
        assert dist == pytest.approx(SQRT2 * np.sqrt(neg), abs=1e-9)

    def test_on_set_points_have_zero_sides(self, prod_space, worked_fn121, diag121):
        probe = GridSpec(np.array([1.0, 1.0]) - 1e-9, np.array([1.0, 1.0]) + 1e-9,
                         np.array([2, 2]))
        rep = remark_5_6_bound(diag121, worked_fn121, prod_space, probe)
        assert rep.passed

    def test_each_pair_scan_peaks_in_one_small_block(self, prod_space, worked_fn121, grid121,
                                                     diag121):
        # the suite's worked-example call: 3,721 probes against the 121-point
        # diagonal, 2^18 // (242 * 8) = 135 probe rows a block; in one block
        # of 2^21 coordinates a scan of this call peaked at 17.2 MB traced,
        # and in 1,083-row blocks at 5.1 MB
        from ssdkit import gridfn

        peaks = []
        scan = gridfn._pair_scan

        def traced(*args):
            tracemalloc.start()
            try:
                out = scan(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out

        with mock.patch.object(gridfn, "_pair_scan", traced):
            remark_5_6_bound(diag121, worked_fn121, prod_space, grid121.subsample(2))
        assert len(peaks) == 2
        assert max(peaks) <= 6 << 20

    def test_suite_scans_peak_in_one_score_block(self):
        # two scans per call: 3,721 probes against the 121-point diagonal in
        # blocks of 135 rows, then 961 against the 99-point cubic graph in 165
        scans = difference_scans(lambda: list(SUITES["remark_5_6"](SuiteOptions())))
        assert len(scans) == 4
        assert max(s.peak for s in scans) <= 2 << 20

    def test_suite_scans_give_the_one_block_bits(self):
        assert_scans_bitwise_one_block(lambda: list(SUITES["remark_5_6"](SuiteOptions())))

    def test_cubic_graph_chain(self, prod_space, grid61):
        cubic = cubic_graph_set(grid61)
        phi_fn = fitz_triple(prod_space, cubic, grid61).phi_fn
        rep = remark_5_6_bound(cubic, phi_fn, prod_space, grid61.subsample(2))
        assert rep.passed


class TestProjectionClosure:
    def test_worked_example_full_axes(self, prod_space, worked_fn121):
        rep = projection_closure_check(worked_fn121, prod_space)
        assert rep.passed

    def test_sign_graph_dual_projection_is_segment(self, prod_space, grid61):
        sign = sign_graph_set(grid61)
        phi_fn = fitz_triple(prod_space, sign, grid61).phi_fn
        rep = projection_closure_check(phi_fn, prod_space)
        assert rep.passed
        mf = mf_set(phi_fn, prod_space)
        assert np.min(mf.x) <= -2.9 and np.max(mf.x) >= 2.9
        # away from the box edges (where the normal-cone rays live) the dual
        # projection is the segment [-1, 1]
        interior = np.abs(mf.x[:, 0]) < 3.0 - 1e-9
        assert np.min(mf.xstar[interior]) >= -1.0 - 0.2
        assert np.max(mf.xstar[interior]) <= 1.0 + 0.2

    def test_box_domain_indicator_like(self, prod_space, grid61):
        import ssdkit

        def clipped(p):
            p = np.atleast_2d(p)
            vals = 0.5 * np.sum(p**2, axis=1)
            outside = np.max(np.abs(p), axis=1) > 1.5
            return np.where(outside, np.inf, vals)

        fn = ssdkit.GridFn.from_callable(grid61, clipped, form="boxed worked example",
                                         require_convex=False)
        rep = projection_closure_check(fn, prod_space)
        assert rep.passed
