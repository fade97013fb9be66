import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    EmptySet,
    FBelowQ,
    GridFn,
    GridSpec,
    MonotoneSet,
    NotVZ,
    EpsilonOutOfRange,
    PreconditionFailed,
    PointSet,
    dist_bounds_check,
    fitz_triple,
    is_maximally_q_positive,
    is_q_positive,
    lemma_2_8_suite,
    p_dense_check,
    product_space,
    p_set,
    project_to_p,
    recheck_trace,
)
from ssdkit.catalog import (
    diagonal_set,
    half_sq_norm_fn,
    helix_set,
    q_plus_const_fn,
    ray_set,
    singleton_origin,
    space_identity,
)
from ssdkit.positivity import _dedup

from conftest import greedy_dedup, triu_min_q

SQRT2 = np.sqrt(2.0)


class TestQPositivity:
    def test_helix_is_positive(self, swap3):
        rep = is_q_positive(swap3, helix_set())
        assert rep.passed
        assert rep.meta["min_pairwise_q"] >= -1e-12

    def test_flattened_helix_fails_with_witness(self, swap3):
        rep = is_q_positive(swap3, helix_set(pitch=0.5))
        assert not rep.passed
        b, c = (np.asarray(w) for w in rep.check("pairwise_gap").witness)
        assert swap3.q(b - c) < 0  # the reported pair really violates

    def test_singleton_passes(self, swap3):
        rep = is_q_positive(swap3, singleton_origin(3))
        assert rep.passed

    def test_line_through_origin_positive(self, swap3):
        # direction (1,-1,2): q(t(1,-1,2)) = t^2 * (-1 + 2) >= 0
        rep = is_q_positive(swap3, ray_set())
        assert rep.passed

    def test_every_set_positive_under_identity_pairing(self, ident2):
        rng = np.random.default_rng(8)
        rep = is_q_positive(ident2, PointSet(rng.normal(size=(60, 2))))
        assert rep.passed

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_triu_min(self, swap3, prod_space, ident2, rows, seed):
        # integer points: every q(a_i - a_j) is exact, so many pairs tie and
        # the witness must be the lowest (i, j), at any chunk size; under the
        # identity pairing every pair gap is positive, so a kernel that let
        # in q(0) = 0 from i = j would show
        from unittest import mock

        from ssdkit import kernels

        rng = np.random.default_rng(seed)
        space = (prod_space, swap3, ident2)[seed % 3]
        pts = rng.integers(-2, 3, size=(int(rng.integers(2, 40)), space.dim)).astype(float)
        a = PointSet(pts)
        n = len(a)
        block = 1 << 18 if rows is None else (rows * n * (space.dim + 1)) >> 3
        with mock.patch.object(kernels, "_SCORE_BLOCK", block):
            rep = is_q_positive(space, a)
        worst, (i, j) = triu_min_q(space, a.points)
        check = rep.check("pairwise_gap")
        assert rep.meta["min_pairwise_q"] == worst
        assert check.worst_residual == max(0.0, -worst)
        assert np.array_equal(check.witness[0], a.points[i])
        assert np.array_equal(check.witness[1], a.points[j])

    def test_empty_set_rejected(self, swap3):
        with pytest.raises(EmptySet):
            is_q_positive(swap3, PointSet(np.zeros((0, 3)), allow_empty=True))


class TestMaximality:
    def test_diagonal_is_grid_maximal(self, prod_space, grid61, diag121):
        rep = is_maximally_q_positive(prod_space, diag121, grid61)
        assert rep.passed

    def test_origin_singleton_not_maximal(self, prod_space, grid61):
        rep = is_maximally_q_positive(prod_space, singleton_origin(2), grid61)
        assert not rep.passed
        w = np.asarray(rep.check("no_extension_on_grid").witness[0])
        assert prod_space.q(w) >= 0  # the witness really extends the set

    def test_singletons_maximal_under_negated_pairing(self, grid61):
        from ssdkit.catalog import space_negated

        rep = is_maximally_q_positive(space_negated(2), singleton_origin(2), grid61)
        assert rep.passed


class TestBoundedMemory:
    """Mins over a sampled set run in row blocks of about 2^18 coordinates, so
    the traced peak of a probe check against a 401-point set grows with the
    probes only through its O(probes) arrays: by at most 128 B per added
    probe (p_dense_check about 32 B, maximality about 65 B), where one dense
    401-column row of the probes-by-set matrix alone is 3,208 B."""

    @pytest.mark.parametrize("check", [p_dense_check, is_maximally_q_positive])
    def test_peak_grows_linearly(self, prod_space, check):
        a = diagonal_set(GridSpec.box(-3.0, 3.0, 201, 2))
        peaks = {}
        for num in (101, 201, 401):
            grid = GridSpec.box(-3.0, 3.0, num, 2)
            tracemalloc.start()
            try:
                check(prod_space, a, grid)
                peaks[num] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if num == 201:  # 3.3-3.6 MB here; checked before a dense matrix could grow 4x
                assert peaks[201] < 8 << 20
        for lo, hi in ((101, 201), (201, 401)):
            assert peaks[hi] - peaks[lo] <= 128 * (hi ** 2 - lo ** 2)


class TestQPositivityMemory:
    """The pairwise-gap min over i < j runs in row blocks of about 2^18
    index-carrying coordinates and frees each block before building the next,
    so its traced peak is the same at 1,500 and 2,000 points (about 1 MB),
    under 12 MB (a full 2,000-point q block alone is 32 MB)."""

    def test_peak_does_not_grow_with_set_size(self, prod_space):
        peaks = []
        for n in (1500, 2000):
            t = np.linspace(-3.0, 3.0, n)
            a = MonotoneSet(np.stack([t, t], axis=1))
            tracemalloc.start()
            try:
                assert is_q_positive(prod_space, a).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] < 12 << 20


class TestTouchingSet:
    def test_worked_example_touches_on_diagonal(self, prod_space, worked_fn121):
        ps = p_set(worked_fn121, prod_space)
        pts = ps.points
        assert len(ps) == 121
        assert np.max(np.abs(pts[:, 0] - pts[:, 1])) < 1e-12

    def test_touching_set_is_positive(self, prod_space, worked_fn121):
        ps = p_set(worked_fn121, prod_space)
        assert is_q_positive(prod_space, ps).passed

    def test_shifted_form_gives_empty_set(self, prod_space, grid61):
        f = q_plus_const_fn(prod_space, grid61)
        ps = p_set(f, prod_space)
        assert len(ps) == 0

    def test_function_below_q_rejected(self, prod_space, grid61):
        f = q_plus_const_fn(prod_space, grid61, const=-0.5)
        with pytest.raises(FBelowQ):
            p_set(f, prod_space)

    def test_representer_recovers_diagonal(self, prod_space, grid61, diag121):
        phi_fn = fitz_triple(prod_space, diag121, grid61).phi_fn
        ps = p_set(phi_fn, prod_space)
        # every touching node sits within one cell of the diagonal
        assert np.max(np.abs(ps.points[:, 0] - ps.points[:, 1])) <= 0.1 + 1e-9


class TestSetsMatch:
    """`sets_match` against a dense Hausdorff oracle: every distance from
    `space.norm` of one difference, the radius two cells of the grid."""

    GRID = GridSpec(np.array([-3.0, -2.0]), np.array([3.0, 2.0]), np.array([61, 41]))

    @staticmethod
    def _oracle(space, a, b, grid):
        d = np.array([[space.norm(x - y) for y in b] for x in a])
        steps = np.diag(grid.spacing)
        radius = 2.0 * max(space.norm(step) for step in steps)
        return d.min(axis=1), d.min(axis=0), radius

    @pytest.mark.parametrize("kind", ["one", "two", "inf"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_oracle(self, kind, seed):
        from ssdkit.positivity import sets_match

        space = product_space(1, kind, tau=0.5 + 0.25 * (seed % 4))
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 15)), 2))
        b = a + rng.normal(scale=0.06, size=a.shape)
        if seed % 2:  # a row missing from b and an extra one in it
            b = np.vstack([b[1:], rng.uniform(-2.0, 2.0, size=(1, 2))])
        missing, extra, radius = self._oracle(space, a, b, self.GRID)
        haus = max(missing.max(), extra.max())
        match, dist, far = sets_match(space, a, b, self.GRID)
        assert dist == pytest.approx(haus, abs=1e-12)
        if abs(haus - radius) > 1e-12:
            assert match == (haus <= radius)
        # the farthest row is one of either set whose distance to the other is dist
        far_dists = [missing[i] for i in range(len(a)) if np.array_equal(a[i], far)]
        far_dists += [extra[j] for j in range(len(b)) if np.array_equal(b[j], far)]
        assert far_dists and min(abs(v - haus) for v in far_dists) <= 1e-12

    def test_empty_sides(self, prod_space):
        from ssdkit.positivity import sets_match

        some, none = np.ones((3, 2)), np.zeros((0, 2))
        assert sets_match(prod_space, none, none, self.GRID) == (True, 0.0, None)
        assert sets_match(prod_space, some, none, self.GRID) == (False, np.inf, None)
        assert sets_match(prod_space, none, some, self.GRID) == (False, np.inf, None)

    def test_radius_is_two_cells_of_the_grid(self, prod_space):
        from ssdkit.positivity import sets_match

        a = np.zeros((1, 2))
        # prod_space's norm of a 0.1 step along axis 0 is 0.1: two cells is 0.2
        assert sets_match(prod_space, a, [[0.2, 0.0]], self.GRID)[0]
        assert not sets_match(prod_space, a, [[0.2 + 1e-9, 0.0]], self.GRID)[0]


class TestDensity:
    def test_diagonal_is_dense(self, prod_space, grid61, diag121):
        rep = p_dense_check(prod_space, diag121, grid61)
        assert rep.passed

    def test_diagonal_density_is_exact_here(self, prod_space, grid61, diag121):
        # midpoints of 61-grid sums are 121-grid nodes: achieved inf is zero
        rep = p_dense_check(prod_space, diag121, grid61, tol_density=1e-12)
        assert rep.passed

    def test_singleton_fails_at_corner(self, prod_space, grid61):
        rep = p_dense_check(prod_space, singleton_origin(2), grid61)
        assert not rep.passed
        # p((1,1)) = 2 at the witness scale: residual is macroscopic
        assert rep.check("gauge_density").worst_residual > 1.0

    def test_whole_grid_is_dense(self, prod_space, grid61):
        rep = p_dense_check(prod_space, PointSet(grid61.points()), grid61,
                            tol_density=1e-12)
        assert rep.passed


class TestProjection:
    def test_worked_example_projects_to_diagonal_midpoint(self, prod_space, worked_fn121):
        trace = project_to_p(worked_fn121, prod_space, np.array([1.0, 0.0]), 0.5)
        assert trace.limit == pytest.approx([0.5, 0.5], abs=1e-9)
        # |c - limit| = 1/sqrt(2) <= (1 + eps) sqrt(2) sqrt(1/4)
        assert trace.achieved_distance == pytest.approx(1 / SQRT2, abs=1e-9)
        assert trace.achieved_distance <= trace.bound() + 1e-12
        assert recheck_trace(trace, worked_fn121, prod_space).passed

    def test_point_already_touching(self, prod_space, worked_fn121):
        trace = project_to_p(worked_fn121, prod_space, np.array([1.0, 1.0]), 0.5)
        assert len(trace.iterates) == 1
        assert np.array_equal(trace.limit, [1.0, 1.0])
        assert trace.achieved_distance == 0.0

    def test_representer_projection_from_antidiagonal(self, prod_space, grid121, diag121):
        phi_fn = fitz_triple(prod_space, diag121, grid121).phi_fn
        trace = project_to_p(phi_fn, prod_space, np.array([1.0, -1.0]), 0.5)
        assert trace.limit == pytest.approx([0.0, 0.0], abs=1e-9)
        assert trace.achieved_distance == pytest.approx(SQRT2, abs=1e-9)
        # alpha^2 = (phi - q)(1,-1) = 1, bound = 1.5 * sqrt(2)
        assert trace.alpha == pytest.approx(1.0, abs=1e-9)
        assert trace.achieved_distance <= trace.bound() + 1e-12

    def test_epsilon_validated(self, prod_space, worked_fn121):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(EpsilonOutOfRange):
                project_to_p(worked_fn121, prod_space, np.array([1.0, 0.0]), bad)

    def test_non_vz_function_refused(self, prod_space, grid61):
        f = q_plus_const_fn(prod_space, grid61)
        with pytest.raises(NotVZ):
            project_to_p(f, prod_space, np.array([1.0, 0.0]), 0.5)

    def test_certificates_decrease_geometrically(self, prod_space, worked_fn121):
        trace = project_to_p(worked_fn121, prod_space, np.array([3.0, -3.0]), 0.5)
        targets = [c["target"] for c in trace.certificates]
        assert all(t2 < t1 for t1, t2 in zip(targets, targets[1:]))
        lam2 = trace.lam**2
        assert targets[0] == pytest.approx(lam2 * trace.alpha**2, rel=1e-12)

    def test_too_tight_stop_tol_reports_infeasible(self, prod_space, grid121):
        from ssdkit import StepInfeasible

        # a 1e-6 gap floor stays under the membership tolerance but caps what
        # any grid point can certify; sub-floor targets must be refused
        f = GridFn.from_callable(
            grid121, lambda p: 0.5 * np.sum(np.atleast_2d(p) ** 2, axis=1) + 1e-6,
            form="floored worked example")
        with pytest.raises(StepInfeasible) as exc:
            project_to_p(f, prod_space, np.array([3.0, -3.0]), 0.5, stop_tol=1e-15)
        assert exc.value.best is not None  # best achievable bound is attached
        assert exc.value.best >= 1e-6

    def test_touching_set_of_vz_function_is_grid_maximal(self, prod_space, worked_fn121):
        ps = p_set(worked_fn121, prod_space)
        rep = is_maximally_q_positive(prod_space, ps, worked_fn121.grid.subsample(2))
        assert rep.passed


class TestDistBounds:
    def test_worked_example_bounds_and_sharpness(self, prod_space, worked_fn121, grid121):
        probe = grid121.subsample(2)  # sum-midpoints land on touching nodes
        rep = dist_bounds_check(worked_fn121, prod_space, probe)
        assert rep.passed
        assert rep.meta["max_ratio"] == pytest.approx(SQRT2, abs=1e-9)
        assert rep.meta["min_ratio"] == pytest.approx(SQRT2, abs=1e-9)

    def test_closed_forms_on_probe(self, prod_space, worked_fn121, grid121):
        probe = grid121.subsample(2)
        pts = probe.points()
        ps = p_set(worked_fn121, prod_space)
        from ssdkit.spaces import pairwise_norm, pairwise_q

        dist = np.min(pairwise_norm(prod_space, pts, ps.points), axis=1)
        neg_inf_q = -np.min(pairwise_q(prod_space, pts, ps.points), axis=1)
        d = np.abs(pts[:, 0] - pts[:, 1])
        assert dist == pytest.approx(d / SQRT2, abs=1e-9)
        assert neg_inf_q == pytest.approx(d**2 / 4.0, abs=1e-9)
        # the set-based bound is strictly tighter than the gap-based one off
        # the diagonal: the two quantities differ by exactly a factor of two
        gap = worked_fn121.evaluate(pts) - prod_space.q(pts)
        off = d > 0
        assert neg_inf_q[off] == pytest.approx(0.5 * gap[off], abs=1e-9)


class TestLemma28:
    def test_diagonal_with_representer(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        phi_fn, star_fn = triple.phi_fn, triple.star_theta_fn
        rep = lemma_2_8_suite(prod_space, diag121, phi_fn, grid61)
        assert rep.passed
        rep2 = lemma_2_8_suite(prod_space, diag121, star_fn, grid61)
        assert rep2.passed

    def test_sparse_set_refused(self, prod_space, grid61):
        f = half_sq_norm_fn(grid61)
        with pytest.raises(PreconditionFailed):
            lemma_2_8_suite(prod_space, singleton_origin(2), f, grid61)


class TestEquivalenceOfVzAndDensity:
    """Zero inf-convolution holds iff the gap vanishes somewhere and the
    touching set is dense (checked over a catalog of examples)."""

    def test_catalog(self, prod_space, grid61, diag121):
        from ssdkit import is_vz

        triple = fitz_triple(prod_space, diag121, grid61)
        phi_fn, star_fn = triple.phi_fn, triple.star_theta_fn
        worked = half_sq_norm_fn(grid61)
        ident = space_identity(2)
        lopsided = GridFn.from_callable(
            grid61,
            lambda p: ident.q(np.atleast_2d(p)) + np.abs(np.atleast_2d(p)[:, 0]),
            form="gap on a non-dense plane")
        cases = [
            (worked, prod_space, True),
            (phi_fn, prod_space, True),
            (star_fn, prod_space, True),
            (q_plus_const_fn(prod_space, grid61), prod_space, False),
            (lopsided, ident, False),
        ]
        for fn, space, expect in cases:
            vz = is_vz(fn, space).passed
            assert vz is expect, fn.form
            gap_ok = abs(float(np.min(fn.values - space.q(fn.grid.points())))) <= 1e-5
            ps = p_set(fn, space)
            dense = (len(ps) > 0
                     and p_dense_check(space, ps, fn.grid).passed)
            assert (gap_ok and dense) is expect, fn.form


class TestDedup:
    """The sort-based PointSet dedup against the greedy reference loop."""

    @staticmethod
    def _noisy_rows(rng, d):
        n = int(rng.integers(1, 40))
        base = np.round(rng.uniform(-2, 2, size=(n, d)), 1)
        dups = base[rng.integers(0, n, size=int(rng.integers(0, 15)))]
        step = rng.choice([4e-13, 1e-12, 3e-12])
        near = (base[rng.integers(0, n, size=int(rng.integers(0, 10)))]
                + rng.choice([-1.0, 0.0, 1.0], size=d) * step)
        pts = np.vstack([base, dups, near])
        return pts[rng.permutation(pts.shape[0])]

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_greedy_loop(self, seed, d):
        pts = self._noisy_rows(np.random.default_rng(seed), d)
        got = _dedup(pts)
        assert np.array_equal(got, greedy_dedup(pts))
        first = [int(np.flatnonzero(np.all(pts == row, axis=1))[0]) for row in got]
        assert first == sorted(first)

    def test_chain_keeps_both_ends(self):
        pts = np.array([[5.0, 0.0], [0.0, 0.0], [0.6e-12, 0.0], [1.2e-12, 0.0], [0.0, 0.0]])
        got = _dedup(pts)
        assert np.array_equal(got, greedy_dedup(pts))
        assert np.array_equal(got, pts[[0, 1, 3]])

    def test_signed_zero_is_a_duplicate(self):
        pts = np.array([[-0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        got = _dedup(pts)
        assert got.shape == (2, 2)
        assert np.signbit(got[0, 0])
        assert np.array_equal(got, greedy_dedup(pts))

    def test_single_row(self):
        pts = np.array([[0.25, -1.0, 3.0]])
        assert np.array_equal(_dedup(pts), pts)

    def test_pointset_drops_near_duplicates_in_order(self):
        pts = [[1.0, 0.0], [0.0, 0.0], [1.0, 5e-13], [0.0, 0.0], [2.0, 0.0]]
        ps = PointSet(pts)
        assert np.array_equal(ps.points, np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 0.0]]))
