import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    BracketViolated,
    DimensionMismatch,
    EmptySet,
    GridFn,
    GridMismatch,
    GridSpec,
    NotAMinorant,
    PointSet,
    fitz_triple,
    lemma_2_13_suite,
    phi,
    phi_on_grid,
    product_space,
    remark_2_14_gap,
    sigma_minorant_test,
    star_theta,
    theorem_2_15_reports,
    theta,
)
from ssdkit.catalog import (
    default_grid,
    diagonal_set,
    helix_set,
    singleton_origin,
    space_identity,
    space_swap_r3,
    space_zero_pairing,
)
from ssdkit.fitzpatrick import dual_probe_blocks
from ssdkit.gridfn import block_points
from ssdkit.kernels import kernel_ledger
from ssdkit.spaces import pairwise_q


class TestTheta:
    def test_singleton_gives_affine(self, prod_space):
        a = PointSet([[1.0, 2.0]])
        rng = np.random.default_rng(9)
        ys = rng.normal(size=(50, 2))
        got = theta(prod_space, a, ys)
        expected = ys @ np.array([1.0, 2.0]) - prod_space.q([1.0, 2.0])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_diagonal_closed_form(self, prod_space, diag121):
        # sup_t [t(y + y*) - t^2] = (y + y*)^2 / 4, via a dense 1-d scan oracle
        ys = np.array([[1.0, 0.5], [-2.0, 1.0], [0.3, 0.3], [2.0, -2.0]])
        got = theta(prod_space, diag121, ys)
        ts = np.linspace(-3, 3, 200_001)
        for y, g in zip(ys, got):
            oracle = np.max(ts * (y[0] + y[1]) - ts**2)
            assert g == pytest.approx(oracle, abs=1e-8)
            assert g == pytest.approx((y[0] + y[1]) ** 2 / 4.0, abs=1e-3)

    def test_empty_set_rejected(self, prod_space):
        with pytest.raises(EmptySet):
            theta(prod_space, PointSet(np.zeros((0, 2)), allow_empty=True), [0.0, 0.0])


class TestPhi:
    def test_two_formulas_agree_everywhere(self, prod_space, grid61, diag121):
        a, pts = diag121, grid61.points()
        v1 = phi(prod_space, a, pts)
        v2 = prod_space.q(pts) - np.min(pairwise_q(prod_space, pts, a.points), axis=1)
        assert np.max(np.abs(v1 - v2)) < 1e-12

    def test_equals_q_on_positive_set(self, swap3):
        hel = helix_set(n=50, span=3.0)
        vals = phi(swap3, hel, hel.points)
        assert vals == pytest.approx(swap3.q(hel.points), abs=1e-12)

    def test_diagonal_closed_form(self, prod_space, grid61, diag121):
        pts = grid61.points()
        vals = phi(prod_space, diag121, pts)
        expected = pts[:, 0] * pts[:, 1] + 0.25 * (pts[:, 0] - pts[:, 1]) ** 2
        assert vals == pytest.approx(expected, abs=1e-9)

    def test_origin_singleton_gives_zero(self, prod_space, grid61):
        vals = phi(prod_space, singleton_origin(2), grid61.points())
        assert np.max(np.abs(vals)) == 0.0

    def test_monotone_in_the_set(self, prod_space, grid61):
        small = diagonal_set(GridSpec.box(-1.0, 1.0, 21, 2))
        big = diagonal_set(grid61)
        pts = grid61.points()
        v_small = phi(prod_space, small, pts)
        v_big = phi(prod_space, big, pts)
        assert np.all(v_small <= v_big + 1e-12)


class TestStarTheta:
    def test_matches_q_on_diagonal_nodes(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        pts = grid61.points()
        on_diag = np.abs(pts[:, 0] - pts[:, 1]) < 1e-12
        got = triple.star_theta_fn.values[on_diag]
        assert got == pytest.approx(prod_space.q(pts[on_diag]), abs=1e-9)

    def test_zero_pairing_two_point_set(self, grid61):
        space = space_zero_pairing(2)
        a = PointSet([[-1.0, -1.0], [1.0, 1.0]], label="two points")
        dual_pts = block_points(dual_probe_blocks(space, grid61))
        # pullback-conjugate of the primal representer is identically zero,
        # the conjugate-back representer blows up away from the hull
        assert phi(space, a, grid61.points()) == pytest.approx(np.zeros(grid61.size))
        inside = star_theta(space, a, dual_pts, np.array([0.0, 0.0]))
        outside = star_theta(space, a, dual_pts, np.array([3.0, -3.0]))
        assert abs(inside) <= 1e-9
        assert outside >= 0.5

    def test_gap_against_pullback_conjugate(self, grid61):
        space = space_zero_pairing(2)
        a = PointSet([[-1.0, -1.0], [1.0, 1.0]], label="two points")
        gap, witness = remark_2_14_gap(fitz_triple(space, a, grid61))
        assert gap >= 0.5


class TestLemma213Suite:
    def test_diagonal_all_parts(self, prod_space, grid61, diag121):
        rep = lemma_2_13_suite(fitz_triple(prod_space, diag121, grid61))
        assert rep.passed
        for part in ("a_two_formulas", "b_phi_touches", "e_star_below_q",
                     "f_sandwich_upper", "f_sandwich_lower", "g_equalities_on_set"):
            assert rep.check(part).worst_residual <= 1e-6
        assert rep.check("h_phi_dominates_q").status == "pass"
        assert rep.check("i_touching_sets_equal").status == "pass"

    def test_singleton_maximality_parts_skipped(self, prod_space, grid61):
        rep = lemma_2_13_suite(fitz_triple(prod_space, singleton_origin(2), grid61))
        assert rep.passed  # skipped parts do not fail the suite
        assert rep.check("h_phi_dominates_q").status == "skipped"
        assert rep.check("i_touching_sets_equal").status == "skipped"
        for part in ("a_two_formulas", "b_phi_touches", "e_star_below_q",
                     "f_sandwich_upper", "f_sandwich_lower", "g_equalities_on_set"):
            assert rep.check(part).status == "pass"

    def test_helix_sample_in_r3(self, swap3):
        grid = default_grid(3, -3.0, 3.0, 17)
        hel = helix_set(n=61, span=3.0)
        rep = lemma_2_13_suite(fitz_triple(swap3, hel, grid))
        for part in ("a_two_formulas", "b_phi_touches", "e_star_below_q",
                     "f_sandwich_upper", "f_sandwich_lower", "g_equalities_on_set"):
            assert rep.check(part).status == "pass", part
            assert rep.check(part).worst_residual <= 1e-6


class TestTheorem215:
    def test_worked_example_with_phi_candidate(self, prod_space, grid61, worked_fn61):
        triple_h = fitz_triple(prod_space, diagonal_set(grid61), grid61)
        rep, = theorem_2_15_reports(prod_space, worked_fn61, [triple_h.phi_fn])
        assert rep.passed

    def test_star_candidate(self, prod_space, grid61, worked_fn61):
        triple_h = fitz_triple(prod_space, diagonal_set(grid61), grid61)
        rep, = theorem_2_15_reports(prod_space, worked_fn61, [triple_h.star_theta_fn])
        assert rep.passed

    def test_below_sandwich_rejected(self, prod_space, grid61, worked_fn61):
        low = GridFn.from_callable(
            grid61, lambda p: prod_space.q(np.atleast_2d(p)) - 1.0,
            form="below the sandwich", require_convex=False)
        with pytest.raises(BracketViolated):
            next(theorem_2_15_reports(prod_space, worked_fn61, [low]))

    def test_no_candidate_just_brackets(self, prod_space, worked_fn61):
        rep, = theorem_2_15_reports(prod_space, worked_fn61, [None])
        assert rep.passed


class TestSigmaMinorant:
    def test_phi_is_a_minorant(self, prod_space, grid61, diag121):
        triple = fitz_triple(prod_space, diag121, grid61)
        rep = sigma_minorant_test(triple, triple.phi_fn)
        assert rep.passed

    def test_affine_tangent_is_a_minorant(self, prod_space, grid61, diag121):
        a0 = np.array([1.0, 1.0])
        fn = GridFn.from_callable(
            grid61,
            lambda p: np.atleast_2d(p) @ prod_space.pairing @ a0 - prod_space.q(a0),
            form="affine tangent at a set point")
        rep = sigma_minorant_test(fitz_triple(prod_space, diag121, grid61), fn)
        assert rep.passed

    def test_above_q_on_set_rejected(self, prod_space, grid61, diag121):
        fn = GridFn.from_callable(
            grid61, lambda p: prod_space.q(np.atleast_2d(p)) + 1.0,
            form="above q", require_convex=False)
        with pytest.raises(NotAMinorant):
            sigma_minorant_test(fitz_triple(prod_space, diag121, grid61), fn)

    def test_triple_on_another_box_refused(self, prod_space, grid61, diag121):
        # same node count as h's grid, shifted box: the triple does not live on h's grid
        other = default_grid(2, -2.0, 4.0, 61)
        assert other.size == grid61.size
        triple = fitz_triple(prod_space, diag121, other)
        h = fitz_triple(prod_space, diag121, grid61).phi_fn
        with pytest.raises(GridMismatch):
            sigma_minorant_test(triple, h)


class TestConjugateBracket:
    def test_phi_star_dominates_theta(self, prod_space, grid61, diag121):
        from ssdkit.gridfn import sup_linear_minus

        triple = fitz_triple(prod_space, diag121, grid61)
        pts = grid61.points()
        sources = np.vstack([pts, diag121.points])
        vals = np.concatenate([triple.phi_fn.values,
                               phi(prod_space, diag121, diag121.points)])
        phi_star, _ = sup_linear_minus(sources, vals, triple.dual_points)
        theta_vals = theta(prod_space, diag121, triple.dual_points)
        assert np.all(phi_star >= theta_vals - 1e-9)


def _random_case(space_name, seed):
    """A named space, a random small grid and a random set of up to 7 points."""
    space = {"swap": lambda: product_space(1), "identity": lambda: space_identity(2),
             "zero": lambda: space_zero_pairing(2), "swap_r3": space_swap_r3}[space_name]()
    rng = np.random.default_rng(seed)
    grid = default_grid(space.dim, -2.0, 2.0, int(rng.integers(3, 10 if space.dim == 2 else 6)))
    a = PointSet(rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 8)), space.dim)))
    return space, grid, a


class TestPhiOnGrid:
    """`phi_on_grid` is the triple's phi, built without the dual side."""

    @pytest.mark.parametrize("space_name", ["swap", "identity", "zero", "swap_r3"])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_bitwise_the_triples_phi(self, space_name, seed):
        space, grid, a = _random_case(space_name, seed)
        alone, ref = phi_on_grid(space, a, grid), fitz_triple(space, a, grid).phi_fn
        assert alone.grid is grid and ref.grid is grid
        assert alone.form == ref.form == "phi"
        assert alone.values.tobytes() == ref.values.tobytes()
        off_nodes = np.random.default_rng(seed).uniform(-2.5, 2.5, size=(9, space.dim))
        assert alone.evaluate(off_nodes).tobytes() == ref.evaluate(off_nodes).tobytes()
        assert alone.evaluate(off_nodes).tobytes() == phi(space, a, off_nodes).tobytes()

    def test_runs_only_the_phi_sup(self, prod_space, grid61, diag121):
        with kernel_ledger() as ledger:
            phi_on_grid(prod_space, diag121, grid61)
        assert [e[:3] for e in ledger] == [("scattered", 121, 3721)]

    @pytest.mark.parametrize("build", [phi_on_grid, fitz_triple], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("grid_dim", [1, 3])
    def test_grid_of_another_dimension_refused_before_any_kernel(self, prod_space, diag121,
                                                                 build, grid_dim):
        grid = default_grid(grid_dim, -1.0, 1.0, 5)
        with kernel_ledger() as ledger:
            with pytest.raises(DimensionMismatch,
                               match=f"^the space has dimension 2 but the grid has "
                                     f"dimension {grid_dim}$"):
                build(prod_space, diag121, grid)
        assert ledger == []


class TestBlockRouting:
    """`fitz_triple` takes its sups over probe blocks; the stacked
    `star_theta` over the same rows is the reference."""

    @pytest.mark.parametrize("space_name", ["swap", "identity", "zero", "swap_r3"])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_star_theta_matches_stacked_probes(self, space_name, seed):
        from ssdkit.grids import image_box

        space, grid, a = _random_case(space_name, seed)
        triple = fitz_triple(space, a, grid)
        box = image_box(grid, space.pairing, inflate=1.5, include_source=True)
        stacked = np.vstack([box.points(), grid.points() @ space.pairing.T,
                             a.points @ space.pairing.T])
        assert np.array_equal(triple.dual_points, stacked)
        assert np.allclose(triple.dual_theta, theta(space, a, stacked), rtol=0.0, atol=1e-12)
        ref = star_theta(space, a, stacked, grid.points())
        assert np.allclose(triple.star_theta_fn.values, ref, rtol=0.0, atol=1e-12)

    def test_reports_record_sup_paths(self, prod_space, grid61, diag121):
        def sups(space, a):
            with kernel_ledger() as ledger:
                lemma_2_13_suite(fitz_triple(space, a, grid61))
            return [e[:3] for e in ledger if e[0] in ("separable", "scattered")]

        sep, to_set, n = ("separable", 3721, 3721), ("scattered", 3721, 121), 121
        assert sups(prod_space, diag121) == [
            # theta on the dual box, the image lattice and the set image; phi
            ("scattered", n, 3721), ("scattered", n, 3721), ("scattered", n, n),
            ("scattered", n, 3721),
            # star_theta over the three dual blocks, onto the grid, then phi on the set
            sep, sep, ("scattered", n, 3721), ("scattered", n, n),
            # star_theta onto the set
            to_set, to_set, ("scattered", n, n),
            # conjugate back: the mapped grid, then the mapped set
            sep, ("scattered", n, 3721),
            # phi's conjugate onto the grid and onto the set
            sep, ("scattered", n, 3721), to_set, ("scattered", n, n)]
        # the zero pairing maps the grid to one point: only the dual box pairs
        # separably, and the conjugate back scores a single distinct row
        zero = sups(space_zero_pairing(2), PointSet([[1.0, 1.0]]))
        assert [e for e in zero if e[0] == "separable"] == [sep]
        assert ("scattered", 1, 3721) in zero
