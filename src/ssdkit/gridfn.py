"""Extended-real functions sampled on a box grid, with conjugation machinery.

Conventions: values are row-major over the grid nodes, +inf marks points
outside the effective domain, -inf is forbidden.  Every sup/inf "over the
space" is a sup/inf over grid nodes.  Sups run through `sup_over_blocks`
(the separable or the scattered kernel); every inf here that is not a
quadratic collapse into a sup runs through `kernels._min_plus`, the one inf
kernel.  `nearest`, the pair scan with no adds, is the min over a sampled
set for the rest of the package.  The kernels live in `kernels`; this
module keeps their public entry points.  The brute-force double loops they
must match live in the tests as oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMismatch,
    HNotFinite,
    Improper,
    NoAffineMinorant,
    NotConvex,
)
from .grids import GridSpec
from .kernels import (
    Lattice,
    _cheapest_distinct,
    _min_plus,
    _offset_grid,
    _OnDifferences,
    _pair_scan,
    _rows,
    _separable_map,
    _sup_scattered,
    _sup_separable,
)
from .reports import VerifyReport
from .spaces import SsdSpace, bilinear_rows
from . import tolerances as tols

CONVEXITY_RTOL = 1e-8


class GridFn:
    """Proper extended-real function known at the nodes of a box grid.

    `exact`, when given, is a vectorized callable evaluating the same
    function anywhere (used by inf-convolution to avoid interpolation
    error); `form` is a short description of it.
    """

    def __init__(self, grid: GridSpec, values, exact=None, form: str = "",
                 require_convex: bool = True):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.shape[0] != grid.size:
            raise DimensionMismatch(f"expected {grid.size} values, got {vals.shape[0]}")
        if np.any(np.isneginf(vals)) or np.any(np.isnan(vals)):
            raise ValueError("values must avoid -inf and NaN")
        if not np.any(np.isfinite(vals)):
            raise Improper("function is identically +inf")
        self.grid = grid
        self.values = vals.copy()
        self.values.setflags(write=False)
        self.exact = exact
        self.form = form
        if require_convex:
            violation = convexity_defect(grid, vals)
            if violation is not None:
                raise NotConvex(f"midpoint convexity fails at node {violation[0]} "
                                f"(defect {violation[1]:.3e}); pass require_convex=False "
                                "to keep a nonconvex sample")

    @classmethod
    def _raw(cls, grid, values, exact=None, form=""):
        return cls(grid, values, exact=exact, form=form, require_convex=False)

    @classmethod
    def from_callable(cls, grid: GridSpec, fn, form: str = "", require_convex: bool = True):
        vals = np.asarray(fn(grid.points()), dtype=float)
        return cls(grid, vals, exact=fn, form=form, require_convex=require_convex)

    # -- basic queries ----------------------------------------------------------

    def values_nd(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape())

    def domain_points(self) -> np.ndarray:
        return self.grid.points()[np.isfinite(self.values)]

    def evaluate(self, points) -> np.ndarray:
        """Exact evaluation when tagged, multilinear interpolation otherwise.

        Interpolated values are +inf outside the box and on cells touching a
        +inf node.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.exact is not None:
            return np.asarray(self.exact(pts), dtype=float)
        return _interpolate(self.grid, self.values_nd(), pts)

    # -- serialization -----------------------------------------------------------

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"dim,{self.grid.dim}\n")
            for i in range(self.grid.dim):
                fh.write(f"axis,{i},{float(self.grid.lower[i])!r},"
                         f"{float(self.grid.upper[i])!r},{int(self.grid.num[i])}\n")
            fh.write("values\n" + "\n".join(map(repr, self.values.tolist())) + "\n")

    @classmethod
    def from_csv(cls, path):
        with open(path, encoding="utf-8") as fh:
            lines = list(filter(None, map(str.strip, fh)))
        dim, = _csv_fields(lines[0] if lines else "", "dim line", "dim,", int)
        if dim < 1:
            raise ValueError(f"expected dim line, got {lines[0]!r}")
        if len(lines) <= dim + 1:
            what = "values" if len(lines) > dim else f"axis {len(lines) - 1}"
            raise ValueError(f"gridfn csv ends before its {what} line")
        axes = [_csv_fields(line, f"axis line {i}", f"axis,{i},", float, float, int)
                for i, line in enumerate(lines[1:dim + 1])]
        if lines[dim + 1] != "values":
            raise ValueError(f"expected values line, got {lines[dim + 1]!r}")
        body = lines[dim + 2:]
        try:
            vals = np.fromiter(map(float, body), float)
        except ValueError:
            for line in body:  # raises at the line float() failed on
                _csv_fields(line, "a value", "", float)
            raise
        return cls._raw(GridSpec(*zip(*axes)), vals)


# the comma-separated fields of a CSV line after its `head`, each converted by
# its type; a ValueError that quotes the line if any of that fails
def _csv_fields(line, what, head, *types):
    try:
        if not line.startswith(head):
            raise ValueError
        return [t(p) for t, p in zip(types, line.removeprefix(head).split(","), strict=True)]
    except ValueError:
        raise ValueError(f"expected {what}, got {line!r}")


# -- convexity ------------------------------------------------------------------

def convexity_defect(grid: GridSpec, values):
    """First midpoint-convexity violation along axes and full diagonals.

    Midpoint tests run at every stride, so long-range domain gaps along a
    grid line are caught too.  Returns (flat_index_of_midpoint, defect) or
    None.  A finite midpoint between two finite ends must not exceed their
    mean; a +inf midpoint between finite ends is a domain-convexity
    violation.

    Two stages.  An O(N) certificate (`_convexity_certificate`) returns None
    at once when every node is finite and, for each direction with largest
    stride s_max, s_max^2 (max(raw_1, 0) + 4 eps M) + 4 eps M <= CONVEXITY_RTOL / 2,
    where raw_1 is the computed stride-1 defect and M = max |v|.  Otherwise
    the all-strides scan runs, so the first violation and its defect are the
    scan's.
    """
    vals = np.asarray(values, dtype=float).reshape(grid.shape())
    directions = _directions(vals.ndim)
    if _convexity_certificate(vals, directions):
        return None
    return _stride_scan(vals, directions)


def _directions(dim):
    """The axes, then the full diagonals (1, +-1, ..., +-1)."""
    out = [tuple(1 if i == ax else 0 for i in range(dim)) for ax in range(dim)]
    if dim > 1:
        out += [(1,) + signs for signs in itertools.product((1, -1), repeat=dim - 1)]
    return out


def _max_stride(shape, direction) -> int:
    """The largest stride with a midpoint test along the direction."""
    span = min(k for k, step in zip(shape, direction) if step != 0)
    return (span - 1) // 2


def _midpoint_slices(direction, stride):
    """(left, mid, right) index tuples of the stride's midpoint tests."""
    lo_s, mid_s, hi_s = [], [], []
    for step in direction:
        if step == 0:
            lo_s.append(slice(None)); mid_s.append(slice(None)); hi_s.append(slice(None))
        elif step == 1:
            lo_s.append(slice(None, -2 * stride))
            mid_s.append(slice(stride, -stride))
            hi_s.append(slice(2 * stride, None))
        else:
            lo_s.append(slice(2 * stride, None))
            mid_s.append(slice(stride, -stride))
            hi_s.append(slice(None, -2 * stride))
    return tuple(lo_s), tuple(mid_s), tuple(hi_s)


def _convexity_certificate(vals, directions) -> bool:
    """True when no midpoint test of any stride can fail, from the stride-1
    defects alone.  Along a grid line of finite nodes the exact stride-s
    defect is a sum of exact stride-1 defects with nonnegative weights that
    sum to s^2, and each computed defect is within 4 eps M of the exact one
    (M = max |v|).  So every computed defect is at most
    s_max^2 (max(raw_1, 0) + 4 eps M) + 4 eps M; where that is at most half
    of CONVEXITY_RTOL, no test exceeds CONVEXITY_RTOL * max(1, |ends|).  The
    other half covers the rounding of the bound itself and of subnormals."""
    top = float(np.max(np.abs(vals)))
    if not np.isfinite(top):  # a +inf node breaks the sum over the line
        return False
    slack = 4.0 * np.finfo(float).eps * top
    for direction in directions:
        s_max = _max_stride(vals.shape, direction)
        if s_max == 0:
            continue
        lo_s, mid_s, hi_s = _midpoint_slices(direction, 1)
        with np.errstate(over="ignore"):  # an overflow makes the bound inf: no certificate
            raw = vals[mid_s] - (0.5 * vals[lo_s] + 0.5 * vals[hi_s])
            bound = s_max ** 2 * (max(float(np.max(raw)), 0.0) + slack) + slack
        if not bound <= 0.5 * CONVEXITY_RTOL:
            return False
    return True


def _stride_scan(vals, directions):
    """The all-strides midpoint scan: (flat midpoint, defect) of the first
    violation, directions in order and strides ascending, or None."""
    flat = np.arange(vals.size).reshape(vals.shape)
    for direction in directions:
        for stride in range(1, _max_stride(vals.shape, direction) + 1):
            lo_s, mid_s, hi_s = _midpoint_slices(direction, stride)
            left = vals[lo_s]
            mid = vals[mid_s]
            right = vals[hi_s]
            with np.errstate(invalid="ignore"):
                raw = mid - (0.5 * left + 0.5 * right)
            # a violation needs finite ends and raw > CONVEXITY_RTOL * scale
            # with scale >= 1, so a slice with no raw value above the bare
            # tolerance has none (a +inf end gives -inf or NaN here)
            if not np.any(raw > CONVEXITY_RTOL):
                continue
            ends_finite = np.isfinite(left) & np.isfinite(right)
            scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
            defect = np.nan_to_num(np.where(ends_finite, raw, -np.inf), nan=-np.inf)
            bad = defect > CONVEXITY_RTOL * scale
            if np.any(bad):
                where = np.argmax(np.where(bad, defect, -np.inf))
                midx = flat[mid_s].ravel()[where]
                return int(midx), float(defect.ravel()[where])
    return None


def _interpolate(grid: GridSpec, values_nd, pts):
    n, d = pts.shape
    inside = grid.contains(pts)
    t = (pts - grid.lower) / grid.spacing
    i0 = np.clip(np.floor(t).astype(int), 0, grid.num - 2)
    frac = np.clip(t - i0, 0.0, 1.0)
    out = np.zeros(n)
    poisoned = np.zeros(n, dtype=bool)
    for corner in itertools.product((0, 1), repeat=d):
        idx = i0 + np.asarray(corner)
        w = np.ones(n)
        for ax in range(d):
            w *= frac[:, ax] if corner[ax] else (1.0 - frac[:, ax])
        v = values_nd[tuple(idx.T)]
        active = w > 1e-12
        poisoned |= active & ~np.isfinite(v)
        out += np.where(active & np.isfinite(v), w * np.where(np.isfinite(v), v, 0.0), 0.0)
    out[poisoned | ~inside] = np.inf
    return out


# -- sups and infs over blocks ---------------------------------------------------

def sup_linear_minus(source_points, offsets, targets):
    """For each target t: max_i [t . source_i - offsets_i], with argmax.

    Rows with +inf offset never attain the max; raises Improper if none is
    finite.  Ties break to the lowest source index.  The scattered kernel,
    `kernels._sup_scattered`, takes it.
    """
    return _sup_scattered(source_points, offsets, targets)


def block_points(blocks) -> np.ndarray:
    """The rows of the blocks, stacked in order."""
    return np.vstack([_rows(b) for b in blocks])


def _block_size(block) -> int:
    return block.size if isinstance(block, Lattice) else int(np.atleast_2d(block).shape[0])


def _sup_pair(source, offsets, target):
    """`sup_linear_minus` for one source block against one target block."""
    mapping = _separable_map(source, target)
    if mapping is None:
        rows = _rows(source)
        if (isinstance(source, Lattice) and source.matrix is not None
                and np.linalg.matrix_rank(source.matrix) < source.grid.dim):
            keep = _cheapest_distinct(rows, offsets)
            vals, args = sup_linear_minus(rows[keep], offsets[keep], _rows(target))
            return vals, keep[args]
        return sup_linear_minus(rows, offsets, _rows(target))
    # the effective targets z @ P form a tensor grid whose axis j is the
    # target grid's axis perm[j] times scale[j]; results come back in that
    # axis order and are transposed to the target grid's row-major order
    perm, scale = mapping
    z_axes = target.grid.axes()
    t_axes = [z_axes[i] * s for i, s in zip(perm, scale)]
    vals, args = _sup_separable(source.grid.axes(), offsets.reshape(source.grid.shape()), t_axes)
    shape = tuple(a.size for a in t_axes)
    order = np.argsort(perm)
    return (np.transpose(vals.reshape(shape), order).ravel(),
            np.transpose(args.reshape(shape), order).ravel())


def sup_over_blocks(sources, targets):
    """`sup_linear_minus` over stacked blocks, without stacking them.

    `sources` is a sequence of (block, offsets) pairs and `targets` a
    sequence of blocks, each a `Lattice` or an array of points.  Returns the
    max over all source rows for each target row, targets in concatenated
    order, with the argmax in concatenated source order.  A lattice pair
    whose score factors by axis runs the separable kernel, any other pair
    the scattered one (the ledger names which); blocks merge with a strict
    `>`, so ties go to the lowest concatenated index, as in one stacked call.
    """
    sources = [(b, np.asarray(off, dtype=float).ravel()) for b, off in sources]
    for block, off in sources:
        if off.size != _block_size(block):
            raise DimensionMismatch(f"block of {_block_size(block)} rows has {off.size} offsets")
    live = [np.any(np.isfinite(off)) for _, off in sources]
    if not any(live):
        raise Improper("no finite values to take a supremum over")
    vals_out, args_out = [], []
    for target in targets:
        best = arg = None
        start = 0
        for (block, off), ok in zip(sources, live):
            if ok:
                vals, args = _sup_pair(block, off, target)
                args += start
                if best is None:
                    best, arg = vals, args
                else:
                    better = vals > best
                    best = np.where(better, vals, best)
                    arg = np.where(better, args, arg)
            start += off.size
        vals_out.append(best)
        args_out.append(arg)
    return np.concatenate(vals_out), np.concatenate(args_out)


def _quadratic_collapse(space: SsdSpace, nodes, c_rows):
    """(B, target block) of the quadratic collapse of `min_values_plus_gauge`,
    or None when the norm has no quadratic form.  The target is the lattice
    c @ B when it pairs with the nodes separably, else the points c @ B."""
    w_full = space.norm.quadratic_weight(space.dim)
    if w_full is None:
        return None
    b = w_full + space.pairing
    if isinstance(c_rows, Lattice):
        target = Lattice(c_rows.grid, b if c_rows.matrix is None else c_rows.matrix @ b)
        if _separable_map(nodes, target) is not None:
            return b, target
    return b, _rows(c_rows) @ b


def min_values_plus_gauge(space: SsdSpace, add_on_nodes, nodes, c_rows):
    """For each c: min_j [add_on_nodes_j + p(c - nodes_j)], with argmin.

    `nodes` and `c_rows` are each a `Lattice` or an array of points.  When
    the norm has a quadratic form, the objective collapses to
    h(c) - max_j [(Bc).y_j - (h(y_j) + add_j)] with B the combined form,
    one `sup_over_blocks` pass; any other norm runs `_min_plus` with k = p
    (the kernel ledger records which kernel ran).
    """
    add = np.asarray(add_on_nodes, dtype=float).ravel()
    collapse = _quadratic_collapse(space, nodes, c_rows)
    if collapse is None:
        return _min_plus(add, nodes, c_rows, space.p)
    b, target = collapse
    y = _rows(nodes)
    h_nodes = 0.5 * bilinear_rows(y, b, y)
    del y  # a mapped lattice's rows are built again in the sup: one copy is live at a time
    vals, args = sup_over_blocks([(nodes, h_nodes + add)], [target])
    c = _rows(c_rows)
    h_c = 0.5 * bilinear_rows(c, b, c)
    return h_c - vals, args


def nearest(pairwise, x, y):
    """For each row x_i: min_j pairwise(x, y)[i, j] and its argmin j, ties
    to the lowest index.  `pairwise(x_block, y)` is the (rows, len(y))
    matrix of a block of x rows: a gemm kernel such as `spaces.pairwise_*`,
    or an `_OnDifferences` kernel.  The pair scan evaluates it in row blocks
    of the size `_pair_scan` gives each kind, never on all of x at once."""
    x, y = _rows(x), _rows(y)
    return _pair_scan(np.zeros(y.shape[0]), y, x, pairwise)


# -- conjugation --------------------------------------------------------------------

def conjugate(f: GridFn, dual_grid: GridSpec) -> GridFn:
    """Dot-product conjugate: f*(y) = max over grid nodes x of [x.y - f(x)]."""
    vals, _ = sup_over_blocks([(Lattice(f.grid), f.values)], [Lattice(dual_grid)])
    return GridFn._raw(dual_grid, vals, form="conjugate")


def intrinsic_conjugate(f: GridFn, space: SsdSpace, target_grid: GridSpec | None = None) -> GridFn:
    """Conjugate with the pairing in place of the dot product.

    Identical arithmetic to composing the dot-product conjugate with the
    canonical dual map; `conjugate_composition_gap` quantifies the grid gap
    between the two routes.  When the pairing permutes and rescales the
    axes, the source nodes x @ M form a tensor grid and the separable kernel
    takes the same max; otherwise the scattered kernel does.
    """
    if space.dim != f.grid.dim:
        raise DimensionMismatch("space and grid dimensions differ")
    grid = f.grid if target_grid is None else target_grid
    vals, _ = sup_over_blocks([(Lattice(f.grid, space.pairing), f.values)], [Lattice(grid)])
    return GridFn._raw(grid, vals, form="pairing-conjugate")


def conjugate_composition_gap(f: GridFn, space: SsdSpace, dual_grid: GridSpec) -> float:
    """Max gap between the direct pairing-conjugate and the interpolated
    dot-conjugate evaluated at the image of the grid under the dual map."""
    direct = intrinsic_conjugate(f, space)
    star = conjugate(f, dual_grid)
    image = f.grid.points() @ space.pairing.T
    composed = star.evaluate(image)
    ok = np.isfinite(composed) & np.isfinite(direct.values)
    if not np.any(ok):
        return np.inf
    return float(np.max(np.abs(composed[ok] - direct.values[ok])))


def inf_conv(h: GridFn, k, out_grid: GridSpec | None = None) -> GridFn:
    """(h inf-conv k)(x) = min over grid nodes y of [h(y) + k(x - y)].

    `k` may be a GridFn on the same grid (evaluated exactly when tagged,
    interpolated otherwise, +inf outside its box) or a plain vectorized
    callable.
    """
    if isinstance(k, GridFn) and not h.grid.same(k.grid):
        raise GridMismatch("inf_conv operands must share a grid")
    target = Lattice(h.grid if out_grid is None else out_grid)
    vals, _ = _min_plus(h.values, Lattice(h.grid), target,
                        k.evaluate if isinstance(k, GridFn) else k)
    return GridFn._raw(target.grid, vals, form="inf-conv")


def zero_infconv_residuals(f: GridFn, space: SsdSpace, c_rows) -> tuple[np.ndarray, np.ndarray]:
    """((f - q) inf-conv p)(c) for each row c of a `Lattice` or an array of
    points, with argmin nodes."""
    fq = f.values - space.q(f.grid.points())
    return min_values_plus_gauge(space, fq, Lattice(f.grid), c_rows)


def lsc_biconjugate_envelope(f: GridFn, slope_grid: GridSpec | None = None) -> GridFn:
    """f** by two dot-product conjugations; equals the closed convex envelope
    of the grid samples up to slope-grid resolution, and never exceeds f."""
    if slope_grid is None:
        slope_grid = default_slope_grid(f)
    star = conjugate(f, slope_grid)
    if not np.any(np.isfinite(star.values)):
        raise NoAffineMinorant("conjugate is +inf on the whole slope grid")
    vals, _ = sup_over_blocks([(Lattice(slope_grid), star.values)], [Lattice(f.grid)])
    return GridFn._raw(f.grid, vals, form="biconjugate")


def default_slope_grid(f: GridFn) -> GridSpec:
    """Slope box covering the observed one-sided slopes of f, slightly
    inflated, with f's node counts."""
    vals = f.values_nd()
    h = f.grid.spacing
    lo, hi = [], []
    for ax in range(f.grid.dim):
        with np.errstate(invalid="ignore"):
            d = np.diff(vals, axis=ax) / h[ax]
        d = d[np.isfinite(d)]
        if d.size == 0:
            lo.append(-1.0)
            hi.append(1.0)
            continue
        lo.append(float(np.min(d)))
        hi.append(float(np.max(d)))
    lo, hi = np.asarray(lo), np.asarray(hi)
    span = np.maximum(hi - lo, 1e-6)
    lo -= 0.05 * span
    hi += 0.05 * span
    return GridSpec(lo, hi, f.grid.num)


# -- the two representability predicates --------------------------------------------

def is_vz(f: GridFn, space: SsdSpace, c_grid: GridSpec | None = None) -> VerifyReport:
    """Zero inf-convolution test: (f - q) inf-conv p vanishes on the grid.

    Also asserts the corollary inf(f - q) = 0.  The tolerance is a
    spacing-scaled bound from f's observed Lipschitz constant
    (`vz_tolerance`) and is recorded in the report.
    """
    tol = tols.vz_tolerance(f)
    c_block = Lattice(c_grid or f.grid)
    conv, _ = zero_infconv_residuals(f, space, c_block)
    report = VerifyReport(suite="is_vz", grid=f.grid.to_dict(),
                          tolerances={"tol": tol},
                          meta={"space": space.label, "fn": f.form})
    report.add_worst("zero_infconv", "eq_2_5_2", np.abs(conv), c_block.points(), tol)
    gap = f.values - space.q(f.grid.points())
    m = float(np.min(gap))
    report.add("zero_gap_infimum", "eq_2_5_3", abs(m) <= tol, residual=abs(m),
               witness=f.grid.points()[int(np.argmin(gap))])
    return report


def is_mas(f: GridFn, space: SsdSpace) -> VerifyReport:
    """Two-sided minorization test, each side held to ATOL_GRID: f >= q on
    the grid and the conjugate dominates the dual quadratic form on the
    image lattice.

    The dual-side inequality is evaluated at the image of the grid under the
    canonical map, where it coincides with the pairing-conjugate dominating q
    (the map is onto in finite dimensions); probing an inflated dual box
    instead would only report truncation artifacts of the grid sup.
    """
    tol = tols.ATOL_GRID
    pts = f.grid.points()
    report = VerifyReport(suite="is_mas", grid=f.grid.to_dict(),
                          tolerances={"tol": tol},
                          meta={"space": space.label, "fn": f.form, "dual_side": "image lattice"})
    report.add_worst("primal_minorization", "def_4_8", space.q(pts) - f.values, pts, tol)
    fat = intrinsic_conjugate(f, space)
    dgap = fat.values - space.q(pts)
    j = int(np.argmin(dgap))
    report.add("dual_minorization", "def_4_8", float(dgap[j]) >= -tol,
               residual=max(0.0, -float(dgap[j])), witness=space.iota_apply(pts[j]))
    return report


def rockafellar_sum_identity(f: GridFn, h: GridFn, dual_grid: GridSpec,
                             tol: float | None = None) -> VerifyReport:
    """Conjugate-of-sum identity: (f + h)* equals the exact inf-convolution
    of f* and h* at every dual grid point, h finite and convex."""
    if not f.grid.same(h.grid):
        raise GridMismatch("operands must share a grid")
    if not np.all(np.isfinite(h.values)):
        raise HNotFinite("h must be finite on the whole grid")
    lhs = conjugate(GridFn._raw(f.grid, f.values + h.values), dual_grid)
    fstar = conjugate(f, dual_grid)
    hstar = conjugate(h, _offset_grid(dual_grid))
    ys = dual_grid.points()
    # pair scan, not the offset table: h* at offset nodes moves the RHS by up to 9.1e-15
    rhs, _ = _pair_scan(fstar.values, ys, ys, _OnDifferences(hstar.evaluate))
    if tol is None:
        lip = tols.observed_lipschitz(lhs.values_nd(), dual_grid.spacing)
        tol = tols.half_slope_tol(lip, dual_grid)
    resid = np.abs(lhs.values - rhs)
    report = VerifyReport(suite="rockafellar_sum", grid=dual_grid.to_dict(),
                          tolerances={"tol": tol})
    report.add_worst("conjugate_of_sum", "lemma_4_5",
                     np.where(np.isfinite(resid), resid, -np.inf), ys, tol)
    return report
