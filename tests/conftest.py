import hashlib
import itertools
import tracemalloc
from dataclasses import dataclass
from unittest import mock

# first, so that numpy loads OpenBLAS with one thread, as the CLI does
import ssdkit  # noqa: F401
import numpy as np
import pytest

from ssdkit import GridFn, product_space
from ssdkit.duality import density_report
from ssdkit.catalog import (
    default_grid,
    diagonal_set,
    half_sq_norm_fn,
    space_identity,
    space_swap_r3,
)


@pytest.fixture(scope="session")
def prod_space():
    """R^2 = R x R with the swap pairing and the tau=1 quadratic split norm."""
    return product_space(1, kind="two", tau=1.0)


@pytest.fixture(scope="session")
def swap3():
    return space_swap_r3()


@pytest.fixture(scope="session")
def ident2():
    return space_identity(2)


@pytest.fixture(scope="session")
def grid61():
    return default_grid(2, -3.0, 3.0, 61)


@pytest.fixture(scope="session")
def grid121():
    return default_grid(2, -3.0, 3.0, 121)


@pytest.fixture(scope="session")
def density61(prod_space, grid61):
    """The image-density report of the product plane on `grid61`."""
    return density_report(prod_space, grid61)


@pytest.fixture(scope="session")
def diag121(grid61):
    return diagonal_set(grid61)


@pytest.fixture(scope="session")
def worked_fn61(grid61):
    return half_sq_norm_fn(grid61)


@pytest.fixture(scope="session")
def worked_fn121(grid121):
    return half_sq_norm_fn(grid121)


def cyclic_pairing_matrix():
    """The non-symmetric cyclic form on R^3 (rejected by construction)."""
    return np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def indicator_fn(grid, points):
    """Indicator of the given points snapped to grid nodes (0 there, +inf off)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.full(grid.size, np.inf)
    for p in pts:
        vals[grid.nearest_index(p)] = 0.0
    return GridFn(grid, vals, form="indicator", require_convex=False)


def brute_force_conjugate(points, values, targets):
    """O(N*M) reference conjugate written as an explicit double loop."""
    out = np.empty(len(targets))
    for j, y in enumerate(targets):
        best = -np.inf
        for x, fx in zip(points, values):
            if np.isfinite(fx):
                best = max(best, float(np.dot(x, y)) - float(fx))
        out[j] = best
    return out


def brute_force_min_plus(add, sources, targets, k):
    """Reference inf: min_j [add_j + k(c_i - y_j)] with k evaluated on every
    difference vector, then a running min over the finite sources in index
    order with a strict `<`, so ties keep the lowest source index (a target
    with no finite candidate gets the first finite source)."""
    add = np.asarray(add, dtype=float)
    sources, targets = np.atleast_2d(sources), np.atleast_2d(targets)
    diffs = targets[:, None, :] - sources[None, :, :]
    kv = np.asarray(k(diffs.reshape(-1, sources.shape[1])), dtype=float)
    kv = kv.reshape(targets.shape[0], sources.shape[0])
    finite = np.flatnonzero(np.isfinite(add))
    best = np.full(targets.shape[0], np.inf)
    arg = np.full(targets.shape[0], finite[0])
    for j in finite:
        cand = add[j] + kv[:, j]
        better = cand < best
        best[better] = cand[better]
        arg[better] = j
    return best, arg


def dense_sphere_scan(space, ys):
    """Reference split-norm dual norms of the rows of ys: the radii of each
    row's two halves against every point of the 200 001-point planar unit
    sphere, scored elementwise as r1 a + r2 b, no matrix product."""
    norm = space.norm
    n = space.dim // 2
    ys = np.atleast_2d(ys)
    a = np.array([np.linalg.norm(y[:n]) for y in ys])
    b = np.array([np.linalg.norm(y[n:]) for y in ys])
    ts = np.linspace(0.0, np.pi / 2.0, 200_001)
    r1, r2 = np.cos(ts), np.sin(ts)
    lengths = norm.scale * norm.combine_halves(r1, r2)
    r1, r2 = r1 / lengths, r2 / lengths
    return np.max(r1[:, None] * a[None, :] + r2[:, None] * b[None, :], axis=0)


def triu_min_q(space, points):
    """Reference min of q(a_i - a_j) over i < j from the full dense matrix,
    with the lowest (i, j) among equal minima."""
    from ssdkit.spaces import pairwise_q

    dense = pairwise_q(space, points, points)
    iu = np.triu_indices(points.shape[0], k=1)
    k = int(np.argmin(dense[iu]))
    return float(dense[iu][k]), (int(iu[0][k]), int(iu[1][k]))


def greedy_dedup(pts, tol=1e-12):
    """Reference PointSet dedup: keep a row unless an earlier kept row lies
    within Chebyshev distance tol; first occurrences, original order."""
    keep = []
    for i in range(pts.shape[0]):
        if not any(np.max(np.abs(pts[i] - pts[j])) <= tol for j in keep):
            keep.append(i)
    return pts[keep].copy()



def loop_sweep_axis(a, table, b):
    """Reference per-axis sweep: a running max over the source index j with
    a strict `>`, so ties keep the lowest j.
    best[p, s, q] = max_j [a_j b_s + table[p, j, q]]."""
    p_len, n, q_len = table.shape
    best = np.full((p_len, b.size, q_len), -np.inf)
    arg = np.zeros((p_len, b.size, q_len), dtype=np.intp)
    for j in range(n):
        cand = (a[j] * b)[None, :, None] + table[:, j, None, :]
        better = cand > best
        np.copyto(best, cand, where=better)
        np.copyto(arg, j, where=better)
    return best, arg


def loop_rescore(src_axes, neg, tgt_axes, args):
    """Reference re-score: one pass per 3^d neighbour step of the sweep
    winner, keeping the max of t . x + neg(x), ties to the lowest flat index."""
    src_shape = tuple(a.size for a in src_axes)
    tgt_shape = tuple(b.size for b in tgt_axes)
    rows = np.arange(args.size)
    t = np.stack([b[i] for b, i in zip(tgt_axes, np.unravel_index(rows, tgt_shape))], axis=1)
    win = np.unravel_index(args, src_shape)
    best = np.full(rows.size, -np.inf)
    best_arg = np.full(rows.size, np.iinfo(np.intp).max)
    for step in itertools.product((-1, 0, 1), repeat=len(src_shape)):
        idx = tuple(np.clip(i + s, 0, k - 1) for i, s, k in zip(win, step, src_shape))
        flat = np.ravel_multi_index(idx, src_shape)
        x = np.stack([a[i] for a, i in zip(src_axes, idx)], axis=1)
        score = np.matmul(t[:, None, :], x[:, :, None])[:, 0, 0] + neg[flat]
        better = (score > best) | ((score == best) & (flat < best_arg))
        np.copyto(best, score, where=better)
        np.copyto(best_arg, flat, where=better)
    return best, best_arg


def scan_convexity_defect(shape, values, rtol):
    """Reference midpoint-convexity scan: every direction and stride with the
    scaled tolerance rtol * max(1, |left|, |right|); (flat midpoint, defect)
    of the first violation or None."""
    vals = np.asarray(values, dtype=float).reshape(shape)
    dim = vals.ndim
    directions = [tuple(1 if i == ax else 0 for i in range(dim)) for ax in range(dim)]
    if dim > 1:
        for signs in itertools.product((1, -1), repeat=dim - 1):
            directions.append((1,) + signs)
    flat = np.arange(vals.size).reshape(vals.shape)
    for direction in directions:
        span = min(vals.shape[ax] for ax in range(dim) if direction[ax] != 0)
        for stride in range(1, (span - 1) // 2 + 1):
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
            left = vals[tuple(lo_s)]
            mid = vals[tuple(mid_s)]
            right = vals[tuple(hi_s)]
            ends_finite = np.isfinite(left) & np.isfinite(right)
            if not np.any(ends_finite):
                continue
            scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
            with np.errstate(invalid="ignore"):
                defect = np.where(ends_finite, mid - (0.5 * left + 0.5 * right), -np.inf)
            defect = np.nan_to_num(defect, nan=-np.inf)
            bad = defect > rtol * scale
            if np.any(bad):
                where = np.argmax(np.where(bad, defect, -np.inf))
                midx = flat[tuple(mid_s)].ravel()[where]
                return int(midx), float(defect.ravel()[where])
    return None


# -- temporary-chain oracles of the in-place kernels -----------------------------

def chain_bilinear_rows(x, m, y):
    """x_n . m y_n summed term by term, i outer and j inner, each term a fresh
    product xi * mij * y_j added to a running sum from +0.0."""
    out = np.zeros(x.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        for i, row in enumerate(np.asarray(m, dtype=float).tolist()):
            for j, mij in enumerate(row):
                out += x[:, i] * mij * y[:, j]
    return out


def chain_pairwise_sq_dists(x, y):
    sq = (np.sum(x**2, axis=1)[:, None] - 2.0 * (x @ y.T)) + np.sum(y**2, axis=1)[None, :]
    return np.maximum(sq, 0.0)


def chain_pairwise_q(space, x, y):
    m = space.pairing
    return (0.5 * chain_bilinear_rows(x, m, x)[:, None] - x @ m @ y.T
            + 0.5 * chain_bilinear_rows(y, m, y)[None, :])


def chain_pairwise_g(space, x, y):
    norm = space.norm
    w = norm.quadratic_weight(space.dim)
    if w is not None:
        return (0.5 * chain_bilinear_rows(x, w, x)[:, None] - x @ w @ y.T
                + 0.5 * chain_bilinear_rows(y, w, y)[None, :])
    n = space.dim // 2
    a = np.sqrt(chain_pairwise_sq_dists(x[:, :n], y[:, :n]))
    b = np.sqrt(chain_pairwise_sq_dists(x[:, n:], y[:, n:]))
    return 0.5 * (norm.scale * norm.combine_halves(a, b)) ** 2


def chain_pairwise_p(space, x, y):
    return chain_pairwise_g(space, x, y) + chain_pairwise_q(space, x, y)


def chain_pairwise_norm(space, x, y):
    return np.sqrt(np.maximum(2.0 * chain_pairwise_g(space, x, y), 0.0))


def lexsort_distinct_rows(x):
    """Reference dedup of bitwise-equal rows by a lexsort of the bit patterns:
    (first, inverse) with first in sorted-key order."""
    keys = x.view(np.int64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(order.size, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def take_along_sup_separable(src_axes, offsets_nd, tgt_axes):
    """Reference separable sup in one block: per-axis sweeps read with
    `np.take_along_axis`, the argmax composed with `np.take_along_axis`, and
    the winner and its 3^d clipped neighbours re-scored with `np.vecdot`,
    the first maximum over the steps kept."""
    src_axes = [np.asarray(a, dtype=float) for a in src_axes]
    tgt_axes = [np.asarray(b, dtype=float) for b in tgt_axes]
    offsets = np.asarray(offsets_nd, dtype=float).ravel()
    neg = np.where(np.isfinite(offsets), -offsets, -np.inf)
    table = neg.reshape(-1, src_axes[-1].size, 1)
    arg, stride = None, 1
    for k in range(len(src_axes) - 1, -1, -1):
        a, b = src_axes[k], tgt_axes[k]
        cand = np.multiply.outer(b, a)[None, :, None, :] + table.transpose(0, 2, 1)[:, None]
        j = np.argmax(cand, axis=-1)
        table = np.take_along_axis(cand, j[..., None], axis=-1)[..., 0]
        arg = j if arg is None else j * stride + np.take_along_axis(arg, j, axis=1)
        stride *= a.size
        if k:
            shape = (-1, src_axes[k - 1].size, table.shape[1] * table.shape[2])
            table, arg = table.reshape(shape), arg.reshape(shape)
    args = arg.ravel()
    dim = len(src_axes)
    src_shape = tuple(a.size for a in src_axes)
    tgt_shape = tuple(b.size for b in tgt_axes)
    strides = np.cumprod((1,) + src_shape[:0:-1])[::-1]
    rows = np.arange(args.size)
    t = np.stack([b[i] for b, i in zip(tgt_axes, np.unravel_index(rows, tgt_shape))], axis=1)
    x = np.empty((3,) * dim + (rows.size, dim))
    flat = np.zeros((1,) * dim + (rows.size,), dtype=np.intp)
    for ax, (a, n, st, i) in enumerate(zip(src_axes, src_shape, strides,
                                           np.unravel_index(args, src_shape))):
        near = np.clip(i + np.array([[-1], [0], [1]]), 0, n - 1).reshape(
            (1,) * ax + (3,) + (1,) * (dim - ax - 1) + (rows.size,))
        x[..., ax] = a[near]
        flat = flat + near * st
    flat = flat.reshape(-1, rows.size)
    score = np.vecdot(t, x.reshape(-1, rows.size, dim)) + neg[flat]
    k = np.argmax(score, axis=0)
    return score[k, rows], flat[k, rows]


# -- the pair scan's difference blocks ----------------------------------------------

@dataclass
class DifferenceScan:
    """One `_pair_scan` call with an `_OnDifferences` kernel: its values and
    argmins, the blocks its point kernel was called on, a digest of every
    value the point kernel returned, in row order, and its tracemalloc peak
    (what the scan allocated above what was live when it began)."""

    vals: np.ndarray
    args: np.ndarray
    blocks: int
    digest: str
    peak: int


def difference_scans(run, score_block=None):
    """Call `run()` and return a `DifferenceScan` per difference-kernel pair
    scan that `gridfn.nearest` made in it, with `kernels._SCORE_BLOCK` patched
    to `score_block` if given."""
    from ssdkit import gridfn, kernels

    scan, scans = gridfn._pair_scan, []

    def traced(add, y, c, k):
        if not isinstance(k, kernels._OnDifferences):
            return scan(add, y, c, k)
        blocks, digest = [], hashlib.sha256()

        def point(d):
            out = np.ascontiguousarray(k.k(d), dtype=float)
            blocks.append(d.shape[0])
            digest.update(memoryview(out))
            return out

        tracemalloc.start()
        try:
            vals, args = scan(add, y, c, kernels._OnDifferences(point))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scans.append(DifferenceScan(vals, args, len(blocks), digest.hexdigest(), peak))
        return vals, args

    block = kernels._SCORE_BLOCK if score_block is None else score_block
    with mock.patch.object(gridfn, "_pair_scan", traced), \
            mock.patch.object(kernels, "_SCORE_BLOCK", block):
        run()
    return scans


def assert_scans_bitwise_one_block(run):
    """The difference scans of `run()` walk several blocks and give bitwise
    the kernel values, minima and argmins of one block (`_SCORE_BLOCK` =
    2^30).  The kernel values catch what a min can hide: a BLAS call in the
    point kernel that rounds a few entries by the block's row count."""
    got, want = difference_scans(run), difference_scans(run, score_block=1 << 30)
    assert [s.blocks for s in want] == [1] * len(got)
    for g, w in zip(got, want):
        assert g.blocks > 1
        assert g.digest == w.digest
        assert np.array_equal(g.vals.view(np.int64), w.vals.view(np.int64))
        assert np.array_equal(g.args, w.args)
