"""The block machinery under `gridfn`'s sups and infs.

Four kernels score grid-sized problems in bounded blocks: the separable
sweep (a sup between lattices whose score factors by axis), the scattered
sup (any other sup), the offset table (a min-plus between a lattice and
itself) and the pair scan (any other min).  `_min_plus` is the one inf
kernel, choosing between the offset table and the pair scan.
Minimizer/maximizer ties break to the lowest row-major index so witnesses
are deterministic.  Each kernel call records itself in an open
`kernel_ledger`; the scattered sup and the pair scan run OpenBLAS on one
thread (`blas.one_thread`).  The public entry points, and the spans a
tracer times, are `gridfn`'s.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blas import one_thread
from .errors import Improper
from .grids import GridSpec, point_budget

# Score block of `_sup_scattered` and `_pair_scan`, in entries: 2 MB, one
# core's L2 cache on the 2-core Xeon it was sized on.  gemm rounds t.x by
# the block's shape, so a new size must leave every report bitwise unchanged.
_SCORE_BLOCK = 1 << 18
# Arrays of its difference block's size that an `_OnDifferences` kernel
# builds at most: the differences, then k's squares, norms and products.
_DIFFERENCE_ARRAYS = 8
# Candidate block of `_sweep_axis`, `_rescore` and `_offset_scan`: smaller,
# since each is one of several temporaries of its size.
_CANDIDATE_BLOCK = 1 << 17

_ledger = None  # the entry list of the innermost open `kernel_ledger`


@contextmanager
def kernel_ledger():
    """Yield a fresh list that each kernel call in the block appends
    (kernel, sources, targets, seconds) to: "scattered", "separable",
    "min-plus" or "pairwise", the rows it scored (finite sources; distinct
    targets for "scattered") and its time.  Restores the outer ledger on exit."""
    global _ledger
    outer, _ledger = _ledger, []
    try:
        yield _ledger
    finally:
        _ledger = outer


def _record(kernel, sources, targets, t0):
    """Ledger one kernel call that began at `time.perf_counter()` `t0`."""
    if _ledger is not None:
        _ledger.append((kernel, sources, targets, time.perf_counter() - t0))


def _row_blocks(m, rows):
    """(start, stop) of each block of a loop over m rows, `rows` a block
    (at least 2), with a lone last row joined to the block before it: numpy
    hands a 1-row product to gemv, which rounds unlike gemm."""
    stops = [*range(rows, m - 1, rows), m] if m else []
    return zip([0, *stops], stops)


@one_thread
def _sup_scattered(source_points, offsets, targets):
    """`gridfn.sup_linear_minus`, in blocks: bitwise-equal target rows are
    scored once, in `_row_blocks` of `_SCORE_BLOCK // n` rows, n the finite
    offsets, the block its reports were verified at (gemm rounds t.x by the
    block's shape; ROADMAP, Known limits).  Every block's gemm is written
    into one buffer."""
    t0 = time.perf_counter()
    offsets = np.asarray(offsets, dtype=float).ravel()
    finite = np.isfinite(offsets)
    if not np.any(finite):
        raise Improper("no finite values to take a supremum over")
    x = np.ascontiguousarray(source_points, dtype=float)
    back = np.flatnonzero(finite)
    if back.size < offsets.size:
        x, offsets = x[finite], offsets[finite]
    targets = np.ascontiguousarray(np.atleast_2d(np.asarray(targets, dtype=float)))
    first, inverse = _distinct_rows(targets)
    collapse = first.size < targets.shape[0]
    if collapse:
        targets = targets[first]
    m, n = targets.shape[0], x.shape[0]
    vals = np.empty(m)
    args = np.empty(m, dtype=int)
    chunk = max(2, _SCORE_BLOCK // n)
    buf = np.empty(min(m, chunk + 1) * n)
    for start, stop in _row_blocks(m, chunk):
        t = targets[start:stop]
        scores = buf[:t.shape[0] * n].reshape(t.shape[0], n)
        np.matmul(t, x.T, out=scores)
        scores -= offsets[None, :]
        a = np.argmax(scores, axis=1)
        vals[start:stop] = scores[np.arange(t.shape[0]), a]
        args[start:stop] = back[a]
    _record("scattered", n, m, t0)
    if collapse:
        return vals[inverse], args[inverse]
    return vals, args


def _distinct_rows(x):
    """(first, inverse) over bitwise-equal rows of a C-contiguous float
    matrix: x[first] holds each distinct row once and x[first][inverse] is x.

    Rows in strictly ascending lexicographic float order, as a plain
    lattice's, are distinct: (arange, arange) after an O(N d) test.  Equal
    rows, rows equal but for the sign of a zero, and NaN fail the test and
    take the lexsort of the bit patterns."""
    lo, hi = x[:-1].T, x[1:].T
    up = lo[-1] < hi[-1]
    for a, b in zip(lo[-2::-1], hi[-2::-1]):  # columns, last but one first
        up = (a < b) | ((a == b) & up)
    if np.all(up):
        every = np.arange(x.shape[0])
        return every, every
    keys = x.view(np.int64)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(order.size, dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _cheapest_distinct(x, offsets):
    """Ascending indices of one row per bitwise-distinct row of x: the one
    with the lowest offset, the lowest index among equal offsets.  A sup over
    these rows has the values and argmax of the sup over all of x."""
    _, group = _distinct_rows(x)
    order = np.lexsort((np.arange(group.size), offsets, group))
    first = np.ones(order.size, dtype=bool)
    np.not_equal(group[order[1:]], group[order[:-1]], out=first[1:])
    return np.sort(order[first])


@dataclass(frozen=True, eq=False)
class Lattice:
    """A block of sup sources or targets laid out on a box grid: the nodes
    `grid.points() @ matrix`, row-major over the grid (no matrix: the grid
    nodes themselves).  Any other block is an array of scattered points."""

    grid: GridSpec
    matrix: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.grid.size

    def points(self) -> np.ndarray:
        pts = self.grid.points()
        return pts if self.matrix is None else pts @ self.matrix


def _rows(block) -> np.ndarray:
    return block.points() if isinstance(block, Lattice) else np.atleast_2d(
        np.asarray(block, dtype=float))


# -- the separable sweep ----------------------------------------------------------

def _separable_map(source, target):
    """(perm, scale) when the score t . x between two lattices factors by
    axis; None otherwise.  With t = z @ N and x = y @ M over grid nodes z, y
    the score is (z @ P) . y with P = N @ M.T, so the pair is separable when
    P has one nonzero per row and column (`_pairing_permutation`)."""
    if not (isinstance(source, Lattice) and isinstance(target, Lattice)):
        return None
    m = np.eye(source.grid.dim) if source.matrix is None else source.matrix
    n = np.eye(target.grid.dim) if target.matrix is None else target.matrix
    p = n @ m.T
    if p.shape[0] != p.shape[1]:
        return None
    return _pairing_permutation(p)


def _pairing_permutation(pairing):
    """(perm, scale) when the matrix has exactly one nonzero in every row and
    column, M[perm[j], j] = scale[j]; None otherwise.  Then the nodes x @ M
    of a tensor grid form a tensor grid again, with axis j the grid's axis
    perm[j] times scale[j] (a signed permutation has scale +-1)."""
    nz = pairing != 0
    if not (np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)):
        return None
    perm = np.argmax(nz, axis=0)
    return perm, pairing[perm, np.arange(perm.size)]


def _sup_separable(src_axes, offsets_nd, tgt_axes):
    """`sup_linear_minus` with tensor-grid sources and targets, one axis at a
    time: max_x [t . x - f(x)] = max_x1 [x1 t1 + max_x2 [x2 t2 - f(x1, x2)]].

    Axes may be descending.  Offsets are shaped like the source grid; the
    results are row-major over the target grid, argmax row-major over the
    source grid.  The last source axis is swept first; each step takes the
    first maximum over the source index, so ties go to the lowest row-major
    index, and builds its candidates in blocks of at most `_CANDIDATE_BLOCK`
    entries.  The per-axis sums round
    differently from t . x, so the winner and its 3^d grid neighbours are
    re-scored as t . x - f(x) and the best kept (ties to the lowest flat
    index): a near-tie between neighbouring nodes then resolves on the same
    score `sup_linear_minus` takes the max of.
    """
    t0 = time.perf_counter()
    src_axes = [np.asarray(a, dtype=float) for a in src_axes]
    tgt_axes = [np.asarray(b, dtype=float) for b in tgt_axes]
    offsets = np.asarray(offsets_nd, dtype=float).ravel()
    finite = np.isfinite(offsets)
    neg = np.where(finite, -offsets, -np.inf)
    table = neg.reshape(-1, src_axes[-1].size, 1)
    arg = None
    stride = 1
    for k in range(len(src_axes) - 1, -1, -1):
        table, j = _sweep_axis(src_axes[k], table, tgt_axes[k])
        # arg[p, j[p, s, q], q]: the later axes' argmax at j
        arg = j if arg is None else j * stride + arg[
            np.arange(j.shape[0])[:, None, None], j, np.arange(j.shape[2])]
        stride *= src_axes[k].size
        if k:
            shape = (-1, src_axes[k - 1].size, table.shape[1] * table.shape[2])
            table, arg = table.reshape(shape), arg.reshape(shape)
    vals, args = _rescore(src_axes, neg, tgt_axes, arg.ravel())
    _record("separable", np.count_nonzero(finite), vals.size, t0)
    return vals, args


def _sweep_axis(a, table, b):
    """best[p, s, q] = max_j [a_j b_s + table[p, j, q]] with its lowest argmax j.

    Candidates are built in blocks with j on the last, contiguous axis.
    `np.argmax` returns the first maximum, and the value is read at it, so
    values and argmax are those of a running max with a strict `>` over j
    (-inf rows give j = 0, and -0.0 against 0.0 keeps the earlier one)."""
    p_len, n, q_len = table.shape
    m = b.size
    ab = np.multiply.outer(b, a)
    tt = np.ascontiguousarray(table.transpose(0, 2, 1))
    best = np.empty((p_len, m, q_len))
    arg = np.empty((p_len, m, q_len), dtype=np.intp)
    sc = min(m, max(1, _CANDIDATE_BLOCK // n))
    qc = min(q_len, max(1, _CANDIDATE_BLOCK // (n * sc)))
    pc = min(p_len, max(1, _CANDIDATE_BLOCK // (n * sc * qc)))
    buf = np.empty(pc * sc * qc * n)
    for p0 in range(0, p_len, pc):
        for s0 in range(0, m, sc):
            for q0 in range(0, q_len, qc):
                part = tt[p0:p0 + pc, None, q0:q0 + qc]
                w = ab[s0:s0 + sc, None]
                shape = (part.shape[0], w.shape[0], part.shape[2], n)
                cand = buf[:shape[0] * shape[1] * shape[2] * n].reshape(shape)
                np.add(w, part, out=cand)
                j = np.argmax(cand, axis=-1)
                best[p0:p0 + pc, s0:s0 + sc, q0:q0 + qc] = cand.reshape(-1, n)[
                    np.arange(j.size), j.ravel()].reshape(j.shape)
                arg[p0:p0 + pc, s0:s0 + sc, q0:q0 + qc] = j
    return best, arg


def _rescore(src_axes, neg, tgt_axes, args):
    """Score each target against its sweep winner and the winner's 3^d grid
    neighbours as t . x + neg(x), all steps in one batch per chunk of
    targets; keep the max, ties to the lowest flat index.

    Per axis, one (3, rows) index array holds the winner's index stepped by
    -1, 0, +1 and clipped to the grid; broadcast against each other they
    give the 3^d steps in row-major step order.  `np.vecdot` rounds t . x
    bitwise like the 1 x d @ d x 1 `np.matmul` of `sup_linear_minus`'s
    reference loop.  Clipping repeats nodes, but each distinct node first
    appears in ascending flat order, so `np.argmax` over the steps (the
    first maximum) picks the lowest flat index among ties."""
    dim = len(src_axes)
    src_shape = tuple(a.size for a in src_axes)
    tgt_shape = tuple(b.size for b in tgt_axes)
    strides = np.cumprod((1,) + src_shape[:0:-1])[::-1]
    step = np.array([[-1], [0], [1]])
    m = args.size
    vals = np.empty(m)
    best_args = np.empty(m, dtype=int)
    # a chunk's temporaries, one of 3^d * rows * d entries and a few of
    # 3^d * rows, stay within one candidate block in total
    chunk = max(1, _CANDIDATE_BLOCK // (8 * 3 ** dim * dim))
    for start in range(0, m, chunk):
        rows = np.arange(start, min(m, start + chunk))
        t = np.empty((rows.size, dim))
        for ax, i in enumerate(np.unravel_index(rows, tgt_shape)):
            t[:, ax] = tgt_axes[ax][i]
        x = np.empty((3,) * dim + (rows.size, dim))
        flat = np.zeros((1,) * dim + (rows.size,), dtype=np.intp)
        for ax, (a, n, st, i) in enumerate(zip(src_axes, src_shape, strides,
                                               np.unravel_index(args[rows], src_shape))):
            near = np.minimum(np.maximum(i + step, 0), n - 1).reshape(
                (1,) * ax + (3,) + (1,) * (dim - ax - 1) + (rows.size,))
            x[..., ax] = a[near]
            flat = flat + near * st
        x = x.reshape(-1, rows.size, dim)
        flat = flat.reshape(-1, rows.size)
        score = np.vecdot(t, x)
        score += neg[flat]
        k = np.argmax(score, axis=0)
        cols = np.arange(rows.size)
        vals[rows] = score[k, cols]
        best_args[rows] = flat[k, cols]
    return vals, best_args


# -- the inf kernel ----------------------------------------------------------------

def _min_plus(add, nodes, targets, k):
    """The one inf kernel: min_j [add_j + k(c_i - y_j)] and its argmin j for
    each target c_i.  `nodes` (the y_j) and `targets` are each a `Lattice`
    or an array of points, `k` a vectorized callable on (n, d) rows.  +inf
    adds are skipped (Improper if all are); ties go to the lowest source
    index.  The offset table runs where `_offset_table_fits`, else the pair scan.
    """
    add = np.asarray(add, dtype=float).ravel()
    if not np.any(np.isfinite(add)):
        raise Improper("no finite values to take an infimum over")
    if _offset_table_fits(nodes, targets):
        return _offset_scan(add, nodes, k)
    return _pair_scan(add, _rows(nodes), _rows(targets), _OnDifferences(k))


@dataclass(frozen=True)
class _OnDifferences:
    """The block kernel of a point kernel k: k on the difference vectors
    c_i - y_j of a block of c rows against all of y.  k must be row-wise
    and call no BLAS; `_pair_scan` gives it `_DIFFERENCE_ARRAYS` times fewer
    rows a block than a gemm kernel."""

    k: object

    def __call__(self, c, y):
        diffs = np.empty((c.shape[0], y.shape[0], c.shape[1]))
        for i in range(c.shape[1]):  # a coordinate at a time, so numpy's inner loop runs over y
            np.subtract(c[:, None, i], y[None, :, i], out=diffs[:, :, i])
        return np.asarray(self.k(diffs.reshape(-1, c.shape[1])),
                          dtype=float).reshape(-1, y.shape[0])


def _offset_table_fits(a, b) -> bool:
    """Both blocks are the same lattice, and its offset lattice keeps within
    the grid point budget (beyond it the pair scan bounds the memory)."""
    # array_equal(None, None) holds
    return (isinstance(a, Lattice) and isinstance(b, Lattice)
            and a.grid.same(b.grid) and np.array_equal(a.matrix, b.matrix)
            and int(np.prod(2 * a.grid.num - 1)) <= point_budget())


def _offset_grid(grid: GridSpec) -> GridSpec:
    """Zero-centred grid of node differences: `grid`'s spacing, 2 num - 1 nodes."""
    span = grid.upper - grid.lower
    return GridSpec(-span, span, 2 * grid.num - 1)


def _offset_scan(add, lattice: Lattice, k):
    """`_min_plus` with sources and targets both `lattice`: node i minus node
    j is node i - j + num - 1 of the offset lattice, so k is tabulated there
    once.  Finite sources go in row-major order, in cache-sized blocks of
    `_CANDIDATE_BLOCK` entries; each block takes its first minimum and the
    blocks merge with a strict `<`, as a running strict-`<` min would."""
    t0 = time.perf_counter()
    grid = lattice.grid
    shape = grid.shape()
    offsets = Lattice(_offset_grid(grid), lattice.matrix)
    table = np.asarray(k(offsets.points()), dtype=float).reshape(offsets.grid.shape())
    # window[j][i] = table[i - j + num - 1], for source j and target i
    window = sliding_window_view(table, shape)[(slice(None, None, -1),) * grid.dim]
    sources = np.flatnonzero(np.isfinite(add))
    index = np.unravel_index(sources, shape)
    m = grid.size
    vals = np.full(m, np.inf)
    args = np.full(m, sources[0])
    chunk = max(1, _CANDIDATE_BLOCK // m)
    for start in range(0, sources.size, chunk):
        j = sources[start:start + chunk]
        cand = window[tuple(i[start:start + chunk] for i in index)].reshape(j.size, m)
        cand += add[j, None]
        a = np.argmin(cand, axis=0)
        v = cand[a, np.arange(m)]
        better = v < vals
        np.copyto(vals, v, where=better)
        np.copyto(args, j[a], where=better)
    _record("min-plus", sources.size, m, t0)
    return vals, args


@one_thread
def _pair_scan(add, y, c, k):
    """min_j [add_j + k(c, y)[i, j]] and its argmin j for each row c_i, with
    k a block kernel: k(c_block, y) is the (rows, len(y)) matrix of a block
    of c rows.  +inf adds drop their y rows first; ties go to the lowest
    index.

    The c rows go in `_row_blocks` of at least 2 rows.  A gemm kernel takes
    `_SCORE_BLOCK // (len(y) d)` rows, the block its reports were verified
    at: gemm rounds by the block's shape (ROADMAP, Known limits).  An
    `_OnDifferences` kernel takes `_DIFFERENCE_ARRAYS` times fewer, so that
    all the temporaries it builds, not just its difference coordinates, hold
    about `_SCORE_BLOCK` entries; it is row-wise, so any block gives its bits."""
    t0 = time.perf_counter()
    back = np.flatnonzero(np.isfinite(add))
    y, a = y[back], add[back]
    m, n = c.shape[0], y.shape[0]
    vals = np.empty(m)
    args = np.empty(m, dtype=int)
    rows = _SCORE_BLOCK // (n * c.shape[1])
    if isinstance(k, _OnDifferences):
        rows //= _DIFFERENCE_ARRAYS
    for start, stop in _row_blocks(m, max(2, rows)):
        total = np.asarray(k(c[start:stop], y), dtype=float)
        total += a[None, :]
        j = np.argmin(total, axis=1)
        vals[start:stop] = total[np.arange(total.shape[0]), j]
        args[start:stop] = back[j]
        del total  # free this block before the kernel builds the next
    _record("pairwise", n, m, t0)
    return vals, args
