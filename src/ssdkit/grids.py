"""Box grids: the finite universe on which every sup/inf is taken."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, PreconditionFailed

DEFAULT_BUDGET = 1_000_000


def point_budget() -> int:
    return int(os.environ.get("SSDKIT_BUDGET", DEFAULT_BUDGET))


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Axis-aligned box sampled with a fixed number of points per axis.

    The axes and the nodes are built on first use and held by the instance,
    read-only: `axes()` and `points()` return the same arrays on every call.
    """

    lower: np.ndarray
    upper: np.ndarray
    num: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        nn = np.atleast_1d(np.asarray(self.num, dtype=int))
        if not (lo.shape == hi.shape == nn.shape) or lo.ndim != 1:
            raise DimensionMismatch("lower/upper/num must share one shape")
        if np.any(hi <= lo):
            raise ValueError("need lower < upper on every axis")
        if np.any(nn < 2):
            raise ValueError("need at least 2 points per axis")
        total = int(np.prod(nn.astype(np.int64)))
        if total > point_budget():
            raise BudgetExceeded(f"{total} grid points exceed budget {point_budget()}")
        for name, arr in (("lower", lo), ("upper", hi), ("num", nn)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def size(self) -> int:
        return int(np.prod(self.num.astype(np.int64)))

    @property
    def spacing(self) -> np.ndarray:
        return (self.upper - self.lower) / (self.num - 1)

    def axes(self) -> tuple:
        """The node coordinates on each axis."""
        return self._axes

    def points(self) -> np.ndarray:
        """All nodes, shape (size, dim), row-major in axis order."""
        return self._points

    @cached_property
    def _axes(self) -> tuple:
        axes = tuple(np.linspace(self.lower[i], self.upper[i], self.num[i])
                     for i in range(self.dim))
        for ax in axes:
            ax.setflags(write=False)
        return axes

    @cached_property
    def _points(self) -> np.ndarray:
        mesh = np.meshgrid(*self._axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts.setflags(write=False)
        return pts

    def shape(self):
        return tuple(int(k) for k in self.num)

    def same(self, other: "GridSpec") -> bool:
        """Equal lower, upper and num: the one test of whether two grids are
        the same grid."""
        return (np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper)
                and np.array_equal(self.num, other.num))

    def contains(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        eps = 1e-12 * np.maximum(1.0, np.abs(self.upper - self.lower))
        return np.all((pts >= self.lower - eps) & (pts <= self.upper + eps), axis=1)

    def nearest_index(self, point):
        """Flat index of the nearest node (ties to the lower index), or an
        array of them for rows of points."""
        point = np.asarray(point, dtype=float)
        idx = np.rint((point - self.lower) / self.spacing).astype(int)
        idx = np.clip(idx, 0, self.num - 1)
        flat = np.ravel_multi_index(tuple(idx.T), self.shape())
        return int(flat) if point.ndim == 1 else flat

    def subsample(self, step: int) -> "GridSpec":
        """Every step-th node per axis (keeps both endpoints when they align)."""
        if np.any((self.num - 1) % step != 0):
            raise PreconditionFailed("step must divide the interval count on every axis")
        return GridSpec(self.lower, self.upper, (self.num - 1) // step + 1)

    def to_dict(self):
        return {
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "num": self.num.tolist(),
        }

    @classmethod
    def from_string(cls, text: str) -> "GridSpec":
        """Parse "lo:hi:n,lo:hi:n,..." (one triple per axis)."""
        lows, highs, nums = [], [], []
        for part in text.split(","):
            bits = part.split(":")
            if len(bits) != 3:
                raise ValueError(f"bad grid axis {part!r}, expected lo:hi:n")
            lows.append(float(bits[0]))
            highs.append(float(bits[1]))
            nums.append(int(bits[2]))
        return cls(np.array(lows), np.array(highs), np.array(nums))

    @classmethod
    def box(cls, lo: float, hi: float, n: int, dim: int) -> "GridSpec":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)), np.full(dim, int(n)))


def image_box(grid: GridSpec, matrix, inflate: float = 1.0,
              include_source: bool = False) -> GridSpec:
    """Bounding box of the grid corners mapped through `matrix`, with the
    grid's node counts.

    With `include_source` the original box is merged in (keeps the image box
    nondegenerate when the matrix has a kernel).  `inflate` scales about the
    center afterwards.
    """
    m = np.asarray(matrix, dtype=float)
    image = _corners(grid) @ m.T
    lo = image.min(axis=0)
    hi = image.max(axis=0)
    if include_source:
        lo = np.minimum(lo, grid.lower)
        hi = np.maximum(hi, grid.upper)
    span = hi - lo
    degenerate = span <= 1e-12
    if np.any(degenerate):
        pad = 0.5 * np.max(grid.upper - grid.lower)
        lo = np.where(degenerate, lo - pad, lo)
        hi = np.where(degenerate, hi + pad, hi)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * inflate
    return GridSpec(center - half, center + half, grid.num)


def _corners(grid: GridSpec) -> np.ndarray:
    d = grid.dim
    out = np.zeros((2**d, d))
    for i in range(2**d):
        for ax in range(d):
            out[i, ax] = grid.upper[ax] if (i >> ax) & 1 else grid.lower[ax]
    return out
