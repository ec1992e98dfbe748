"""Uniform periodic triangulation of a rectangle.

The rectangle ``[0, Lx] x [0, Ly]`` is partitioned into ``(n-1)^2`` cells of
``Lx/(n-1)`` by ``Ly/(n-1)`` (``h`` is the first), each split into two
triangles along the diagonal from the lower-left to the upper-right corner.
Opposite boundary nodes are identified, so the number of degrees of freedom
is ``N = (n-1)^2`` rather than ``n^2``.  Grids are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError, InvalidPartitionError


@dataclass(frozen=True)
class DofGrid:
    """Structured periodic triangulation with (n-1)^2 degrees of freedom.

    The element data lives in arrays: ``tri_dofs``, ``tri_coords``,
    ``tri_grads`` and ``tri_area``, in cell-major order (cy, cx) with two
    triangles per cell.  The grid also carries the fixed sparsity pattern
    shared by every assembled operator: all of M, A, K, R, S(U) and B(W)
    live on the element-pair pattern with at most 7 entries per row.
    """

    n: int
    Lx: float
    Ly: float
    h: float
    N: int
    tri_dofs: np.ndarray = field(repr=False)  # (nel, 3) dof indices
    tri_coords: np.ndarray = field(repr=False)  # (nel, 3, 2) vertices, unwrapped
    tri_grads: np.ndarray = field(repr=False)  # (nel, 3, 2) basis gradients
    tri_area: np.ndarray = field(repr=False)  # (nel,) triangle areas
    # CSR skeleton of the shared operator pattern and the map sending the
    # 9 per-element contributions to their slot in the value array.
    csr_indptr: np.ndarray = field(repr=False)
    csr_indices: np.ndarray = field(repr=False)
    pattern_scatter: np.ndarray = field(repr=False)

    @property
    def nnz_pattern(self) -> int:
        return len(self.csr_indices)

    @property
    def xs(self):
        return np.linspace(0.0, self.Lx, self.n)

    @property
    def ys(self):
        return np.linspace(0.0, self.Ly, self.n)


def dof_of_node(grid: DofGrid, i: int, j: int) -> int:
    """Map node (i, j) to its dof index; boundary nodes wrap periodically.

    Numbering is row-major in j: dof = (j mod (n-1))*(n-1) + (i mod (n-1)).
    """
    n = grid.n
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise IndexError(f"node ({i}, {j}) outside 0..{n - 1}")
    m = n - 1
    return (j % m) * m + (i % m)


def build_grid(Lx: float, Ly: float, n: int) -> DofGrid:
    """Build the uniform periodic triangulation with n partition points per side."""
    if n < 3:
        raise InvalidPartitionError(f"need n >= 3 partition points, got {n}")
    if Lx <= 0 or Ly <= 0:
        raise InvalidDomainError(f"domain sides must be positive, got {Lx} x {Ly}")

    m = n - 1
    h = Lx / m
    N = m * m
    xs = np.linspace(0.0, Lx, n)
    ys = np.linspace(0.0, Ly, n)

    # Cells in cy-major order, two triangles each; the diagonal runs
    # lower-left -> upper-right and both triangles are CCW:
    # (ll, lr, ur) and (ll, ur, ul) as (di, dj) offsets from ll.
    offsets = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    cy, cx = np.divmod(np.arange(N), m)
    i = (cx[:, None, None] + offsets[None, :, :, 0]).reshape(-1, 3)
    j = (cy[:, None, None] + offsets[None, :, :, 1]).reshape(-1, 3)
    tri_dofs = (j % m) * m + (i % m)
    x, y = xs[i], ys[j]
    tri_coords = np.stack([x, y], axis=-1)
    (x0, x1, x2), (y0, y1, y2) = x.T, y.T
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    # grad phi_a = (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1}) / (2 area)
    gx = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    gy = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    tri_grads = np.stack([gx, gy], axis=-1) / twice_area[:, None, None]
    tri_area = 0.5 * np.abs(twice_area)

    # Shared operator pattern: contributions (a, b) over the 3x3 local pairs
    # of each element, a (row) outer, b (col) inner.
    rows = np.repeat(tri_dofs, 3, axis=1).reshape(-1)
    cols = np.tile(tri_dofs, (1, 3)).reshape(-1)
    keys = rows * N + cols
    unique_keys, scatter = np.unique(keys, return_inverse=True)
    indices = (unique_keys % N).astype(np.int32)
    counts = np.bincount((unique_keys // N).astype(np.int64), minlength=N)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)

    return DofGrid(
        n=n,
        Lx=float(Lx),
        Ly=float(Ly),
        h=h,
        N=N,
        tri_dofs=tri_dofs,
        tri_coords=tri_coords,
        tri_grads=tri_grads,
        tri_area=tri_area,
        csr_indptr=indptr,
        csr_indices=indices,
        pattern_scatter=scatter,
    )
