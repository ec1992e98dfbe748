"""Per-element reference constructions shared by the grid and assembly tests.

The package builds a grid from its stencil alone and never forms element
arrays; these are the element-by-element routes it replaced, kept as
independent references and the only place element arrays are built: the
sparsity pattern and scatter map by sorting and deduplicating every element
pair, the element arrays, and summation through the scatter map.
"""

import numpy as np

from hmfem.sparse import CsrMatrix


def reference_pattern(grid):
    """The element-pair pattern by sorting and deduplicating all 9 nel keys.

    Each local pair (a, b) of each element, a outer, is the key
    row N + col; the sorted distinct keys are the CSR slots, each row's
    columns sorted.  Returns that CSR skeleton and every pair's scatter
    target, mapped by (row, column) into the slots of the grid's pattern,
    which lists each row in stencil-label order.
    """
    N = grid.N
    tri_dofs = eager_element_arrays(grid.Lx, grid.Ly, grid.n)[0]
    rows = np.repeat(tri_dofs, 3, axis=1).reshape(-1)
    cols = np.tile(tri_dofs, (1, 3)).reshape(-1)
    keys, scatter = np.unique(rows * N + cols, return_inverse=True)
    counts = np.bincount(keys // N, minlength=N)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    grid_rows = np.repeat(np.arange(N), np.diff(grid.csr_indptr))
    grid_keys = grid_rows * N + grid.csr_indices
    order = np.argsort(grid_keys)
    slot = order[np.searchsorted(grid_keys, keys, sorter=order)]
    assert np.array_equal(grid_keys[slot], keys), "the grid's pattern lacks a pair"
    return indptr, (keys % N).astype(np.int32), slot[scatter]


def scatter_csr(grid, contributions):
    """Sum 9-per-element contributions, (triangle, a, b) in element order,
    into a matrix on the grid's pattern through the reference scatter map."""
    scatter = reference_pattern(grid)[2]
    values = np.bincount(scatter, weights=contributions, minlength=grid.nnz_pattern)
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, values)


def eager_element_arrays(Lx, Ly, n):
    """tri_dofs, tri_coords, tri_grads and tri_area as build_grid once built
    them with every grid: cells in cy-major order, the two reference
    triangles each, vertices unwrapped (the last cells reach Lx and Ly)."""
    m = n - 1
    hx, hy = Lx / m, Ly / m
    N = m * m
    xs = np.linspace(0.0, Lx, n)
    ys = np.linspace(0.0, Ly, n)
    triangles = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    cy, cx = np.divmod(np.arange(N), m)
    i = (cx[:, None, None] + triangles[None, :, :, 0]).reshape(-1, 3)
    j = (cy[:, None, None] + triangles[None, :, :, 1]).reshape(-1, 3)
    tri_dofs = (j % m) * m + (i % m)
    tri_coords = np.stack([xs[i], ys[j]], axis=-1)
    gx, gy = 1.0 / hx, 1.0 / hy
    grads = np.array([[(-gx, 0.0), (gx, -gy), (0.0, gy)], [(0.0, -gy), (gx, 0.0), (-gx, gy)]])
    area = np.full(2, 0.5 * hx * hy)
    return tri_dofs, tri_coords, np.tile(grads, (N, 1, 1)), np.tile(area, N)
