"""Per-element reference constructions shared by the grid and assembly tests.

The package builds a grid from its stencil alone and never forms element
arrays; these are the element-by-element routes it replaced, kept as
independent references and the only place element arrays are built: the
sparsity pattern and scatter map by sorting and deduplicating every element
pair, the element arrays, and summation through the scatter map.  Beside
them lies the whole-grid route to R that ``assemble_R`` replaced by row
blocks, ``unblocked_assemble_R``, and T. F. Chan's circulant average tiled
over every row, ``circulant_average``, whose symbol the package forms from
the averaged stencil alone (``circulant_symbol``).
"""

from dataclasses import replace

import numpy as np

from hmfem.grid import _TRIANGLES
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


def unblocked_assemble_R(grid, grad_p):
    """R as ``assemble_R`` built it over the whole grid at once.

    The drift is sampled on every edge midpoint into padded (t, k, d) cell
    samples, multiplied by the (t, a, b) x (t, k, d) weights into every
    cell's two local matrices, shifted to the rows that take them and
    summed per stencil label, each step one array over all N rows.  Each
    label's entries are added in entry order, as the row blocks add them.
    The package once summed them by a BLAS product with the 0/1 (label,
    entry) incidence matrix, which adds them in that order too except in
    its kernels for a short tail of rows (at n = 3 on test 5, by 3e-17).
    """
    m, N = grid.n - 1, grid.N
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    weights = np.einsum("t,ka,tbd,ts->sabtkd", grid.ref_area / 3.0, phi, grid.ref_grads, np.eye(2))
    samples = _padded_cell_samples(grid, grad_p).reshape(12, -1)
    local = (weights.reshape(18, 12) @ samples).reshape(6, 3, m + 1, m + 1)
    shifted = np.empty((6, 3, m, m))
    for vertex, (di, dj) in enumerate(_TRIANGLES.reshape(6, 2).tolist()):
        shifted[vertex] = local[vertex, :, 1 - dj : m + 1 - dj, 1 - di : m + 1 - di]
    entries = shifted.reshape(18, N)
    labels = grid.pair_offset.reshape(-1)
    table = [sum(entries[labels == label]) for label in range(grid.csr_indptr[1])]
    return CsrMatrix(N, N, grid.csr_indptr, grid.csr_indices, np.stack(table, axis=1).reshape(-1))


def _padded_cell_samples(grid, grad_p):
    """V(p) = (-p_y, p_x) at the edge midpoints of every cell, (t, k, d, row, column),
    the last row and column of cells repeated in front as row and column -1."""
    n, m = grid.n, grid.n - 1
    xs, ys = grid.xs, grid.ys
    xm, ym = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    x = np.concatenate([xm[None].repeat(n, 0), xs[None].repeat(m, 0), xm[None].repeat(m, 0)], None)
    y = np.concatenate([ys.repeat(m), ym.repeat(n), ym.repeat(m)])
    V = np.empty((2, len(x)))
    V[1], V[0] = grad_p(x, y)
    np.negative(V[0], out=V[0])
    bottom_top = V[:, : n * m].reshape(2, n, m)
    left_right = V[:, n * m : 2 * n * m].reshape(2, m, n)
    diagonal = V[:, 2 * n * m :].reshape(2, m, m)
    samples = np.empty((6, 2, m + 1, m + 1))
    cells = samples[..., 1:, 1:]
    cells[0], cells[1], cells[2] = bottom_top[:, :-1], left_right[:, :, 1:], diagonal
    cells[3], cells[4], cells[5] = diagonal, bottom_top[:, 1:], left_right[:, :, :-1]
    samples[..., 0, 1:] = samples[..., m, 1:]
    samples[..., 0] = samples[..., m]
    return samples


def circulant_average(A):
    """T. F. Chan's optimal circulant of A (SIAM J. Sci. Stat. Comput. 9, 1988).

    A lies on the stencil layout.  Each slot gets the mean over all N rows
    of A's entries at its offset: the block-circulant matrix nearest A in
    the Frobenius norm.  The mean is taken of each entry's difference to
    row 0's entry at the same offset, which is added back, so a
    block-circulant A comes back bit for bit.
    """
    values = A.values.reshape(A.nrows, -1)
    row0 = values[0]
    return replace(A, values=np.tile(row0 + (values - row0).mean(axis=0), A.nrows))
