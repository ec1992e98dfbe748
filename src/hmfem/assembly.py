"""Assembly of the discrete operators on a periodic grid.

The operators of the coupled drift-wave system:

* ``M``       mass matrix  <phi_I, phi_J>
* ``A``       stiffness matrix  <grad phi_I, grad phi_J>
* ``K = M+A`` the H1 Gram matrix
* ``R``       drift transport  <V(p) . grad phi_J, phi_I>  with V(p) = (-p_y, p_x)
* ``S(U)``    advection by the stream function u_N, skew-symmetric, linear in U
* ``B(W)``    derivative of S(U) W with respect to U; satisfies B(W) U = S(U) W

M, A and S are integrated exactly (P1 integrands are polynomial of degree
<= 2 per element); R uses the 3-point edge-midpoint rule, exact whenever the
drift gradient is affine.  The discrete Poisson bracket is antisymmetric,
so B(W) = -S(W) exactly and B needs no kernel of its own.  All operators
share the grid's fixed sparsity pattern, so value arrays of different
operators are aligned slot by slot.  M and A, and so K, are translation
invariant: each is one 7-point stencil summed from the two reference
triangles' 3x3 local matrices and copied to every row, so they are block
circulant bit for bit.  R samples the drift once at every edge midpoint,
then, a block of cell rows at a time, forms each cell's two local
matrices with the reference triangles' gradients and sums them row by row
per stencil label, which is the slot order; all of it is assembled once
per run.  A enters the run only through K: ``assemble_operators`` sums
its stencil into K's and keeps M, K and R.
S(U) is linear in U, so its value array is the product of one fixed
sparse matrix with U, the grid's closed-form stencil of S, which the grid
builds on the first ``assemble_S`` and keeps (``DofGrid.s_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, ShapeError
from .grid import _TRIANGLES, DofGrid
from .sparse import CsrMatrix, matvec

#: Cells per row block of ``assemble_R``, whose scratch is sized for one
#: block and reused by the next.  Its largest array, 18 local entries per
#: cell, then holds about 147 KB, near glibc's default 128 KiB mmap
#: threshold, whatever the grid: at n = 129 a call no longer faults in
#: fresh pages for scratch that grew with N.  Grids up to n = 33 are one
#: block.
_BLOCK_CELLS = 1024


@dataclass(frozen=True)
class FemOperators:
    """The fixed matrices of one grid/problem pair; assembled once per run.

    M, K = M + A and R.  No step reads the stiffness matrix A alone, so it
    is not kept; ``assemble_stiffness`` builds it.  ``cache`` holds the
    run's solvers, each built once: the FFT inverses (``SpectralSolver``)
    of M and K with their rounding floors, through
    ``solvers.cached_solver``, and per tau the triple (-tau R, inverse of
    [[-tau R, M], [K, -M]], its rounding floor).  That inverse is a
    ``SpectralSolver`` of the 2x2 block of symbols, exact when the drift is
    uniform and approximate otherwise.  The cache never affects results.
    """

    M: CsrMatrix
    K: CsrMatrix
    R: CsrMatrix
    grid: DofGrid
    cache: dict = field(default_factory=dict, repr=False, compare=False)


def _stencil_csr(grid: DofGrid, local: np.ndarray) -> CsrMatrix:
    """The block-circulant matrix of the two reference triangles' (2, 3, 3) local matrices.

    Each local pair adds into its stencil offset, so every row holds the
    same stencil and the matrix is block circulant bit for bit.
    """
    stencil = np.bincount(grid.pair_offset.reshape(-1), weights=local.reshape(-1))
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, np.tile(stencil, grid.N))


def assemble_mass(grid: DofGrid) -> CsrMatrix:
    """Exact P1 mass matrix; row sums equal h^2 by partition of unity."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _stencil_csr(grid, grid.ref_area[:, None, None] * local)


def assemble_stiffness(grid: DofGrid) -> CsrMatrix:
    """Exact P1 stiffness matrix; constants lie in its kernel."""
    g = grid.ref_grads
    return _stencil_csr(grid, grid.ref_area[:, None, None] * (g @ g.transpose(0, 2, 1)))


def assemble_R(grid: DofGrid, grad_p) -> CsrMatrix:
    """Drift transport matrix from the gradient field of p.

    ``grad_p(x, y)`` must accept numpy arrays and return the pair
    ``(p_x, p_y)``.  The 3-point edge-midpoint rule is exact for affine p.
    ``grad_p`` is called once, on every edge midpoint.  The rows of R are
    then written a block of cell rows at a time, so that no temporary but
    that one sample grows with N (``_BLOCK_CELLS``).
    """
    m, N = grid.n - 1, grid.N
    # phi_a at the midpoint of edge (k, k+1); rows k, columns a.
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    # Entry (a, b) of reference triangle t is the sum over midpoints k and
    # components d of V(p)_d at k times area_t/3 phi_a(k) (grad phi_b)_d:
    # one product of a (t, a, b) x (edge, d) matrix with the per-cell
    # samples of the cell's five edges, bottom, right, diagonal, top and
    # left.  Edge (k, k+1) of the lower triangle is edge k, that of the
    # upper one edge k + 2; the two share the diagonal.
    per_triangle = (grid.ref_area[:, None, None] / 3.0 * phi.T)[:, :, None, :, None]
    per_triangle = per_triangle * grid.ref_grads[:, None, :, None, :]  # (t, a, b, k, d)
    weights = np.zeros((2, 3, 3, 5, 2))
    weights[0, ..., :3, :], weights[1, ..., 2:, :] = per_triangle
    weights = weights.reshape(18, 10)
    # Row (j, i) of R takes the entries (a, b) of triangle t from the cell
    # in which it is vertex a, cell (j - dj, i - di) for the vertex offset
    # (di, dj), and sums them per stencil label in entry order, the same
    # sum in every row.  Each label's first two terms are one product with
    # a 0/1 matrix, exact in any order, and its later terms are added one
    # by one.
    pairs, later = _label_sums(tuple(grid.pair_offset.reshape(-1).tolist()))
    bottom_top, left_right, diagonal = _edge_samples(grid, grad_p)
    values = np.empty((N, pairs.shape[1]))
    height = min(m, max(1, _BLOCK_CELLS // m))
    # Scratch for one block of ``height`` rows, read through its prefix by
    # a shorter last block: the cells of rows j0 - 1 to j0 + rows - 1 with
    # the last column repeated in front, their local matrices and the
    # entries the block's rows take.  Row -1 is row m - 1, the last
    # block's last row, so the last block comes first.
    samples_buf = np.empty(10 * (height + 1) * (m + 1))
    local_buf = np.empty(18 * (height + 1) * (m + 1))
    shifted_buf = np.empty(18 * height * m)
    for j0 in reversed(range(0, m, height)):
        rows = min(height, m - j0)
        samples = samples_buf[: 10 * (rows + 1) * (m + 1)].reshape(5, 2, rows + 1, m + 1)
        first = int(j0 == 0)
        cells, r = samples[:, :, first:, 1:], slice(j0 - 1 + first, j0 + rows)
        cells[0], cells[1], cells[2] = bottom_top[:, r], left_right[:, r, 1:], diagonal[:, r]
        cells[3], cells[4] = bottom_top[:, r.start + 1 : r.stop + 1], left_right[:, r, :-1]
        samples[..., 0] = samples[..., m]
        if j0 + rows == m:
            last_row = samples[:, :, rows].copy()
        if first:
            samples[:, :, 0] = last_row
        local = local_buf[: 18 * (rows + 1) * (m + 1)].reshape(18, -1)
        np.matmul(weights, samples.reshape(10, -1), out=local)
        local = local.reshape(6, 3, rows + 1, m + 1)
        shifted = shifted_buf[: 18 * rows * m].reshape(6, 3, rows, m)
        for vertex, (di, dj) in enumerate(_TRIANGLES.reshape(6, 2).tolist()):
            shifted[vertex] = local[vertex, :, 1 - dj : rows + 1 - dj, 1 - di : m + 1 - di]
        entries = shifted.reshape(18, rows * m)
        block = values[j0 * m : (j0 + rows) * m]
        np.matmul(entries.T, pairs, out=block)
        for label, entry in later:
            block[:, label] += entries[entry]
    return CsrMatrix(N, N, grid.csr_indptr, grid.csr_indices, values.reshape(-1))


@lru_cache
def _label_sums(labels: tuple):
    """Each label's first two entries as a 0/1 (entry, label) matrix, and its later ones.

    ``labels`` holds the stencil labels of the 18 local pairs; the later
    entries come as (label, entry) pairs in entry order.
    """
    terms = [[] for _ in range(max(labels) + 1)]
    for entry, label in enumerate(labels):
        terms[label].append(entry)
    pairs = np.zeros((18, len(terms)))
    pairs[[t[0] for t in terms] + [t[1] for t in terms], list(range(len(terms))) * 2] = 1.0
    pairs.flags.writeable = False
    return pairs, tuple((label, entry) for label, t in enumerate(terms) for entry in t[2:])


def _edge_samples(grid: DofGrid, grad_p):
    """V(p) = (-p_y, p_x) at every edge midpoint, by kind: (d, row, column) each.

    The horizontal edges come in n rows of m, the vertical ones in m rows
    of n and the diagonals in m rows of m.  ``grad_p`` is called once, on
    every edge midpoint; the edges on x = Lx and y = Ly are sampled apart
    from their periodic images on x = 0 and y = 0, since the drift need not
    be periodic.  The midpoints are freed before V is filled.
    """
    n, m = grid.n, grid.n - 1
    xs, ys = grid.xs, grid.ys
    xm, ym = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    h, v = n * m, 2 * n * m  # the vertical and the diagonal edges start here
    x, y = np.empty(v + m * m), np.empty(v + m * m)
    for part, xk, yk in (slice(0, h), xm, ys), (slice(h, v), xs, ym), (slice(v, None), xm, ym):
        x[part].reshape(len(yk), len(xk))[:] = xk
        y[part].reshape(len(yk), len(xk))[:] = yk[:, None]
    p_x, p_y = grad_p(x, y)
    finite = np.isfinite(p_x) & np.isfinite(p_y)
    if not finite.all():
        e = np.flatnonzero(~np.broadcast_to(finite, x.shape))[0]
        location = (float(x[e]), float(y[e]))
        raise EvaluationError(f"grad_p non-finite at {location}", location=location)
    del x, y, finite
    V = np.empty((2, v + m * m))
    V[0], V[1] = p_y, p_x
    np.negative(V[0], out=V[0])
    return V[:, :h].reshape(2, n, m), V[:, h:v].reshape(2, m, n), V[:, v:].reshape(2, m, m)


def assemble_S(grid: DofGrid, U: np.ndarray) -> CsrMatrix:
    """Advection matrix S(U)_{I,J} = <V(u_N) . grad phi_J, phi_I>.

    Per element the integrand is a constant times phi_I, so area/3 weights
    are exact.  Summed over the two triangles of an edge (I, J) they leave
    +-1/6 (U_k - U_l) on its opposite vertices k and l, and nothing on the
    diagonal, so S(U) is skew-symmetric with a zero diagonal bit for bit.
    The values are ``Q U`` with the grid's fixed ``s_factor`` Q, one
    compiled product; the first call on a grid builds Q.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (grid.N,):
        raise ShapeError(f"coefficient vector needs length {grid.N}, got {U.shape}")
    values = matvec(grid.s_factor, U)
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, values)


def assemble_B(grid: DofGrid, W: np.ndarray) -> CsrMatrix:
    """Matrix with columns S(e_j) W, i.e. the derivative of S(U) W in U.

    The P1 Poisson bracket is antisymmetric, {phi_j, w_N} = -{w_N, phi_j},
    and the area/3 rule keeps that exactly, so B(W) = -S(W) bit for bit.
    """
    return -assemble_S(grid, W)


def assemble_operators(grid: DofGrid, grad_p) -> FemOperators:
    """Assemble the state-independent operators M, K = M+A, R."""
    M = assemble_mass(grid)
    A = assemble_stiffness(grid)
    K = CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, M.values + A.values)
    return FemOperators(M=M, K=K, R=assemble_R(grid, grad_p), grid=grid)
