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
forms each cell's two local matrices with the reference triangles'
gradients and sums them row by row per stencil label, which is the slot
order; all of it is assembled once per run.
S(U) is linear in U, so its value array is the product of one fixed
sparse matrix with U, the grid's closed-form stencil of S, which the grid
builds on the first ``assemble_S`` and keeps (``DofGrid.s_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeError
from .grid import _TRIANGLES, DofGrid
from .sparse import CsrMatrix, matvec


@dataclass(frozen=True)
class FemOperators:
    """The fixed matrices of one grid/problem pair; assembled once per run.

    ``cache`` holds the run's solvers, each built once: the FFT inverses
    (``SpectralSolver``) of M and K with their rounding floors, through
    ``solvers.cached_solver``, and per tau the triple (-tau R, inverse of
    [[-tau R, M], [K, -M]], its rounding floor).  That inverse is a
    ``SpectralSolver`` of the 2x2 block of symbols, exact when the drift is
    uniform and approximate otherwise.  The cache never affects results.
    """

    M: CsrMatrix
    A: CsrMatrix
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
    """
    m, N = grid.n - 1, grid.N
    # phi_a at the midpoint of edge (k, k+1); rows k, columns a.
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    # Entry (a, b) of reference triangle t is the sum over midpoints k and
    # components d of V(p)_d at k times area_t/3 phi_a(k) (grad phi_b)_d:
    # one product of a block-diagonal (t, a, b) x (t, k, d) matrix with the
    # per-cell (t, k, d) samples.
    weights = np.einsum("t,ka,tbd,ts->sabtkd", grid.ref_area / 3.0, phi, grid.ref_grads, np.eye(2))
    samples = _cell_samples(grid, grad_p).reshape(12, -1)
    local = (weights.reshape(18, 12) @ samples).reshape(6, 3, m + 1, m + 1)
    # Row (j, i) of R takes the entries (a, b) of triangle t from the cell
    # in which it is vertex a, cell (j - dj, i - di) for the vertex offset
    # (di, dj), and sums them per stencil label: one product with the
    # (label, entry) incidence matrix, the same sum in every row.
    shifted = np.empty((6, 3, m, m))
    for vertex, (di, dj) in enumerate(_TRIANGLES.reshape(6, 2).tolist()):
        shifted[vertex] = local[vertex, :, 1 - dj : m + 1 - dj, 1 - di : m + 1 - di]
    n_labels = int(grid.csr_indptr[1])
    incidence = (grid.pair_offset.reshape(-1) == np.arange(n_labels)[:, None]).astype(float)
    table = incidence @ shifted.reshape(18, N)  # (label, row)
    return CsrMatrix(N, N, grid.csr_indptr, grid.csr_indices, table.T.reshape(-1))


def _cell_samples(grid: DofGrid, grad_p) -> np.ndarray:
    """V(p) = (-p_y, p_x) at the edge midpoints of every cell, (t, k, d, row, column).

    Entry (t, k, d) is component d at the midpoint of edge (k, k+1) of the
    lower (t = 0) or upper triangle.  The last row and column of cells are
    repeated in front, as row and column -1.  ``grad_p`` is called once, on
    every edge midpoint; the edges on x = Lx and y = Ly are sampled apart
    from their periodic images on x = 0 and y = 0, since the drift need not
    be periodic.
    """
    n, m = grid.n, grid.n - 1
    xs, ys = grid.xs, grid.ys
    xm, ym = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    x = np.concatenate([xm[None].repeat(n, 0), xs[None].repeat(m, 0), xm[None].repeat(m, 0)], None)
    y = np.concatenate([ys.repeat(m), ym.repeat(n), ym.repeat(m)])
    V = np.empty((2, len(x)))
    V[1], V[0] = grad_p(x, y)
    np.negative(V[0], out=V[0])
    if not np.isfinite(V).all():
        e = np.flatnonzero(~np.isfinite(V).all(axis=0))[0]
        location = (float(x[e]), float(y[e]))
        raise EvaluationError(f"grad_p non-finite at {location}", location=location)
    bottom_top = V[:, : n * m].reshape(2, n, m)  # horizontal edges, n rows of m
    left_right = V[:, n * m : 2 * n * m].reshape(2, m, n)  # vertical, m rows of n
    diagonal = V[:, 2 * n * m :].reshape(2, m, m)
    samples = np.empty((6, 2, m + 1, m + 1))
    cells = samples[..., 1:, 1:]
    cells[0], cells[1], cells[2] = bottom_top[:, :-1], left_right[:, :, 1:], diagonal
    cells[3], cells[4], cells[5] = diagonal, bottom_top[:, 1:], left_right[:, :, :-1]
    samples[..., 0, 1:] = samples[..., m, 1:]
    samples[..., 0] = samples[..., m]
    return samples


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
    """Assemble the state-independent operators M, A, K = M+A, R."""
    M = assemble_mass(grid)
    A = assemble_stiffness(grid)
    K = CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, M.values + A.values)
    return FemOperators(M=M, A=A, K=K, R=assemble_R(grid, grad_p), grid=grid)
