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
circulant bit for bit.  R samples the drift at every element's edge
midpoints and is summed element by element through the scatter map, with
the reference triangles' gradients; all of it is assembled once per run.
S(U) is linear in U, so its value array is the product of one fixed
sparse matrix with U, the grid's closed-form stencil of S, which the grid
builds on the first ``assemble_S`` and keeps (``DofGrid.s_factor``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeError
from .grid import DofGrid
from .sparse import CsrMatrix, matvec


@dataclass(frozen=True)
class FemOperators:
    """The fixed matrices of one grid/problem pair; assembled once per run.

    ``cache`` holds the run's solvers, each built once: the FFT solvers
    (``SpectralSolver``) of M and K, through ``solvers.cached_solver``, and
    per tau the pair (-tau R, inverse of [[-tau R, M], [K, -M]]).  That
    inverse is a ``SpectralSolver`` of the 2x2 block of symbols, exact when
    the drift is uniform and approximate otherwise.  The cache never
    affects results.
    """

    M: CsrMatrix
    A: CsrMatrix
    K: CsrMatrix
    R: CsrMatrix
    grid: DofGrid
    cache: dict = field(default_factory=dict, repr=False, compare=False)


def pattern_csr(grid: DofGrid, contributions: np.ndarray) -> CsrMatrix:
    """Sum 9-per-element contributions into a matrix on the shared pattern."""
    values = np.bincount(
        grid.pattern_scatter, weights=contributions, minlength=grid.nnz_pattern
    )
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, values)


def _stencil_csr(grid: DofGrid, local: np.ndarray) -> CsrMatrix:
    """The block-circulant matrix of the two reference triangles' (2, 3, 3) local matrices.

    Each local pair adds into its stencil offset, so every row holds the
    same stencil and the matrix is block circulant bit for bit.  The
    reference triangles' gradients and areas are the first two rows of
    ``grid.tri_grads`` and ``grid.tri_area``.
    """
    stencil = np.bincount(grid.pair_offset.reshape(-1), weights=local.reshape(-1))
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, stencil[grid.slot_offset])


def assemble_mass(grid: DofGrid) -> CsrMatrix:
    """Exact P1 mass matrix; row sums equal h^2 by partition of unity."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _stencil_csr(grid, grid.tri_area[:2, None, None] * local)


def assemble_stiffness(grid: DofGrid) -> CsrMatrix:
    """Exact P1 stiffness matrix; constants lie in its kernel."""
    g = grid.tri_grads[:2]
    return _stencil_csr(grid, grid.tri_area[:2, None, None] * (g @ g.transpose(0, 2, 1)))


def assemble_R(grid: DofGrid, grad_p) -> CsrMatrix:
    """Drift transport matrix from the gradient field of p.

    ``grad_p(x, y)`` must accept numpy arrays and return the pair
    ``(p_x, p_y)``.  The 3-point edge-midpoint rule is exact for affine p.
    """
    nel = len(grid.tri_area)
    corners = grid.tri_coords  # (nel, 3, 2)
    mids = 0.5 * (corners + np.roll(corners, -1, axis=1))  # edge (k, k+1) midpoints
    px, py = grad_p(mids[..., 0], mids[..., 1])
    px = np.broadcast_to(np.asarray(px, dtype=float), (nel, 3))
    py = np.broadcast_to(np.asarray(py, dtype=float), (nel, 3))
    bad = ~(np.isfinite(px) & np.isfinite(py))
    if bad.any():
        e, k = np.argwhere(bad)[0]
        raise EvaluationError(
            f"grad_p non-finite at {tuple(mids[e, k])}", location=tuple(mids[e, k])
        )
    # phi_a at the midpoint of edge (k, k+1); rows k, columns a.
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    # Entry (a, b) of reference triangle t is the sum over midpoints k and
    # components d of V(p)_d at k, V(p) = (-p_y, p_x), times
    # area_t/3 phi_a(k) (grad phi_b)_d: one product of the per-cell
    # (t, k, d) samples with a block-diagonal (t, k, d) x (t, a, b) matrix.
    weights = np.einsum(
        "t,ka,tbd,ts->tkdsab", grid.tri_area[:2] / 3.0, phi, grid.tri_grads[:2], np.eye(2)
    )
    V = np.stack([-py, px], axis=-1).reshape(grid.N, 12)
    return pattern_csr(grid, (V @ weights.reshape(12, 18)).reshape(-1))


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
