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
operators are aligned slot by slot.  M, A and R are summed from their
per-element contributions once per run; S(U) is linear in U, so its value
array is the product of two fixed sparse factors with U, which the grid
builds on the first ``assemble_S`` and keeps (``DofGrid.s_factors``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, ShapeError
from .grid import DofGrid
from .sparse import CsrMatrix


@dataclass(frozen=True)
class FemOperators:
    """The fixed matrices of one grid/problem pair; assembled once per run.

    ``cache`` holds the run's solvers, each built once: the FFT solvers
    (``SpectralSolver``) of M and K, through ``solvers.cached_solver``, and
    per tau the pair (-tau R, inverse of [[-tau R, M], [K, -M]]).  That
    inverse is a ``SpectralSolver`` of the 2x2 block when the drift is
    uniform, else a block elimination with an LU of K - tau R.  The cache
    never affects results.
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


def assemble_mass(grid: DofGrid) -> CsrMatrix:
    """Exact P1 mass matrix; row sums equal h^2 by partition of unity."""
    local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    vals = np.outer(grid.tri_area, local.reshape(-1)).reshape(-1)
    return pattern_csr(grid, vals)


def assemble_stiffness(grid: DofGrid) -> CsrMatrix:
    """Exact P1 stiffness matrix; constants lie in its kernel."""
    g = grid.tri_grads
    vals = grid.tri_area[:, None, None] * (g @ g.transpose(0, 2, 1))
    return pattern_csr(grid, vals.reshape(-1))


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
    g = grid.tri_grads
    # V(p) . grad phi_b at each midpoint k: per element 3x3, rows k, cols b
    vdotg = -py[:, :, None] * g[:, None, :, 0] + px[:, :, None] * g[:, None, :, 1]
    vals = (grid.tri_area / 3.0)[:, None, None] * (phi.T @ vdotg)
    return pattern_csr(grid, vals.reshape(-1))


def assemble_S(grid: DofGrid, U: np.ndarray) -> CsrMatrix:
    """Advection matrix S(U)_{I,J} = <V(u_N) . grad phi_J, phi_I>.

    Per element the integrand is a constant times phi_I, so area/3 weights
    are exact; global skew-symmetry holds to round-off because the transport
    field has continuous edge-normal trace across the mesh.  The values are
    ``P @ (H @ U)`` with the grid's fixed factors ``s_factors``: H gives each
    element column's weight, area/3 (grad u_N x grad phi_b), and P adds it
    into the column's three slots.  The first call on a grid builds them.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (grid.N,):
        raise ShapeError(f"coefficient vector needs length {grid.N}, got {U.shape}")
    H, P = grid.s_factors
    return CsrMatrix(grid.N, grid.N, grid.csr_indptr, grid.csr_indices, P @ (H @ U))


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
