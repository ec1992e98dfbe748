"""Brute-force dense oracles certifying the optimized paths on small grids.

Everything here goes through a different route than the production assembly:
periodic basis functions are evaluated globally from the closed-form hat
formula, in mesh units of each axis (Lx/(n-1) and Ly/(n-1), so rectangular
domains are covered), integrals use a 7-point degree-5 triangle rule that
strictly dominates the exactness class of the fast path, matrices are
accumulated dense, and B(W) is built from its definition as columns
S(e_j) W.  Of the grid's element arrays only ``tri_coords`` and
``tri_area`` are read, to place and weight the quadrature points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FemOperators, assemble_operators
from .errors import OracleSizeError
from .grid import DofGrid
from .problems import ProblemSpec
from .solvers import SolverConfig, State, rel_err, residual

#: Largest grid the dense oracle accepts (cost grows as N^2 * elements).
DENSE_N_MAX = 9

# 7-point rule on the reference triangle, exact for degree 5.
_QW = np.array(
    [0.225]
    + [0.1259391805448271] * 3
    + [0.1323941527885062] * 3
)
_QA = 0.7974269853530873
_QB = 0.1012865073234563
_QC = 0.0597158717897698
_QD = 0.4701420641051151
_QBARY = np.array(
    [
        (1 / 3, 1 / 3, 1 / 3),
        (_QA, _QB, _QB),
        (_QB, _QA, _QB),
        (_QB, _QB, _QA),
        (_QC, _QD, _QD),
        (_QD, _QC, _QD),
        (_QD, _QD, _QC),
    ]
)

# Gradients (in mesh units) of the six linear forms whose max carves
# the hat's hexagonal support: s, t, s-t, -s, -t, t-s.
_FORM_GRADS = np.array(
    [(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)], dtype=float
)


def _check_size(grid: DofGrid):
    if grid.n > DENSE_N_MAX:
        raise OracleSizeError(
            f"dense oracle limited to n <= {DENSE_N_MAX}, got n = {grid.n}"
        )


def _node_coords(grid: DofGrid):
    m = grid.n - 1
    x = grid.xs[:m]
    y = grid.ys[:m]
    X, Y = np.meshgrid(x, y)
    return X.reshape(-1), Y.reshape(-1)


def _spacings(grid: DofGrid) -> np.ndarray:
    """The mesh spacings (Lx / (n-1), Ly / (n-1)) of the two axes."""
    return np.array([grid.Lx, grid.Ly]) / (grid.n - 1)


def _mesh_displacement(grid: DofGrid, x: float, y: float):
    """Wrapped displacement (s, t) of (x, y) from every node, in mesh units."""
    xc, yc = _node_coords(grid)
    hx, hy = _spacings(grid)
    s = ((x - xc + grid.Lx / 2) % grid.Lx - grid.Lx / 2) / hx
    t = ((y - yc + grid.Ly / 2) % grid.Ly - grid.Ly / 2) / hy
    return s, t


def basis_values(grid: DofGrid, x: float, y: float) -> np.ndarray:
    """All N periodic P1 basis functions evaluated at one point.

    The hat centered at a node, in mesh units of the wrapped displacement
    (s, t), is max(0, 1 - max(|s|, |t|, |s - t|)) for the lower-left to
    upper-right diagonal orientation.
    """
    s, t = _mesh_displacement(grid, x, y)
    return np.maximum(
        0.0, 1.0 - np.maximum(np.abs(s), np.maximum(np.abs(t), np.abs(s - t)))
    )


def basis_gradients(grid: DofGrid, x: float, y: float) -> np.ndarray:
    """(N, 2) gradients of the periodic basis functions at one point.

    Points must avoid the measure-zero sector boundaries of the hats; the
    quadrature points used here always do.
    """
    s, t = _mesh_displacement(grid, x, y)
    forms = np.stack([s, t, s - t, -s, -t, t - s])
    active = np.argmax(forms, axis=0)
    inside = forms.max(axis=0) < 1.0
    g = -_FORM_GRADS[active] / _spacings(grid)
    g[~inside] = 0.0
    return g


def _quad_points(grid: DofGrid):
    for coords, area in zip(grid.tri_coords, grid.tri_area):
        pts = _QBARY @ coords
        for (x, y), w in zip(pts, _QW * area):
            yield x, y, w


@dataclass(frozen=True)
class DenseOperators:
    M: np.ndarray
    A: np.ndarray
    R: np.ndarray
    S: np.ndarray


def dense_assemble_all(grid: DofGrid, spec: ProblemSpec, U: np.ndarray) -> DenseOperators:
    """Assemble M, A, R and S(U) densely by direct quadrature of each entry."""
    _check_size(grid)
    N = grid.N
    U = np.asarray(U, dtype=float)
    M = np.zeros((N, N))
    A = np.zeros((N, N))
    R = np.zeros((N, N))
    S = np.zeros((N, N))
    for x, y, w in _quad_points(grid):
        phi = basis_values(grid, x, y)
        g = basis_gradients(grid, x, y)
        gx, gy = g[:, 0], g[:, 1]
        M += w * np.outer(phi, phi)
        A += w * (np.outer(gx, gx) + np.outer(gy, gy))
        px, py = spec.grad_p(np.asarray(x), np.asarray(y))
        # V(p) . grad phi_J weighted by phi_I
        R += w * np.outer(phi, -float(py) * gx + float(px) * gy)
        ux = gx @ U
        uy = gy @ U
        S += w * np.outer(phi, -uy * gx + ux * gy)
    return DenseOperators(M=M, A=A, R=R, S=S)


def dense_B(grid: DofGrid, W: np.ndarray) -> np.ndarray:
    """B(W) with column j = integral of (V(phi_j) . grad w_N) phi_I."""
    _check_size(grid)
    W = np.asarray(W, dtype=float)
    B = np.zeros((grid.N, grid.N))
    for x, y, w in _quad_points(grid):
        phi = basis_values(grid, x, y)
        g = basis_gradients(grid, x, y)
        gx, gy = g[:, 0], g[:, 1]
        wx = gx @ W
        wy = gy @ W
        B += w * np.outer(phi, -wx * gy + wy * gx)
    return B


def fd_jacobian(ops: FemOperators, state: State, tau: float, step: float) -> np.ndarray:
    """Central finite differences of the residual, column by column."""
    _check_size(ops.grid)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    from .assembly import assemble_S

    N = ops.grid.N
    Z = np.zeros(N)  # the Jacobian does not depend on Z

    def F(x):
        st = State(x[:N], x[N:])
        return residual(ops, assemble_S(ops.grid, st.U), st, Z, tau)

    x0 = np.concatenate([state.U, state.W])
    J = np.zeros((2 * N, 2 * N))
    for col in range(2 * N):
        xp = x0.copy()
        xm = x0.copy()
        xp[col] += step
        xm[col] -= step
        J[:, col] = (F(xp) - F(xm)) / (2 * step)
    return J


def dense_newton_step(grid: DofGrid, spec: ProblemSpec, state_t: State, cfg: SolverConfig):
    """One full Newton timestep computed entirely through the dense oracle path."""
    _check_size(grid)
    N = grid.N
    dense0 = dense_assemble_all(grid, spec, state_t.U)
    M, A, R = dense0.M, dense0.A, dense0.R
    K = M + A
    Z = M @ state_t.W
    tau = cfg.tau
    U, W = state_t.U.copy(), state_t.W.copy()
    err = np.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        S_k = dense_assemble_all(grid, spec, U).S
        B_k = dense_B(grid, W)
        J = np.block([[tau * B_k - tau * R, M + tau * S_k], [K, -M]])
        rhs = np.concatenate([tau * (S_k @ W) + Z, np.zeros(N)])
        sol = np.linalg.solve(J, rhs)
        U_new, W_new = sol[:N], sol[N:]
        err = rel_err(U_new, U)
        U, W = U_new, W_new
        k += 1
    return State(U, W), k


def dense_operators_match(grid: DofGrid, spec: ProblemSpec, U: np.ndarray, rtol: float = 1e-10):
    """Max mismatch between dense-oracle and sparse operators.

    Relative to each operator's largest entry, with a 1e-14 absolute floor
    for operators that are exactly zero (R vanishes identically on the
    2-cell torus by symmetry).
    """
    from .assembly import assemble_S

    dense = dense_assemble_all(grid, spec, U)
    ops = assemble_operators(grid, spec.grad_p)
    S = assemble_S(grid, U)
    out = {}
    ok = True
    for name, d, s in (
        ("M", dense.M, ops.M),
        ("A", dense.A, ops.A),
        ("R", dense.R, ops.R),
        ("S", dense.S, S),
    ):
        err = float(np.abs(d - s.to_dense()).max())
        scale = float(np.abs(d).max())
        out[name] = err / max(scale, 1e-14 / rtol)
        ok = ok and err <= rtol * scale + 1e-14
    return out, ok
