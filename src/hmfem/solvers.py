"""One implicit-Euler timestep of the coupled system.

Advancing (U(t), W(t)) by tau means solving

    F(U, W) = [ (M + tau S(U)) W - tau R U - Z ;  K U - M W ] = 0,
    Z = M W(t),

for the new pair.  Four methods are provided: full Newton (Jacobian rebuilt
every inner iteration), chord (Jacobian frozen at the step's initial
iterate), modified Newton (the B(W) block dropped, a fixed-point iteration),
and the single-solve semilinear scheme with coefficients frozen at time t.

All methods stop when the relative update of U falls below ``cfg.tol`` or
after ``cfg.k_max`` inner iterations; hitting k_max flags the report as
non-converged but still returns the last iterate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import FemOperators, assemble_B, assemble_S
from .sparse import (
    EPS_FLOOR,
    CsrMatrix,
    LuFactorization,
    SparseLu,
    m_norm,
    matvec,
)

#: Below this 2-norm the relative-error denominator switches to absolute error.
REL_ERR_FLOOR = 1e-14


@dataclass(frozen=True)
class State:
    """Coefficient pair (U, W) of the potential u_N and w_N = u_N - lap(u_N)."""

    U: np.ndarray
    W: np.ndarray


@dataclass
class SolverConfig:
    tau: float
    tol: float = 1e-6
    k_max: int = 20
    method: str = "modified"  # newton | chord | modified | semilinear

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.method not in ("newton", "chord", "modified", "semilinear"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class StepReport:
    """Convergence record of one timestep."""

    iterations: int
    final_rel_err: float
    residual_norm: float
    wall_time: float
    converged: bool


def rel_err(u_new: np.ndarray, u_old: np.ndarray) -> float:
    """||u_new - u_old|| / ||u_old||, falling back to absolute error near zero."""
    diff = float(np.linalg.norm(u_new - u_old))
    denom = float(np.linalg.norm(u_old))
    if denom < REL_ERR_FLOOR:
        return diff
    return diff / denom


def residual(
    ops: FemOperators, S_U: CsrMatrix, state: State, Z: np.ndarray, tau: float
) -> np.ndarray:
    """F(U, W) stacked as a 2N vector; S_U must be assemble_S at state.U."""
    U, W = state.U, state.W
    top = matvec(ops.M, W) + tau * matvec(S_U, W) - tau * matvec(ops.R, U) - Z
    bottom = matvec(ops.K, U) - matvec(ops.M, W)
    return np.concatenate([top, bottom])


def jacobian(ops: FemOperators, state: State, tau: float) -> CsrMatrix:
    """Exact Jacobian of F: [[tau (B(W) - R), M + tau S(U)], [K, -M]]."""
    S_U = assemble_S(ops.grid, state.U)
    B_W = assemble_B(ops.grid, state.W)
    return CsrMatrix.from_scipy(_block_system(ops, tau).matrix(S_U.values, B_W.values))


class _BlockSystem:
    """The 2N x 2N step matrix with its fixed pattern precomputed.

    All four blocks live on the grid's shared operator pattern, so one
    symbolic layout serves every iteration of every method; an iteration
    only refills values and refactors.  Blocks K and -M are constant, the
    (1,1) block defaults to -tau R (modified Newton) and is overwritten
    with tau(B - R) when a B value array is supplied.  ``jacobian()`` is
    built here too, so this is the one place that knows the block layout.
    """

    def __init__(self, ops: FemOperators, tau: float):
        grid = ops.grid
        N = grid.N
        P = grid.nnz_pattern
        marker = np.arange(4 * P, dtype=float)

        def blk(k):
            return sp.csr_matrix(
                (marker[k * P : (k + 1) * P], grid.csr_indices, grid.csr_indptr),
                shape=(N, N),
            )

        J = sp.bmat([[blk(0), blk(1)], [blk(2), blk(3)]], format="csc")
        pos = np.empty(4 * P, dtype=np.int64)
        pos[J.data.astype(np.int64)] = np.arange(4 * P)
        self._idx = [pos[k * P : (k + 1) * P] for k in range(4)]
        self._indptr = J.indptr
        self._indices = J.indices
        self._shape = J.shape
        self._tau = tau
        self._M_vals = ops.M.values
        self._R_vals = ops.R.values
        template = np.empty(4 * P)
        template[self._idx[0]] = -tau * self._R_vals
        template[self._idx[2]] = ops.K.values
        template[self._idx[3]] = -self._M_vals
        self._template = template

    def matrix(
        self, S_vals: np.ndarray, B_vals: np.ndarray | None = None
    ) -> sp.csc_matrix:
        data = self._template.copy()
        if B_vals is not None:
            data[self._idx[0]] = self._tau * (B_vals - self._R_vals)
        data[self._idx[1]] = self._M_vals + self._tau * S_vals
        return sp.csc_matrix((data, self._indices, self._indptr), shape=self._shape)

    def factor(self, S_vals: np.ndarray, B_vals: np.ndarray | None = None) -> SparseLu:
        return SparseLu(self.matrix(S_vals, B_vals))


def _block_system(ops: FemOperators, tau: float) -> _BlockSystem:
    key = ("block", tau)
    if key not in ops.cache:
        ops.cache[key] = _BlockSystem(ops, tau)
    return ops.cache[key]


def _final_residual_norm(ops, state, Z, tau) -> float:
    S_new = assemble_S(ops.grid, state.U)
    return float(np.linalg.norm(residual(ops, S_new, state, Z, tau)))


def _report(ops, state, Z, cfg, k, err, t0) -> StepReport:
    # Stop the clock before the residual audit: wall_time measures the
    # algorithmic work of the method, not the instrumentation.
    wall = time.perf_counter() - t0
    return StepReport(
        iterations=k,
        final_rel_err=err,
        residual_norm=_final_residual_norm(ops, state, Z, cfg.tau),
        wall_time=wall,
        converged=err <= cfg.tol,
    )


def step_newton(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Full Newton step: Jacobian and right-hand side rebuilt every iteration."""
    t0 = time.perf_counter()
    tau = cfg.tau
    N = ops.grid.N
    ws = _block_system(ops, tau)
    Z = matvec(ops.M, state_t.W)
    zeros = np.zeros(N)
    U, W = state_t.U, state_t.W
    err = math.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        S_k = assemble_S(ops.grid, U)
        B_k = assemble_B(ops.grid, W)
        lu = ws.factor(S_k.values, B_k.values)
        rhs = np.concatenate([tau * matvec(S_k, W) + Z, zeros])
        sol = lu.solve(rhs)
        U_new, W_new = sol[:N], sol[N:]
        err = rel_err(U_new, U)
        U, W = U_new, W_new
        k += 1
    state = State(U, W)
    return state, _report(ops, state, Z, cfg, k, err, t0)


def step_chord(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Chord step: Jacobian frozen at (U(t), W(t)), right-hand side refreshed."""
    t0 = time.perf_counter()
    tau = cfg.tau
    N = ops.grid.N
    ws = _block_system(ops, tau)
    Z = matvec(ops.M, state_t.W)
    zeros = np.zeros(N)
    U0, W0 = state_t.U, state_t.W
    S_0 = assemble_S(ops.grid, U0)
    B_0 = assemble_B(ops.grid, W0)
    lu = ws.factor(S_0.values, B_0.values)
    U, W = U0, W0
    err = math.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        if k == 0:
            # W = W0 here, so S(U)(W0 - W) vanishes and the rhs reduces to
            # Newton's first right-hand side.
            g = tau * matvec(S_0, W0) + Z
        else:
            S_k = assemble_S(ops.grid, U)
            g = tau * matvec(S_k, W0 - W) + tau * matvec(S_0, W) + Z
        sol = lu.solve(np.concatenate([g, zeros]))
        U_new, W_new = sol[:N], sol[N:]
        err = rel_err(U_new, U)
        U, W = U_new, W_new
        k += 1
    state = State(U, W)
    return state, _report(ops, state, Z, cfg, k, err, t0)


def step_modified(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Modified Newton step: the B(W) block is dropped, the rhs stays fixed.

    Each iteration solves [[-tau R, M + tau S(U_k)], [K, -M]] x = [Z; 0],
    i.e. the fixed-point map of the timestep system; B is never assembled.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    N = ops.grid.N
    ws = _block_system(ops, tau)
    Z = matvec(ops.M, state_t.W)
    rhs = np.concatenate([Z, np.zeros(N)])
    U, W = state_t.U, state_t.W
    err = math.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        S_k = assemble_S(ops.grid, U)
        lu = ws.factor(S_k.values)
        sol = lu.solve(rhs)
        U_new, W_new = sol[:N], sol[N:]
        err = rel_err(U_new, U)
        U, W = U_new, W_new
        k += 1
    state = State(U, W)
    return state, _report(ops, state, Z, cfg, k, err, t0)


def step_semilinear(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Semilinear step: one linear solve with coefficients frozen at time t.

    (M + tau S(U(t))) W(t+tau) = M W(t) + tau R U(t), then K U(t+tau) = M W(t+tau).
    Cheap, but unstable over long horizons; the reported residual_norm is the
    defect of the fully implicit system at the produced state.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    Z = matvec(ops.M, state_t.W)
    S_t = assemble_S(ops.grid, state_t.U)
    if "lu_K" not in ops.cache:
        ops.cache["lu_K"] = LuFactorization(ops.K)
    W_new = LuFactorization(ops.M + tau * S_t).solve(Z + tau * matvec(ops.R, state_t.U))
    U_new = ops.cache["lu_K"].solve(matvec(ops.M, W_new))
    state = State(U_new, W_new)
    wall = time.perf_counter() - t0
    report = StepReport(
        iterations=1,
        final_rel_err=rel_err(U_new, state_t.U),
        residual_norm=_final_residual_norm(ops, state, Z, tau),
        wall_time=wall,
        converged=True,
    )
    return state, report


STEPPERS = {
    "newton": step_newton,
    "chord": step_chord,
    "modified": step_modified,
    "semilinear": step_semilinear,
}


def step(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Advance one timestep with the configured method."""
    return STEPPERS[cfg.method](ops, state_t, cfg)


@dataclass(frozen=True)
class StabilityConstants:
    """Inverse-inequality constants of the step-size bounds; diagnostic only."""

    c_inv: float = 1.0
    c0_inv: float = 1.0


def tau_bound_report(
    ops: FemOperators,
    state: State,
    tau: float,
    p_norm_1inf: float,
    T: float,
    constants: StabilityConstants = StabilityConstants(),
) -> dict:
    """Theoretical step-size bounds and the ratios tau/bound.

    The bounds are reported, never enforced; the computations run with
    tau = O(h), far above them.  Exponentials are evaluated in log space to
    survive the huge growth factor exp(3 T ||p||).
    """
    h = ops.grid.h
    w_m = m_norm(ops.M, state.W)
    log_a0 = 3.0 * T * p_norm_1inf + math.log(max(w_m, EPS_FLOOR))
    # D = c_inv^2 exp(3 T ||p||) ||w0|| + 2 ||p||; log-sum approximated by max.
    log_D = max(
        log_a0 + 2.0 * math.log(max(constants.c_inv, EPS_FLOOR)),
        math.log(max(2.0 * p_norm_1inf, EPS_FLOOR)),
    )
    bounds = {
        "hyperbolic": 1.0 / (6.0 * p_norm_1inf) if p_norm_1inf > 0 else math.inf,
        "uniqueness": h * h / (16.0 * constants.c0_inv * w_m) if w_m > 0 else math.inf,
        "newton": math.exp(2.5 * math.log(h) - math.log(2.0) - log_D)
        if log_D < 700
        else 0.0,
    }
    return {
        "tau": tau,
        "bounds": bounds,
        "ratios": {k: (tau / v if v > 0 else math.inf) for k, v in bounds.items()},
    }
