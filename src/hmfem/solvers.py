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
non-converged but still returns the last iterate.  A non-finite iterate or
update raises ``NonFiniteError`` instead of being accepted.

Newton, chord and modified are one loop, ``_newton_type_step``, that
differs only in the matrix it forms: with or without B, every iteration or
once per step.  They share one LU per run, that of the state-free step
matrix [[-tau R, M], [K, -M]], and solve each inner system by defect
correction against it, falling back to a fresh LU when that stalls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import FemOperators, assemble_B, assemble_S
from .errors import NonFiniteError, SingularMatrixError
from .sparse import (
    EPS_FLOOR,
    CsrMatrix,
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
    n_factor: int = 0  # fresh LU factorizations built inside the step
    n_linear_iters: int = 0  # defect corrections over all its linear solves


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


@dataclass
class _Work:
    """Linear-algebra work of one step: fresh LUs and defect corrections."""

    n_factor: int = 0
    n_linear_iters: int = 0

    def count(self, lu: SparseLu) -> None:
        self.n_linear_iters += lu.corrections


class _BlockSystem:
    """The 2N x 2N step matrix, its fixed pattern and the run's one LU.

    All four blocks live on the grid's shared operator pattern, so one
    symbolic layout serves every iteration of every method; an iteration
    only refills values.  Blocks K and -M are constant, the (1,1) block
    defaults to -tau R (modified Newton) and is overwritten with tau(B - R)
    when a B value array is supplied.  ``jacobian()`` is built here too, so
    this is the one place that knows the block layout.

    The state enters the matrix only through tau S and tau B, which are
    small against M and R on the presets, so the LU of the state-free
    matrix (S = B = 0) is built once and ``solve`` corrects every inner
    system against it.  When the correction stalls, as O(1) data makes tau S
    large, ``solve`` falls back to a fresh LU of the system itself.
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
        self._base: SparseLu | None = None

    def matrix(
        self, S_vals: np.ndarray, B_vals: np.ndarray | None = None
    ) -> sp.csc_matrix:
        data = self._template.copy()
        if B_vals is not None:
            data[self._idx[0]] = self._tau * (B_vals - self._R_vals)
        data[self._idx[1]] = self._M_vals + self._tau * S_vals
        return sp.csc_matrix((data, self._indices, self._indptr), shape=self._shape)

    def solve(self, A: sp.csc_matrix, b: np.ndarray, work: _Work) -> np.ndarray:
        """Solve A x = b against the base LU, or a fresh LU of A if that stalls."""
        if self._base is None:
            self._base = SparseLu(self.matrix(np.zeros_like(self._M_vals)))
            work.n_factor += 1
        try:
            x = self._base.solve(b, A)
            work.count(self._base)
        except SingularMatrixError:
            work.count(self._base)
            lu = SparseLu(A)
            work.n_factor += 1
            x = lu.solve(b)
            work.count(lu)
        return x


def _block_system(ops: FemOperators, tau: float) -> _BlockSystem:
    key = ("block", tau)
    if key not in ops.cache:
        ops.cache[key] = _BlockSystem(ops, tau)
    return ops.cache[key]


def _checked_rel_err(sol: np.ndarray, U: np.ndarray) -> float:
    """rel_err of the new U against U; a non-finite iterate is a failure."""
    err = rel_err(sol[: len(U)], U)
    if not (math.isfinite(err) and np.isfinite(sol).all()):
        raise NonFiniteError(f"non-finite iterate (rel_err {err})")
    return err


def _final_residual_norm(ops, state, Z, tau) -> float:
    S_new = assemble_S(ops.grid, state.U)
    return float(np.linalg.norm(residual(ops, S_new, state, Z, tau)))


def _report(ops, state, Z, cfg, k, err, t0, work, converged=None) -> StepReport:
    # Stop the clock before the residual audit: wall_time measures the
    # algorithmic work of the method, not the instrumentation.
    wall = time.perf_counter() - t0
    return StepReport(
        iterations=k,
        final_rel_err=err,
        residual_norm=_final_residual_norm(ops, state, Z, cfg.tau),
        wall_time=wall,
        converged=err <= cfg.tol if converged is None else converged,
        n_factor=work.n_factor,
        n_linear_iters=work.n_linear_iters,
    )


def _newton_type_step(ops, state_t, cfg, *, with_b, refresh):
    """The inner loop shared by newton, chord and modified.

    Each iteration assembles S(U) and solves the block system
    [[-tau R (+ tau B(W)), M + tau S], [K, -M]] x = [g; 0].  The matrix is
    formed at the first iterate, and again at every iterate when
    ``refresh`` is set; the B(W) block enters only ``with_b``.  Without B
    the right-hand side is fixed, g = Z.  With B, g = tau S(U) W + Z where
    the matrix was formed at this iterate; otherwise (chord) the frozen
    S(U0) is corrected, g = tau S(U)(W0 - W) + tau S(U0) W + Z.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    N = ops.grid.N
    ws = _block_system(ops, tau)
    work = _Work()
    Z = matvec(ops.M, state_t.W)
    zeros = np.zeros(N)
    rhs = None if with_b else np.concatenate([Z, zeros])
    U, W = state_t.U, state_t.W
    err = math.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        S = assemble_S(ops.grid, U)
        if k == 0 or refresh:
            S_A = S
            B_vals = assemble_B(ops.grid, W).values if with_b else None
            A = ws.matrix(S.values, B_vals)
        if with_b:
            if S is S_A:
                g = tau * matvec(S, W) + Z
            else:
                # Keep this grouping: a regrouped sum rounds differently.
                g = tau * matvec(S, state_t.W - W) + tau * matvec(S_A, W) + Z
            rhs = np.concatenate([g, zeros])
        sol = ws.solve(A, rhs, work)
        err = _checked_rel_err(sol, U)
        U, W = sol[:N], sol[N:]
        k += 1
    state = State(U, W)
    return state, _report(ops, state, Z, cfg, k, err, t0, work)


def step_newton(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Full Newton step: Jacobian and right-hand side rebuilt every iteration."""
    return _newton_type_step(ops, state_t, cfg, with_b=True, refresh=True)


def step_chord(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Chord step: Jacobian frozen at (U(t), W(t)), right-hand side refreshed."""
    return _newton_type_step(ops, state_t, cfg, with_b=True, refresh=False)


def step_modified(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Modified Newton step: the B(W) block is dropped, the rhs stays fixed.

    Each iteration solves [[-tau R, M + tau S(U_k)], [K, -M]] x = [Z; 0],
    i.e. the fixed-point map of the timestep system; B is never assembled.
    """
    return _newton_type_step(ops, state_t, cfg, with_b=False, refresh=True)


def step_semilinear(ops: FemOperators, state_t: State, cfg: SolverConfig):
    """Semilinear step: one linear solve with coefficients frozen at time t.

    (M + tau S(U(t))) W(t+tau) = M W(t) + tau R U(t), then K U(t+tau) = M W(t+tau).
    Cheap, but unstable over long horizons; the reported residual_norm is the
    defect of the fully implicit system at the produced state.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    work = _Work()
    Z = matvec(ops.M, state_t.W)
    S_t = assemble_S(ops.grid, state_t.U)
    if "lu_K" not in ops.cache:
        ops.cache["lu_K"] = SparseLu(ops.K)
        work.n_factor += 1
    lu_W = SparseLu(ops.M + tau * S_t)
    work.n_factor += 1
    W_new = lu_W.solve(Z + tau * matvec(ops.R, state_t.U))
    work.count(lu_W)
    U_new = ops.cache["lu_K"].solve(matvec(ops.M, W_new))
    work.count(ops.cache["lu_K"])
    err = _checked_rel_err(np.concatenate([U_new, W_new]), state_t.U)
    state = State(U_new, W_new)
    return state, _report(ops, state, Z, cfg, 1, err, t0, work, converged=True)


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
