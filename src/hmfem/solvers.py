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
once per step.  The loop corrects each inner system against the state-free
step matrix [[-tau R, M], [K, -M]].  On the uniform periodic grid M and K
are block circulant, so ``cached_solver`` inverts them by FFT
(``SpectralSolver`` of one block) for ``init_w0`` and semilinear.  The FFT
splits the state-free matrix into one 2x2 system per mode
(``SpectralSolver`` of the 2x2 block of symbols that ``_cached_elimination``
states), with -tau R replaced by its nearest block-circulant matrix,
T. F. Chan's circulant (``circulant_symbol``).  That inverse is exact when
the drift gradient is uniform and a close approximate inverse when it
varies in space; either way nothing is factored.  Every solve inside a
step goes through ``_Work.solve``: it refuses a non-finite right-hand
side, corrects against a nearby inverse down to the residual's rounding
floor, falls back to a fresh LU of the system when the correction stalls,
and counts the corrections and LUs.  ``ops.cache`` keeps the FFT inverses
of M and K and, per tau, -tau R with the inverse of the state-free matrix,
each with the rounding floor of its matrix, so a floor costs no set-up
per step; the elimination takes the symbol of M that M's inverse left.

After every step the residual audit evaluates F afresh at the new state,
outside ``wall_time`` (its own time is ``StepReport.audit_s``).  It forms
S(U) and M W of that state, and ``ops.cache["accepted"]`` keeps them with
the state: the run's diagnostics read its M W, and the next step from it
takes both as its S(U_t) and Z (``state_products``), so that step's
``wall_time`` does not count them.  Any other state, the initial one or a
caller's own, gets fresh products, so the slot never changes a result.
A state's arrays must not be changed once it has been audited.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .assembly import FemOperators, assemble_B, assemble_S
from .errors import NonFiniteError, SingularMatrixError
from .sparse import (
    EPS_FLOOR,
    CsrMatrix,
    SparseLu,
    SpectralSolver,
    block2x2,
    circulant_symbol,
    defect_correction,
    inf_norm,
    m_norm,
    matvec,
    matvec_add,
    norm2,
    rounding_floor,
    stencil_norm,
    symbol,
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
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        require_integer("k_max", self.k_max)
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.method not in STEPPERS:
            raise ValueError(f"unknown method {self.method!r}")


def require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer, numpy's included."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    audit_s: float = 0.0  # the residual audit's own time, outside wall_time


def rel_err(u_new: np.ndarray, u_old: np.ndarray) -> float:
    """||u_new - u_old|| / ||u_old||, falling back to absolute error near zero."""
    diff = norm2(u_new - u_old)
    denom = norm2(u_old)
    if denom < REL_ERR_FLOOR:
        return diff
    return diff / denom


def residual(
    ops: FemOperators,
    S_U: CsrMatrix,
    state: State,
    Z: np.ndarray,
    tau: float,
    MW: np.ndarray | None = None,
) -> np.ndarray:
    """F(U, W) stacked as a 2N vector; S_U must be assemble_S at state.U.

    ``MW``, when given, must be ``matvec(ops.M, state.W)``.
    """
    U, W = state.U, state.W
    if MW is None:
        MW = matvec(ops.M, W)
    top = MW + tau * matvec(S_U, W) - tau * matvec(ops.R, U) - Z
    bottom = matvec(ops.K, U) - MW
    return np.concatenate([top, bottom])


def jacobian(ops: FemOperators, state: State, tau: float) -> CsrMatrix:
    """Exact Jacobian of F: [[tau (B(W) - R), M + tau S(U)], [K, -M]].

    It is the inner matrix newton forms at (U, W), built by ``_form_system``.
    """
    S_U = assemble_S(ops.grid, state.U)
    B_W = assemble_B(ops.grid, state.W)
    _, matrix = _form_system(ops, tau, -tau * ops.R, S_U, B_W)
    return matrix()


@dataclass
class _Work:
    """Linear-algebra work of one step: fresh LUs and defect corrections."""

    n_factor: int = 0
    n_linear_iters: int = 0

    def solve(self, b, apply, precond, matrix, floor) -> np.ndarray:
        """Solve A x = b by correction against precond, or by an LU of matrix().

        The correction stops at ``floor``, the rounding floor of b - A x
        (``sparse.rounding_floor``); the LU at that of its own matrix.
        """
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            bnorm = norm2(b)
        if not math.isfinite(bnorm):
            raise NonFiniteError(f"non-finite right-hand side (norm {bnorm})")
        try:
            x, k = defect_correction(b, apply, precond, floor)
        except SingularMatrixError as exc:
            self.n_linear_iters += exc.corrections
            lu = SparseLu(matrix())
            self.n_factor += 1
            x, k = lu.solve(b), lu.corrections
        self.n_linear_iters += k
        return x


def cached_solver(ops: FemOperators, name: str):
    """The run's FFT inverse of ``ops.M`` or ``ops.K`` (``name`` "M" or "K").

    Returns the pair (``apply_inverse`` of a ``SpectralSolver``, the
    matrix's rounding floor).  The matrix's symbol stays in the cache for
    the per-tau elimination, which reads M's too (``_taken_symbol``).
    """
    if name not in ops.cache:
        A = getattr(ops, name)
        ops.cache[("symbol", name)] = sym = symbol(A)
        inverse = SpectralSolver([[sym]]).apply_inverse
        ops.cache[name] = inverse, rounding_floor(stencil_norm(A))
    return ops.cache[name]


def _taken_symbol(ops: FemOperators, name: str) -> np.ndarray:
    """The symbol ``cached_solver`` left for ``ops.M`` or ``ops.K``, else a fresh one.

    It is taken out of the cache: no step reads a symbol, and one kept
    through the steps cost n=129 runs extra page faults.
    """
    sym = ops.cache.pop(("symbol", name), None)
    return symbol(getattr(ops, name)) if sym is None else sym


def _cached_elimination(ops: FemOperators, tau: float):
    """-tau R, the inverse of [[-tau R, M], [K, -M]] and its rounding floor, once per tau.

    The inverse is a ``SpectralSolver`` of the symbols of M, K and
    Chan's circulant of -tau R (``circulant_symbol``), exact up to
    round-off when the drift gradient is uniform (tests 1-4); on test 5
    each defect correction against it multiplies the residual by about
    1e-2.  Nothing is factored.
    The floor is that of the state-free matrix, eps ((||-tau R||_inf +
    ||K||_inf) ||U|| + 2 ||M||_inf ||W||): tau S and tau B are small
    against its blocks where the correction converges.
    """
    key = ("elimination", tau)
    if key not in ops.cache:
        neg_tau_R = -tau * ops.R
        rho = circulant_symbol(neg_tau_R)
        mu, kappa = _taken_symbol(ops, "M"), _taken_symbol(ops, "K")
        eliminate = SpectralSolver([[rho, mu], [kappa, -mu]]).apply_inverse
        floor = rounding_floor(
            inf_norm(neg_tau_R) + stencil_norm(ops.K), 2.0 * stencil_norm(ops.M)
        )
        ops.cache[key] = neg_tau_R, eliminate, floor
    return ops.cache[key]


def prepare_steps(ops: FemOperators, cfg: SolverConfig) -> None:
    """Build the one-off parts every step of ``cfg.method`` reads, once per run.

    These are the grid's S stencil and the cached inverses: the per-tau
    inverse of the state-free matrix for newton, chord and modified, and
    the FFT inverses of M and K for semilinear.  Built before the first
    step, they stay out of every step's ``wall_time``.
    """
    ops.grid.s_factor
    if cfg.method == "semilinear":
        cached_solver(ops, "M")
        cached_solver(ops, "K")
        # No semilinear step builds the elimination that takes the symbols.
        ops.cache.pop(("symbol", "M"), None)
        ops.cache.pop(("symbol", "K"), None)
    else:
        _cached_elimination(ops, cfg.tau)


def _form_system(
    ops: FemOperators,
    tau: float,
    neg_tau_R: CsrMatrix,
    S: CsrMatrix,
    B: CsrMatrix | None,
):
    """One inner system A = [[C, M + tau S], [K, -M]] on the shared pattern.

    C is tau (B - R), or -tau R without B.  Returns ``apply`` (x -> A x) and
    a thunk that builds A as one 2N x 2N matrix for the fallback.  ``apply``
    adds the four block products into the halves of one output: C U then
    D W on top, and below K U onto -M W.
    """
    M, K, N = ops.M, ops.K, ops.grid.N
    D = replace(M, values=M.values + tau * S.values)
    C = neg_tau_R if B is None else replace(M, values=tau * (B.values - ops.R.values))

    def apply(x):
        U, W = x[:N], x[N:]
        y = np.zeros(2 * N)
        top, bottom = y[:N], y[N:]
        matvec_add(C, U, top)
        matvec_add(D, W, top)
        np.negative(matvec_add(M, W, bottom), out=bottom)
        matvec_add(K, U, bottom)
        return y

    return apply, lambda: block2x2(C, D, K, -M)


def _checked_rel_err(sol: np.ndarray, U: np.ndarray) -> float:
    """rel_err of the new U against U; a non-finite iterate is a failure."""
    err = rel_err(sol[: len(U)], U)
    if not (math.isfinite(err) and np.isfinite(sol).all()):
        raise NonFiniteError(f"non-finite iterate (rel_err {err})")
    return err


def state_products(ops: FemOperators, state: State, *, for_step: bool = True):
    """S(U) and M W at ``state``: the audit's when it audited ``state``, else fresh.

    A step from ``state`` takes them out of the slot, so that they live no
    longer than products it formed itself.  The diagnostics (not
    ``for_step``) read M W alone and leave the slot as it is; a fresh pair
    for them holds None for S, which is not formed.
    """
    slot = ops.cache.pop("accepted", None) if for_step else ops.cache.get("accepted")
    if slot is not None and slot[0] is state:
        return slot[1], slot[2]
    S_U = assemble_S(ops.grid, state.U) if for_step else None
    return S_U, matvec(ops.M, state.W)


def _final_residual_norm(ops, state, Z, tau) -> float:
    """||F|| at the step's new state, evaluated afresh; keeps its S(U) and M W."""
    S_new = assemble_S(ops.grid, state.U)
    MW = matvec(ops.M, state.W)
    ops.cache["accepted"] = state, S_new, MW
    return norm2(residual(ops, S_new, state, Z, tau, MW))


def _report(ops, state, Z, cfg, k, err, t0, work, converged=None) -> StepReport:
    # Stop the clock before the residual audit: wall_time measures the
    # algorithmic work of the method, not the instrumentation.
    t1 = time.perf_counter()
    residual_norm = _final_residual_norm(ops, state, Z, cfg.tau)
    return StepReport(
        iterations=k,
        final_rel_err=err,
        residual_norm=residual_norm,
        wall_time=t1 - t0,
        converged=err <= cfg.tol if converged is None else converged,
        n_factor=work.n_factor,
        n_linear_iters=work.n_linear_iters,
        audit_s=time.perf_counter() - t1,
    )


def _newton_type_step(ops, state_t, cfg, *, with_b, refresh):
    """The inner loop shared by newton, chord and modified.

    Each iteration assembles S(U), the first reading S(U_t) from
    ``state_products``, and solves the block system
    [[-tau R (+ tau B(W)), M + tau S], [K, -M]] x = [g; 0].  The matrix is
    formed at the first iterate, and again at every iterate when
    ``refresh`` is set; the B(W) block enters only ``with_b``.  Without B
    the right-hand side is fixed, g = Z, and so is the first iterate P g
    of every solve, which is eliminated once per step.  With B,
    g = tau S(U) W + Z where the matrix was formed at this iterate;
    otherwise (chord) the frozen S(U0) is corrected,
    g = tau S(U)(W0 - W) + tau S(U0) W + Z.

    tau S and tau B are small against M and R on the presets, so every
    solve corrects against the state-free system [[-tau R, M], [K, -M]],
    whose per-mode inverse ``_cached_elimination`` builds once per run:
    exact on a uniform drift, approximate on test 5, whose solves then
    make a few more corrections.  When the correction stalls, as O(1) data
    makes tau S large, a solve falls back to an LU of its 2N x 2N system.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    N = ops.grid.N
    work = _Work()
    # -tau R is C of every inner system without B.
    neg_tau_R, eliminate, floor = _cached_elimination(ops, tau)
    S, Z = state_products(ops, state_t)
    zeros = np.zeros(N)
    rhs, precond = None, eliminate
    if not with_b:
        # The rhs is fixed, and so is the first iterate of each solve,
        # P rhs: eliminate it once per step, after _Work.solve has checked it.
        rhs, P_rhs = np.concatenate([Z, zeros]), []

        def precond(r):
            if r is not rhs:
                return eliminate(r)
            if not P_rhs:
                P_rhs.append(eliminate(r))
            return P_rhs[0]

    U, W = state_t.U, state_t.W
    err = math.inf
    k = 0
    while err > cfg.tol and k < cfg.k_max:
        if k:
            S = assemble_S(ops.grid, U)
        if k == 0 or refresh:
            S_A = S
            B = assemble_B(ops.grid, W) if with_b else None
            apply, matrix = _form_system(ops, tau, neg_tau_R, S, B)
        if with_b:
            if S is S_A:
                g = tau * matvec(S, W) + Z
            else:
                # Keep this grouping: a regrouped sum rounds differently.
                g = tau * matvec(S, state_t.W - W) + tau * matvec(S_A, W) + Z
            rhs = np.concatenate([g, zeros])
        sol = work.solve(rhs, apply, precond, matrix, floor)
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

    (M + tau S(U(t))) W(t+tau) = M W(t) + tau R U(t), then K U(t+tau) = M W(t+tau),
    both through ``_Work.solve``: the first corrected against the run's FFT
    inverse of M, down to M's rounding floor (tau S is small against M),
    the second against that of K, so no LU is built unless a correction
    stalls.  Cheap, but unstable over long horizons; the reported
    residual_norm is the defect of the fully implicit system at the
    produced state.
    """
    t0 = time.perf_counter()
    tau = cfg.tau
    M, K = ops.M, ops.K
    work = _Work()
    S_t, Z = state_products(ops, state_t)
    D = replace(M, values=M.values + tau * S_t.values)
    rhs = Z + tau * matvec(ops.R, state_t.U)
    inv_M, floor_M = cached_solver(ops, "M")
    inv_K, floor_K = cached_solver(ops, "K")
    W_new = work.solve(rhs, partial(matvec, D), inv_M, lambda: D, floor_M)
    U_new = work.solve(matvec(M, W_new), partial(matvec, K), inv_K, lambda: K, floor_K)
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


def tau_bound_report(
    ops: FemOperators, state: State, tau: float, p_norm_1inf: float, T: float
) -> dict:
    """Theoretical step-size bounds and the ratios tau/bound.

    The bounds are reported, never enforced; the computations run with
    tau = O(h), far above them.  Exponentials are evaluated in log space to
    survive the huge growth factor exp(3 T ||p||).  The inverse-inequality
    constants are taken as c_inv = c0_inv = 1.
    """
    c_inv = c0_inv = 1.0
    h = ops.grid.h
    w_m = m_norm(ops.M, state.W)
    log_a0 = 3.0 * T * p_norm_1inf + math.log(max(w_m, EPS_FLOOR))
    # D = c_inv^2 exp(3 T ||p||) ||w0|| + 2 ||p||; log-sum approximated by max.
    log_D = max(
        log_a0 + 2.0 * math.log(max(c_inv, EPS_FLOOR)),
        math.log(max(2.0 * p_norm_1inf, EPS_FLOOR)),
    )
    bounds = {
        "hyperbolic": 1.0 / (6.0 * p_norm_1inf) if p_norm_1inf > 0 else math.inf,
        "uniqueness": h * h / (16.0 * c0_inv * w_m) if w_m > 0 else math.inf,
        "newton": math.exp(2.5 * math.log(h) - math.log(2.0) - log_D)
        if log_D < 700
        else 0.0,
    }
    return {
        "tau": tau,
        "bounds": bounds,
        "ratios": {k: (tau / v if v > 0 else math.inf) for k, v in bounds.items()},
    }
