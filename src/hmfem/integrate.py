"""Implicit-Euler outer loop: initialize W0, advance to T, collect diagnostics.

A run stops for one of four reasons: the end time is reached, the amplitude
cap max|U| >= cap is hit after a completed step, a linear solve breaks
down, or an iterate comes out non-finite (partial results are still
returned; the failing step is never accepted).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .assembly import FemOperators, assemble_operators
from .errors import InvalidPartitionError, NonFiniteError, SingularMatrixError
from .grid import DofGrid, build_grid
from .problems import ProblemSpec, sample_nodes
from .solvers import (
    SolverConfig,
    State,
    StepReport,
    cached_solver,
    m_norm,
    prepare_steps,
    require_integer,
    step,
    tau_bound_report,
)
from .sparse import EPS_FLOOR, defect_correction, matvec

log = logging.getLogger(__name__)

DEFAULT_CAP = 0.3

#: The most steps a run takes.  A run keeps about 0.42 KB of records per step
#: (417-426 B, tracemalloc), so this bounds them near 0.43 GB before snapshots;
#: the paper's long runs take thousands of steps.
MAX_STEPS = 10**6

#: The most partition points per side of a run's grid.  ``build_grid``,
#: ``assemble_operators`` and the first ``assemble_S`` peak at about 0.44 KB
#: per dof (tracemalloc at n = 65 and 129: 439 and 436 B), set by the S
#: stencil's build and the first S(U) on top of the kept grid, M, K and R;
#: ``assemble_R`` works in row blocks and peaks below that.  A newton run
#: peaks higher, at about 0.96 KB per dof in its steps (955 B at n = 65),
#: so the (MAX_N - 1)^2 dofs bound set-up near 0.12 GB and a run near
#: 0.25 GB; the paper's grids have n <= 129.
MAX_N = 513


@dataclass(frozen=True)
class Diagnostics:
    """max|U| and the M-norms of U and W at t = 0 and after every accepted step;
    the elliptic constraint is audited once per step, in ``StepReport.residual_norm``."""

    u_max: float
    u_mnorm: float
    w_mnorm: float


@dataclass
class RunResult:
    """Whole-run time series.

    ``times`` and ``diagnostics`` cover t = 0 and every accepted step;
    ``reports`` has one entry per step; ``states`` holds the snapshots taken
    at ``state_times`` (t = 0, every ``snapshot_every`` steps, and the final
    state) as dof vectors on ``grid``, the grid the run built.  ``failure``
    keeps the message of the error that ended a run with ``solver_failure``
    or ``non_finite``, and is None otherwise.
    """

    times: list[float]
    states: list[State]
    state_times: list[float]
    reports: list[StepReport]
    diagnostics: list[Diagnostics]
    stop_reason: str  # reached_T | amplitude_cap | solver_failure | non_finite
    grid: DofGrid
    tau_report: dict = field(default_factory=dict)
    failure: str | None = None

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.reports)

    def total_wall_time(self) -> float:
        return sum(r.wall_time for r in self.reports)

    def total_factorizations(self) -> int:
        return sum(r.n_factor for r in self.reports)

    def total_linear_iterations(self) -> int:
        return sum(r.n_linear_iters for r in self.reports)


def init_w0(ops: FemOperators, U0: np.ndarray) -> np.ndarray:
    """Initial W from the elliptic constraint: solve M W0 = K U0.

    Corrected against the run's cached FFT inverse of M, down to M's
    rounding floor; a solve that misses the residual contract raises
    ``SingularMatrixError``.
    """
    inv_M, floor_M = cached_solver(ops, "M")
    W0, _ = defect_correction(matvec(ops.K, U0), partial(matvec, ops.M), inv_M, floor_M)
    return W0


def _diagnose(ops: FemOperators, state: State) -> Diagnostics:
    return Diagnostics(
        u_max=float(np.abs(state.U).max()),
        u_mnorm=m_norm(ops.M, state.U),
        w_mnorm=m_norm(ops.M, state.W),
    )


def check_run_inputs(
    cfg: SolverConfig, T: float, snapshot_every: int, cap: float, n: int = 17
):
    """Raise ValueError unless T, T/tau, cap, snapshot_every and n suit a run.

    An n below 3 raises ``InvalidPartitionError``, as ``build_grid`` does.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"end time must be finite and nonnegative, got {T}")
    if not T / cfg.tau <= MAX_STEPS:
        raise ValueError(
            f"step count T/tau must be finite and at most {MAX_STEPS}, "
            f"got {T}/{cfg.tau}"
        )
    if not math.isfinite(cap):
        raise ValueError(f"amplitude cap must be finite, got {cap}")
    require_integer("snapshot_every", snapshot_every)
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
    require_integer("grid size n", n)
    if n < 3:
        raise InvalidPartitionError(f"need n >= 3 partition points, got {n}")
    if n > MAX_N:
        raise ValueError(f"grid size n must be at most {MAX_N}, got {n}")


def step_count(T: float, tau: float) -> int:
    """The number of steps of a run to T; the last ends at step_count * tau."""
    return max(0, math.ceil(T / tau - 1e-10))


def run(
    problem: ProblemSpec,
    cfg: SolverConfig,
    T: float,
    snapshot_every: int = 10,
    n: int = 17,
    cap: float = DEFAULT_CAP,
) -> RunResult:
    """Advance the problem from its initial data to time T.

    The grid and the fixed operators are assembled once; U0 is the nodal
    interpolation of u0 and W0 comes from the elliptic solve.  What every
    step reads, the S stencil and the method's inverses, is built before
    the first step (``prepare_steps``), so each ``wall_time`` measures its
    step alone.  The amplitude cap is checked after each completed step.
    """
    check_run_inputs(cfg, T, snapshot_every, cap, n)
    grid = build_grid(problem.Lx, problem.Ly, n)
    ops = assemble_operators(grid, problem.grad_p)
    U0 = sample_nodes(problem, grid)
    state = State(U0, init_w0(ops, U0))

    result = RunResult(
        times=[0.0],
        states=[state],
        state_times=[0.0],
        reports=[],
        diagnostics=[_diagnose(ops, state)],
        stop_reason="reached_T",
        grid=grid,
        tau_report=tau_bound_report(ops, state, cfg.tau, problem.p_norm_1inf, T),
    )

    n_steps = step_count(T, cfg.tau)
    for i in range(n_steps):
        t = (i + 1) * cfg.tau
        try:
            if i == 0:
                prepare_steps(ops, cfg)
            state, report = step(ops, state, cfg)
        except SingularMatrixError as exc:
            log.warning("linear solve failed at t=%.6g: %s", t, exc)
            result.stop_reason = "solver_failure"
            result.failure = str(exc)
            break
        except NonFiniteError as exc:
            log.warning("step to t=%.6g failed: %s", t, exc)
            result.stop_reason = "non_finite"
            result.failure = str(exc)
            break
        if not report.converged:
            log.warning(
                "step to t=%.6g hit k_max=%d with rel_err=%.3e",
                t,
                cfg.k_max,
                report.final_rel_err,
            )
        result.times.append(t)
        result.reports.append(report)
        diag = _diagnose(ops, state)
        result.diagnostics.append(diag)
        capped = diag.u_max >= cap
        if (i + 1) % snapshot_every == 0 or i + 1 == n_steps or capped:
            result.states.append(state)
            result.state_times.append(t)
        if capped:
            result.stop_reason = "amplitude_cap"
            break
    return result


@dataclass(frozen=True)
class AprioriReport:
    """Outcome of checking the growth bound along a completed run."""

    max_w_ratio: float  # sup_t ||w(t)||_M / (e^{3 t ||p||} ||w(0)||_M)
    max_u_excess: float  # sup_t (||u(t)||_M - ||w(t)||_M)
    w_bound_ok: bool
    u_le_w_ok: bool


def apriori_check(result: RunResult, p_norm_1inf: float) -> AprioriReport:
    """Verify ||w(t)|| <= e^{3 t ||p||} ||w(0)|| and ||u(t)|| <= ||w(t)||.

    Evaluated in log space so the (very loose) exponential factor cannot
    overflow; report-only, nothing is raised.
    """
    w0 = result.diagnostics[0].w_mnorm
    max_log_ratio = -math.inf
    max_u_excess = -math.inf
    for t, diag in zip(result.times, result.diagnostics):
        bound_log = 3.0 * t * p_norm_1inf + math.log(max(w0, EPS_FLOOR))
        wlog = math.log(max(diag.w_mnorm, EPS_FLOOR))
        max_log_ratio = max(max_log_ratio, wlog - bound_log)
        max_u_excess = max(max_u_excess, diag.u_mnorm - diag.w_mnorm)
    if w0 == 0.0 and all(d.w_mnorm == 0.0 for d in result.diagnostics):
        max_log_ratio = -math.inf  # zero data: every ratio is 0
    ratio = math.exp(max_log_ratio) if max_log_ratio < 700 else math.inf
    return AprioriReport(
        max_w_ratio=ratio,
        max_u_excess=max_u_excess,
        w_bound_ok=max_log_ratio <= 0.0,
        u_le_w_ok=max_u_excess <= 1e-9,
    )
