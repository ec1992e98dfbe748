"""Command-line front end: run a test case and emit CSV snapshots and logs.

Outputs are plain text and deterministic for a fixed configuration (wall
times excepted), so runs can be diffed and fed to any plotting tool.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .grid import DofGrid, build_grid, dof_of_node
from .integrate import DEFAULT_CAP, RunResult, run
from .problems import preset
from .solvers import SolverConfig, State

USAGE_EXIT = 2
FAILURE_EXIT = 3


@dataclass
class RunConfig:
    test: int
    method: str = "modified"
    n: int = 17
    tau: float = 0.1
    T: float = 10.0
    tol: float = 1e-6
    k_max: int = 20
    snapshot_every: int = 10
    out_dir: str = ""
    cap: float = DEFAULT_CAP


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hmfem",
        description="Finite-element runs of the coupled Hasegawa-Mima system "
        "on a doubly periodic square.",
    )
    p.add_argument("--test", default="1", help="test case id (1..5)")
    p.add_argument(
        "--method",
        default="modified",
        choices=["newton", "chord", "modified", "semilinear"],
        help="per-timestep solver",
    )
    p.add_argument("--n", type=int, default=17, help="partition points per direction")
    p.add_argument("--tau", type=float, default=0.1, help="time step")
    p.add_argument("--T", type=float, default=10.0, help="end time")
    p.add_argument("--tol", type=float, default=1e-6, help="relative-error tolerance")
    p.add_argument("--kmax", type=int, default=20, help="max inner iterations")
    p.add_argument(
        "--snapshot-every", type=int, default=10, help="steps between state snapshots"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--cap", type=float, default=DEFAULT_CAP, help="amplitude cap on max|u|"
    )
    return p


def parse_args(argv) -> RunConfig:
    """Parse CLI flags into a RunConfig; bad input exits with a usage error."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        test = int(ns.test)
    except ValueError:
        parser.error(
            f"--test {ns.test!r} is not a preset id; custom problem files are "
            "not supported, use the library API"
        )
    if not 1 <= test <= 5:
        parser.error(f"--test must be 1..5, got {test}")
    for flag in ("tau", "T", "tol", "cap"):
        if not math.isfinite(getattr(ns, flag)):
            parser.error(f"--{flag} must be finite, got {getattr(ns, flag)}")
    if ns.tau <= 0:
        parser.error(f"--tau must be positive, got {ns.tau}")
    if ns.T < 0:
        parser.error(f"--T must be nonnegative, got {ns.T}")
    if not math.isfinite(ns.T / ns.tau):
        parser.error(f"--T / --tau must be a finite step count, got {ns.T}/{ns.tau}")
    if ns.tol <= 0:
        parser.error(f"--tol must be positive, got {ns.tol}")
    if ns.kmax < 1:
        parser.error(f"--kmax must be >= 1, got {ns.kmax}")
    if ns.snapshot_every < 1:
        parser.error(f"--snapshot-every must be >= 1, got {ns.snapshot_every}")
    if ns.n < 3:
        parser.error(f"--n must be >= 3, got {ns.n}")
    return RunConfig(
        test=test,
        method=ns.method,
        n=ns.n,
        tau=ns.tau,
        T=ns.T,
        tol=ns.tol,
        k_max=ns.kmax,
        snapshot_every=ns.snapshot_every,
        out_dir=ns.out,
        cap=ns.cap,
    )


def emit_snapshot(state: State, grid: DofGrid, t: float, path) -> None:
    """Write one state as CSV over the full n x n node lattice.

    Boundary rows and columns are replicated from their identified dofs;
    rows are ordered j-major then i; 17 significant digits round-trip
    float64 exactly.
    """
    xs, ys = grid.xs, grid.ys
    lines = ["x,y,u,w"]
    for j in range(grid.n):
        for i in range(grid.n):
            d = dof_of_node(grid, i, j)
            lines.append(
                f"{xs[i]:.17g},{ys[j]:.17g},{state.U[d]:.17g},{state.W[d]:.17g}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def emit_convergence_log(result: RunResult, path) -> None:
    """Write the per-timestep convergence table plus a totals line."""
    lines = ["t,iters,rel_err,residual,u_max,w_mnorm,wall_ms"]
    for t, rep, diag in zip(result.times[1:], result.reports, result.diagnostics[1:]):
        lines.append(
            f"{t:.17g},{rep.iterations},{rep.final_rel_err:.17g},"
            f"{rep.residual_norm:.17g},{diag.u_max:.17g},{diag.w_mnorm:.17g},"
            f"{rep.wall_time * 1e3:.6g}"
        )
    lines.append(
        f"# total_iterations={result.total_iterations()} "
        f"total_wall_ms={result.total_wall_time() * 1e3:.6g} "
        f"stop_reason={result.stop_reason}"
    )
    Path(path).write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    problem = preset(cfg.test)
    solver_cfg = SolverConfig(
        tau=cfg.tau, tol=cfg.tol, k_max=cfg.k_max, method=cfg.method
    )
    result = run(
        problem,
        solver_cfg,
        cfg.T,
        snapshot_every=cfg.snapshot_every,
        n=cfg.n,
        cap=cfg.cap,
    )

    grid = build_grid(problem.Lx, problem.Ly, cfg.n)
    for t, state in zip(result.state_times, result.states):
        emit_snapshot(state, grid, t, out / f"snapshot_t{t:.4f}.csv")
    emit_convergence_log(result, out / "convergence.csv")

    print(
        f"{problem.name} method={cfg.method} n={cfg.n} tau={cfg.tau}: "
        f"{len(result.reports)} steps, stop_reason={result.stop_reason}, "
        f"total_iterations={result.total_iterations()}"
    )
    if result.stop_reason in ("solver_failure", "non_finite"):
        print(f"hmfem: {result.stop_reason}: {result.failure}", file=sys.stderr)
        return FAILURE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
