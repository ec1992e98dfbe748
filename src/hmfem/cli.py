"""Command-line front end: run a test case and emit CSV snapshots and logs.

Outputs are plain text and deterministic for a fixed configuration (wall
times excepted), so runs can be diffed and fed to any plotting tool.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .grid import DofGrid, build_grid
from .integrate import DEFAULT_CAP, RunResult, check_run_inputs, run
from .problems import preset
from .solvers import STEPPERS, SolverConfig, State

USAGE_EXIT = 2
FAILURE_EXIT = 3


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
        choices=list(STEPPERS),
        help="per-timestep solver",
    )
    p.add_argument("--n", type=int, default=17, help="partition points per direction")
    p.add_argument("--tau", type=float, default=0.1, help="time step")
    p.add_argument("--T", type=float, default=10.0, help="end time")
    p.add_argument("--tol", type=float, default=1e-6, help="relative-error tolerance")
    p.add_argument(
        "--kmax", dest="k_max", metavar="KMAX", type=int, default=20,
        help="max inner iterations",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=10, help="steps between state snapshots"
    )
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    p.add_argument(
        "--cap", type=float, default=DEFAULT_CAP, help="amplitude cap on max|u|"
    )
    return p


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate CLI flags; bad input exits with a usage error."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        ns.test = int(ns.test)
    except ValueError:
        parser.error(
            f"--test {ns.test!r} is not a preset id; custom problem files are "
            "not supported, use the library API"
        )
    if not 1 <= ns.test <= 5:
        parser.error(f"--test must be 1..5, got {ns.test}")
    try:
        solver_cfg = SolverConfig(ns.tau, ns.tol, ns.k_max, ns.method)
        check_run_inputs(solver_cfg, ns.T, ns.snapshot_every, ns.cap)
    except ValueError as exc:
        parser.error(str(exc))
    if ns.n < 3:
        parser.error(f"--n must be >= 3, got {ns.n}")
    return ns


def emit_snapshot(state: State, grid: DofGrid, t: float, path) -> None:
    """Write one state as CSV over the full n x n node lattice.

    Boundary rows and columns are replicated from their identified dofs;
    rows are ordered j-major then i; 17 significant digits round-trip
    float64 exactly.
    """
    n, m = grid.n, grid.n - 1
    k = np.arange(n) % m  # the dof row/column of each lattice line
    d = (k[:, None] * m + k[None, :]).ravel()  # dof_of_node, j-major then i
    columns = (np.tile(grid.xs, n), np.repeat(grid.ys, n), state.U[d], state.W[d])
    rows = zip(*(c.tolist() for c in columns))
    lines = [f"{x:.17g},{y:.17g},{u:.17g},{w:.17g}" for x, y, u, w in rows]
    Path(path).write_text("x,y,u,w\n" + "\n".join(lines) + "\n")


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
    solver_cfg = SolverConfig(cfg.tau, cfg.tol, cfg.k_max, cfg.method)
    result = run(
        problem,
        solver_cfg,
        cfg.T,
        snapshot_every=cfg.snapshot_every,
        n=cfg.n,
        cap=cfg.cap,
    )

    grid = build_grid(problem.Lx, problem.Ly, cfg.n)
    # Enough decimals that consecutive steps get distinct names, at least 4.
    decimals = max(4, 1 - math.floor(math.log10(cfg.tau)))
    for t, state in zip(result.state_times, result.states):
        emit_snapshot(state, grid, t, out / f"snapshot_t{t:.{decimals}f}.csv")
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
