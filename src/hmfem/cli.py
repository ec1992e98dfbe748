"""Command-line front end: run a test case and emit CSV snapshots and logs.

Outputs are plain text and deterministic for a fixed configuration (wall
times excepted), so runs can be diffed and fed to any plotting tool.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

# Unused here (snapshots use RunResult.grid); perfbench's tracer hooks this name.
from .grid import DofGrid, build_grid  # noqa: F401
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
        check_run_inputs(solver_cfg, ns.T, ns.snapshot_every, ns.cap, ns.n)
    except ValueError as exc:
        parser.error(str(exc))
    return ns


@functools.lru_cache(maxsize=8)
def _snapshot_layout(n: int, Lx: float, Ly: float) -> tuple[np.ndarray, str]:
    """The dof of each lattice node and the snapshot text with x, y filled in.

    Nodes are ordered j-major then i; boundary rows and columns map to their
    identified dofs.  The template keeps ``%.17g,%.17g`` in place of u,w.
    """
    m = n - 1
    k = np.arange(n) % m  # the dof row/column of each lattice line
    dofs = (k[:, None] * m + k[None, :]).ravel()
    dofs.flags.writeable = False  # shared by every snapshot of this grid
    xs = np.linspace(0.0, Lx, n).tolist()  # as DofGrid.xs / ys
    ys = np.linspace(0.0, Ly, n).tolist()
    rows = [f"{x:.17g},{y:.17g},%.17g,%.17g" for y in ys for x in xs]
    return dofs, "x,y,u,w\n" + "\n".join(rows) + "\n"


def emit_snapshot(state: State, grid: DofGrid, path) -> None:
    """Write one state as CSV over the full n x n node lattice.

    Boundary rows and columns are replicated from their identified dofs;
    rows are ordered j-major then i; 17 significant digits round-trip
    float64 exactly.  The lattice layout and the x,y text are built once
    per grid (n, Lx, Ly); each call only formats u and w into it, and the
    bytes are those of formatting every value with ``.17g``.
    """
    dofs, template = _snapshot_layout(grid.n, grid.Lx, grid.Ly)
    values = np.empty(2 * len(dofs))
    values[0::2] = state.U[dofs]
    values[1::2] = state.W[dofs]
    Path(path).write_text(template % tuple(values.tolist()))


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

    # Enough decimals that consecutive steps get distinct names, at least 4.
    decimals = max(4, 1 - math.floor(math.log10(cfg.tau)))
    for t, state in zip(result.state_times, result.states):
        emit_snapshot(state, result.grid, out / f"snapshot_t{t:.{decimals}f}.csv")
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
