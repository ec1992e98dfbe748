"""The benchmark's workloads, how one run of each is executed, and its gate.

Every run goes through hmfem's public API only: ``hmfem.run`` for the
library workloads and ``hmfem.cli.main`` with an argv list for the CLI one.
The program receives nothing but preset ``ProblemSpec``s; the benchmark
seed only fixes the order of the runs inside each repetition.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hmfem
import hmfem.cli

TAU = 0.1
TOL = 1e-6
K_MAX = 20
IMPLICIT = ("newton", "chord", "modified")

#: Relative tolerance on the final u_max and w_mnorm against reference.json.
#: The methods agree to ~1e-13 and runs repeat bit for bit, so 1e-8 admits
#: a reordered summation or a different linear solver but not a changed
#: discretization.
REF_RTOL = 1e-8
#: C11's bound on the pairwise relative M-norm difference of the methods.
AGREEMENT_RTOL = 1e-6
#: C09's window for the time at which semilinear trips the amplitude cap.
CAP_WINDOW = (7.2, 12.0)

REFERENCE_PATH = Path(__file__).parent / "reference.json"
REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


@dataclass(frozen=True)
class Run:
    test: int
    method: str
    n: int
    T: float

    @property
    def key(self) -> str:
        return f"{self.test}/{self.method}"


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[Run, ...]
    #: Upper bound on every step's residual_norm.  The implicit methods leave
    #: ~1e-18 on the seed; semilinear reports the defect of the implicit
    #: system at its own state, which grows with the amplitude to 0.071.
    residual_bound: float
    cli: bool = False

    @property
    def n(self) -> int:
        (n,) = {r.n for r in self.runs}
        return n

    @property
    def elements(self) -> int:
        return 2 * (self.n - 1) ** 2

    @property
    def problems(self) -> list[tuple[int, int]]:
        """Distinct (test, n) pairs: the arguments each run's set-up uses."""
        return sorted({(r.test, r.n) for r in self.runs})


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's reference sweep, cut to T=1 (10 steps) so a repetition
        # takes seconds.  At n=17 the per-element assembly loops dominate.
        Workload(
            "ref17",
            tuple(Run(t, m, 17, 1.0) for t in range(1, 6) for m in IMPLICIT),
            residual_bound=1e-15,
        ),
        # Test 2 at n=129 for 2 steps: factorization and assembly carry the
        # cost, and set-up (grid and fixed operators) is a third of it.
        Workload(
            "fine129",
            tuple(Run(2, m, 129, 0.2) for m in IMPLICIT),
            residual_bound=1e-15,
        ),
        # The CLI's semilinear blow-up: the N x N solve path, the residual
        # audit, diagnostics and 104 CSV snapshots.
        Workload(
            "blowup_cli",
            (Run(2, "semilinear", 33, 30.0),),
            residual_bound=0.1,
            cli=True,
        ),
    )
}


def untraced(name: str, **attrs):
    """Span factory of an untraced repetition: records nothing."""
    return contextlib.nullcontext()


@dataclass
class Outcome:
    run: Run
    seconds: float = 0.0  # wall time of the user-facing call
    failures: list[str] = field(default_factory=list)
    final: object = None  # hmfem.State of a library run, for the agreement check
    u_max: float = float("nan")  # final diagnostics
    w_mnorm: float = float("nan")
    bytes_written: int = 0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _gate_values(wl: Workload, out: Outcome, residuals: list[float]) -> None:
    """Residual bound on every step, final u_max and w_mnorm against the reference."""
    key = out.run.key
    bad = [r for r in residuals if not r <= wl.residual_bound]
    if bad:
        out.failures.append(
            f"{key}: {len(bad)} step residuals above {wl.residual_bound:g}, worst {max(bad)!r}"
        )
    ref = REFERENCE.get(wl.name, {}).get(key)
    if ref is None:
        out.failures.append(f"{key}: no reference value in {REFERENCE_PATH.name}")
        return
    for name in ("u_max", "w_mnorm"):
        value = getattr(out, name)
        if not _rel(value, ref[name]) <= REF_RTOL:
            out.failures.append(f"{key}: final {name}={value!r}, reference {ref[name]!r}")


def run_library(wl: Workload, run: Run, span) -> Outcome:
    out = Outcome(run)
    spec = hmfem.preset(run.test)
    cfg = hmfem.SolverConfig(tau=TAU, tol=TOL, k_max=K_MAX, method=run.method)
    t0 = time.perf_counter()
    with span("integrate.run", method=run.method):
        res = hmfem.run(spec, cfg, run.T, n=run.n)
    out.seconds = time.perf_counter() - t0

    n_steps = math.ceil(run.T / TAU - 1e-10)
    if res.stop_reason != "reached_T" or len(res.reports) != n_steps:
        out.failures.append(
            f"{run.key}: stop_reason={res.stop_reason} after {len(res.reports)} "
            f"of {n_steps} steps"
        )
    expected = 1 if run.test == 3 else 2  # C01
    iters = sorted({r.iterations for r in res.reports})
    if iters != [expected]:
        out.failures.append(f"{run.key}: iterations {iters}, expected [{expected}]")
    out.u_max = res.diagnostics[-1].u_max
    out.w_mnorm = res.diagnostics[-1].w_mnorm
    _gate_values(wl, out, [r.residual_norm for r in res.reports])
    out.final = res.final_state
    return out


def run_cli(wl: Workload, run: Run, span, tmp_root: Path) -> Outcome:
    out = Outcome(run)
    out_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    argv = [
        "--test", str(run.test), "--method", run.method, "--n", str(run.n),
        "--T", f"{run.T:g}", "--snapshot-every", "1", "--out", str(out_dir),
    ]  # fmt: skip
    try:
        printed = io.StringIO()
        t0 = time.perf_counter()
        with span("cli.main", method=run.method), contextlib.redirect_stdout(printed):
            status = hmfem.cli.main(argv)
        out.seconds = time.perf_counter() - t0
        _check_cli_outputs(wl, run, status, out_dir, out)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _check_cli_outputs(wl: Workload, run: Run, status: int, out_dir: Path, out: Outcome):
    if status != 0:
        out.failures.append(f"{run.key}: exit status {status}")
        return
    lines = (out_dir / "convergence.csv").read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    totals = dict(kv.split("=", 1) for kv in lines[-1].lstrip("# ").split())
    snapshots = sorted(out_dir.glob("snapshot_t*.csv"))
    out.bytes_written = sum(p.stat().st_size for p in snapshots)
    if not rows:
        out.failures.append(f"{run.key}: convergence.csv has no step rows")
        return
    t_stop = float(rows[-1]["t"])
    n_steps = round(t_stop / TAU)
    if totals.get("stop_reason") != "amplitude_cap" or not (
        CAP_WINDOW[0] <= t_stop <= CAP_WINDOW[1]
    ):
        out.failures.append(
            f"{run.key}: stop_reason={totals.get('stop_reason')} at t={t_stop}, "
            f"expected amplitude_cap in {CAP_WINDOW}"
        )
    if len(rows) != n_steps or len(snapshots) != n_steps + 1:
        out.failures.append(
            f"{run.key}: {len(rows)} log rows and {len(snapshots)} snapshots "
            f"for {n_steps} steps"
        )
    if any(int(r["iters"]) != 1 for r in rows):
        out.failures.append(f"{run.key}: a semilinear step took more than 1 iteration")
    out.u_max = float(rows[-1]["u_max"])
    out.w_mnorm = float(rows[-1]["w_mnorm"])
    _gate_values(wl, out, [float(r["residual"]) for r in rows])


def check_agreement(wl: Workload, outcomes: list[Outcome], masses: dict) -> None:
    """C11 across the methods of each test; a disagreement fails every run of it."""
    by_test: dict[int, list[Outcome]] = {}
    for o in outcomes:
        if o.final is not None:
            by_test.setdefault(o.run.test, []).append(o)
    for test, group in by_test.items():
        M = masses[(test, wl.n)]
        worst = 0.0
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                for f in ("U", "W"):
                    va, vb = getattr(a.final, f), getattr(b.final, f)
                    d = hmfem.m_norm(M, va - vb) / max(hmfem.m_norm(M, va), 1e-300)
                    worst = max(worst, d)
        if not worst <= AGREEMENT_RTOL:
            for o in group:
                o.failures.append(f"test {test}: methods differ by {worst:.2e} (C11)")


def mass_matrices(wl: Workload) -> dict:
    out = {}
    for test, n in wl.problems:
        spec = hmfem.preset(test)
        out[(test, n)] = hmfem.assemble_mass(hmfem.build_grid(spec.Lx, spec.Ly, n))
    return out


def setup_once(wl: Workload) -> float:
    """Seconds of build_grid + assemble_operators + sample_nodes + init_w0 for each problem."""
    specs = [(hmfem.preset(test), n) for test, n in wl.problems]
    t0 = time.perf_counter()
    for spec, n in specs:
        grid = hmfem.build_grid(spec.Lx, spec.Ly, n)
        ops = hmfem.assemble_operators(grid, spec.grad_p)
        U0 = hmfem.sample_nodes(spec, grid)
        hmfem.init_w0(ops, U0)
    return time.perf_counter() - t0
