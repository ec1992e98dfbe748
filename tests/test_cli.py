import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfem import SolverConfig, State, build_grid, dof_of_node, preset, run
from hmfem.cli import emit_convergence_log, emit_snapshot, main, parse_args
from hmfem.integrate import MAX_N, MAX_STEPS


def test_parse_defaults():
    cfg = parse_args(["--test", "1", "--method", "newton", "--out", "d"])
    assert cfg.test == 1
    assert cfg.method == "newton"
    assert cfg.n == 17
    assert cfg.tau == 0.1
    assert cfg.T == 10.0
    assert cfg.tol == 1e-6
    assert cfg.k_max == 20
    assert cfg.snapshot_every == 10
    assert cfg.cap == 0.3


def test_parse_no_args_defaults_to_test_1():
    cfg = parse_args(["--out", "d"])
    assert cfg.test == 1
    assert cfg.method == "modified"


@pytest.mark.parametrize(
    "argv",
    [
        ["--tau", "-1", "--out", "d"],
        ["--test", "9", "--out", "d"],
        ["--test", "custom.toml", "--out", "d"],
        ["--frobnicate", "--out", "d"],
        ["--tau", "abc", "--out", "d"],
        ["--test", "1"],  # missing --out
        ["--T", "1e308", "--out", "d"],  # T/tau overflows at the default tau
        ["--n", "2", "--out", "d"],
    ],
)
def test_usage_errors_exit_nonzero(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2


#: Any float: st.floats() draws nan, +-inf, zeros, negatives and subnormals.
ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308])


@given(tau=ANY_FLOAT, T=ANY_FLOAT, tol=ANY_FLOAT, cap=ANY_FLOAT)
@settings(max_examples=200, deadline=None)
def test_numeric_flags_parse_finite_or_exit_2(tau, T, tol, cap):
    argv = [f"--tau={tau!r}", f"--T={T!r}", f"--tol={tol!r}", f"--cap={cap!r}"]
    valid = (
        all(math.isfinite(v) for v in (tau, T, tol, cap))
        and tau > 0
        and T >= 0
        and tol > 0
        and T / tau <= MAX_STEPS
    )
    if not valid:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv + ["--out", "d"])
        assert exc.value.code == 2
        return
    cfg = parse_args(argv + ["--out", "d"])
    assert (cfg.tau, cfg.T, cfg.tol, cfg.cap) == (tau, T, tol, cap)
    assert cfg.T / cfg.tau <= MAX_STEPS


def test_step_count_beyond_bound_is_a_usage_error(tmp_path, capsys):
    # A mistyped end time must not start a run that never ends.
    out = tmp_path / "d"
    argv = ["--test", "1", "--n", "5", "--tau", "1", "--T", "1e300", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"at most {MAX_STEPS}" in capsys.readouterr().err
    assert not out.exists()


def test_grid_size_beyond_bound_is_a_usage_error(tmp_path, capsys):
    # A mistyped --n must not end in a MemoryError traceback.  Validated
    # only: the MAX_N grid is accepted but not built.
    assert parse_args(["--n", str(MAX_N), "--out", "d"]).n == MAX_N
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exc:
        main(["--test", "1", "--n", str(MAX_N + 1), "--T", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert f"at most {MAX_N}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--tau", "--T", "--tol", "--cap"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_flags_are_usage_errors(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args([flag, value, "--out", "d"])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


def test_snapshot_zero_state(tmp_path):
    g = build_grid(1.0, 1.0, 3)
    st = State(np.zeros(g.N), np.zeros(g.N))
    path = tmp_path / "snap.csv"
    emit_snapshot(st, g, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,u,w"
    assert len(lines) == 1 + 9  # full 3x3 lattice
    for line in lines[1:]:
        _, _, u, w = line.split(",")
        assert float(u) == 0.0 and float(w) == 0.0


def test_snapshot_periodic_replication(tmp_path):
    g = build_grid(1.0, 1.0, 3)
    rng = np.random.default_rng(0)
    st = State(rng.standard_normal(g.N), rng.standard_normal(g.N))
    path = tmp_path / "snap.csv"
    emit_snapshot(st, g, path)
    rows = [l.split(",") for l in path.read_text().strip().split("\n")[1:]]
    # row order is j-major then i: row index = j*n + i
    def row(i, j):
        return rows[j * g.n + i]

    d00 = dof_of_node(g, 0, 0)
    assert float(row(2, 0)[2]) == st.U[d00]
    assert float(row(2, 0)[3]) == st.W[d00]
    assert float(row(0, 2)[2]) == st.U[d00]


def test_snapshot_round_trip(tmp_path):
    g = build_grid(np.pi, np.pi, 5)
    rng = np.random.default_rng(1)
    st = State(rng.standard_normal(g.N) * 1e-5, rng.standard_normal(g.N))
    path = tmp_path / "snap.csv"
    emit_snapshot(st, g, path)
    rows = [l.split(",") for l in path.read_text().strip().split("\n")[1:]]
    U_back = np.empty(g.N)
    W_back = np.empty(g.N)
    m = g.n - 1
    for j in range(m):
        for i in range(m):
            r = rows[j * g.n + i]
            U_back[dof_of_node(g, i, j)] = float(r[2])
            W_back[dof_of_node(g, i, j)] = float(r[3])
    assert np.array_equal(U_back, st.U)
    assert np.array_equal(W_back, st.W)


def emit_snapshot_loop(state, grid, path):
    """The per-node snapshot writer emit_snapshot replaced; the byte reference."""
    xs, ys = grid.xs, grid.ys
    lines = ["x,y,u,w"]
    for j in range(grid.n):
        for i in range(grid.n):
            d = dof_of_node(grid, i, j)
            lines.append(
                f"{xs[i]:.17g},{ys[j]:.17g},{state.U[d]:.17g},{state.W[d]:.17g}"
            )
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n", [3, 4, 17])
def test_snapshot_matches_per_node_loop(tmp_path, n):
    g = build_grid(np.pi, 2.0, n)
    rng = np.random.default_rng(n)
    U = rng.standard_normal(g.N) * 1e-7
    U[0] = -0.0
    st = State(U, -rng.standard_normal(g.N))
    emit_snapshot(st, g, tmp_path / "new.csv")
    emit_snapshot_loop(st, g, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_snapshot_layout_cache_keyed_by_grid(tmp_path):
    # Grids differing only in n, and with the same n but another Lx/Ly, in
    # turn; the states hold the edges of the .17g format.
    grids = [build_grid(*a) for a in [(1.0, 1.0, 5), (np.pi, 2.0, 5), (np.pi, 2.0, 9)]]
    edges = [-0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308]
    rng = np.random.default_rng(7)
    for k, g in enumerate(grids * 2):
        U = rng.standard_normal(g.N) * 10.0 ** rng.integers(-300, 300, g.N)
        W = rng.standard_normal(g.N)
        U[: len(edges)] = edges
        W[-len(edges) :] = edges
        st = State(U, W)
        emit_snapshot(st, g, tmp_path / f"new{k}.csv")
        emit_snapshot_loop(st, g, tmp_path / f"old{k}.csv")
        new = (tmp_path / f"new{k}.csv").read_bytes()
        assert new == (tmp_path / f"old{k}.csv").read_bytes()
        assert b"-0," in new and b"4.9406564584124654e-324" in new


def test_main_snapshots_each_state_on_the_run_grid(tmp_path, monkeypatch):
    import hmfem.cli as cli
    import hmfem.integrate as integrate

    calls = {"emit_snapshot": [], "build_grid": 0, "run": []}
    emit, build, run_ = cli.emit_snapshot, integrate.build_grid, cli.run

    def spy_emit(state, grid, path):
        calls["emit_snapshot"].append((state, grid, path))
        emit(state, grid, path)

    def spy_build(*args):
        calls["build_grid"] += 1
        return build(*args)

    def spy_run(*args, **kwargs):
        calls["run"].append(run_(*args, **kwargs))
        return calls["run"][-1]

    monkeypatch.setattr(cli, "emit_snapshot", spy_emit)
    for mod in (integrate, cli):  # every name a grid can be built through
        monkeypatch.setattr(mod, "build_grid", spy_build)
    monkeypatch.setattr(cli, "run", spy_run)
    out = tmp_path / "e2e"
    argv = ["--test", "2", "--n", "5", "--snapshot-every", "1", "--T", "0.3",
            "--out", str(out)]  # fmt: skip
    assert main(argv) == 0

    assert calls["build_grid"] == 1
    (result,) = calls["run"]
    assert len(result.states) == 4  # t = 0 and three steps
    assert len(calls["emit_snapshot"]) == len(result.states)
    for i, (state, grid, path) in enumerate(calls["emit_snapshot"]):
        assert state is result.states[i] and grid is result.grid
        emit_snapshot_loop(state, grid, tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_convergence_log_contents(tmp_path):
    res = run(preset(2), SolverConfig(tau=0.1, method="newton"), T=0.3, n=9)
    path = tmp_path / "conv.csv"
    emit_convergence_log(res, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,iters,rel_err,residual,u_max,w_mnorm,wall_ms"
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("# total_iterations=")
    assert "stop_reason=reached_T" in lines[-1]
    for line in lines[1:-1]:
        assert int(line.split(",")[1]) == 2


def test_convergence_log_T_zero(tmp_path):
    res = run(preset(1), SolverConfig(tau=0.1), T=0.0, n=5)
    path = tmp_path / "conv.csv"
    emit_convergence_log(res, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2  # header plus summary
    assert "total_iterations=0" in lines[1]


def test_main_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["--test", "2", "--method", "modified", "--n", "9", "--T", "0.5", "--out", str(out)]
    )
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert "convergence.csv" in files
    assert "snapshot_t0.0000.csv" in files
    assert "snapshot_t0.5000.csv" in files


def test_small_tau_snapshots_get_distinct_names(tmp_path):
    # Four decimals would name the six states after 0.0000 and 0.0001 only.
    out = tmp_path / "small_tau"
    argv = ["--test", "2", "--method", "semilinear", "--n", "5", "--tau", "0.00002",
            "--T", "0.0001", "--snapshot-every", "1", "--out", str(out)]
    assert main(argv) == 0
    snaps = sorted(p.name for p in out.iterdir() if p.name.startswith("snapshot"))
    times = ["0.000000", "0.000020", "0.000040", "0.000060", "0.000080", "0.000100"]
    assert snaps == [f"snapshot_t{t}.csv" for t in times]


def test_outputs_deterministic_modulo_wall_time(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        main(["--test", "3", "--n", "9", "--T", "0.4", "--out", str(out)])
        conv = (out / "convergence.csv").read_text().strip().split("\n")
        # drop the wall_ms column and the wall field of the summary
        data = [",".join(l.split(",")[:-1]) for l in conv[1:-1]]
        summary = [f for f in conv[-1].split() if not f.startswith("total_wall_ms")]
        snaps = sorted(p.name for p in out.iterdir() if p.name.startswith("snapshot"))
        snap_text = [(out / s).read_text() for s in snaps]
        outs.append((data, summary, snaps, snap_text))
    assert outs[0] == outs[1]


def test_main_amplitude_cap_exits_zero(tmp_path):
    code = main(
        ["--test", "1", "--n", "9", "--T", "1.0", "--cap", "1e-9",
         "--out", str(tmp_path / "cap")]
    )
    assert code == 0
    conv = (tmp_path / "cap" / "convergence.csv").read_text()
    assert "stop_reason=amplitude_cap" in conv


def test_main_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import hmfem.cli as cli
    from hmfem.integrate import RunResult

    for reason in ("solver_failure", "non_finite"):

        def fake_run(*args, **kwargs):
            return RunResult(
                times=[0.0],
                states=[State(np.zeros(16), np.zeros(16))],
                state_times=[0.0],
                reports=[],
                diagnostics=[],
                stop_reason=reason,
                grid=build_grid(1.0, 1.0, 5),
                failure="synthetic message",
            )

        monkeypatch.setattr(cli, "run", fake_run)
        argv = ["--test", "1", "--n", "5", "--T", "0.2", "--out", str(tmp_path / reason)]
        assert main(argv) == 3
        assert f"{reason}: synthetic message" in capsys.readouterr().err
