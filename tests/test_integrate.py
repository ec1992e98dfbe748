import tracemalloc

import numpy as np
import pytest

from hmfem import (
    InvalidPartitionError,
    SingularMatrixError,
    SolverConfig,
    apriori_check,
    assemble_operators,
    assemble_S,
    build_grid,
    init_w0,
    preset,
    run,
    sample_nodes,
)
from hmfem.integrate import DEFAULT_CAP, MAX_N, MAX_STEPS, check_run_inputs
from hmfem.problems import ProblemSpec


def test_init_w0_zero_and_constant():
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 7)
    ops = assemble_operators(g, spec.grad_p)
    assert np.abs(init_w0(ops, np.zeros(g.N))).max() <= 1e-14
    # A 1 = 0, so K c1 = M c1 and W0 = c1.
    c = 3.25
    W0 = init_w0(ops, c * np.ones(g.N))
    assert np.allclose(W0, c, atol=1e-10)


def test_init_w0_matches_dense_solve():
    spec = preset(1)
    g = build_grid(spec.Lx, spec.Ly, 9)
    ops = assemble_operators(g, spec.grad_p)
    U0 = sample_nodes(spec, g)
    W0 = init_w0(ops, U0)
    ref = np.linalg.solve(ops.M.to_dense(), ops.K.to_dense() @ U0)
    assert np.linalg.norm(W0 - ref) / np.linalg.norm(ref) <= 1e-10


def test_run_T_zero():
    res = run(preset(1), SolverConfig(tau=0.1), T=0.0, n=9)
    assert res.stop_reason == "reached_T"
    assert len(res.states) == 1
    assert res.reports == []
    assert res.times == [0.0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"T": float("inf")},
        {"T": float("nan")},
        {"T": 1.0, "cap": float("nan")},
        {"T": 1.0, "cap": float("inf")},
        {"T": 1e308},  # finite, but T/tau overflows at tau = 0.1
        {"T": 1e300},  # 1e301 steps: finite, but above MAX_STEPS
    ],
)
def test_run_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        run(preset(1), SolverConfig(tau=0.1), n=5, **kwargs)


def test_step_bound_admits_exactly_max_steps():
    # Validated only: a run of MAX_STEPS steps is accepted, one more is not.
    cfg = SolverConfig(tau=0.5)
    check_run_inputs(cfg, 0.5 * MAX_STEPS, 1, DEFAULT_CAP)
    with pytest.raises(ValueError, match="at most"):
        check_run_inputs(cfg, 0.5 * (MAX_STEPS + 1), 1, DEFAULT_CAP)


def test_grid_size_bound_admits_exactly_max_n():
    # Validated only: the n = 3 and MAX_N grids are accepted, one point
    # fewer or more is not, and run refuses either before building anything.
    cfg = SolverConfig(tau=0.1)
    for n in (3, MAX_N):
        check_run_inputs(cfg, 1.0, 1, DEFAULT_CAP, n)
    with pytest.raises(ValueError, match=f"at most {MAX_N}"):
        check_run_inputs(cfg, 1.0, 1, DEFAULT_CAP, MAX_N + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_N}"):
        run(preset(1), cfg, T=1.0, n=MAX_N + 1)
    with pytest.raises(InvalidPartitionError, match="n >= 3"):
        check_run_inputs(cfg, 1.0, 1, DEFAULT_CAP, 2)
    with pytest.raises(InvalidPartitionError, match="n >= 3"):
        run(preset(1), cfg, T=1.0, n=2)
    assert run(preset(1), cfg, T=0.1, n=3).stop_reason == "reached_T"


def test_setup_memory_peak_per_dof():
    # The peak behind MAX_N: build_grid, assemble_operators and the first
    # assemble_S traced together peak at 1152 B per dof at n = 65 (1150 at
    # n = 129 and 257), set by assemble_operators; the S factor's build
    # peaks at 1115.  The bound leaves 16% for allocator and library
    # variation.
    spec = preset(2)
    tracemalloc.start()
    try:
        g = build_grid(spec.Lx, spec.Ly, 65)
        assemble_operators(g, spec.grad_p)
        assemble_S(g, np.ones(g.N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.N <= 1340


def test_run_times_and_counts():
    res = run(preset(2), SolverConfig(tau=0.1), T=0.5, snapshot_every=2, n=9)
    assert res.times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert len(res.reports) == 5
    assert len(res.diagnostics) == 6
    # snapshots at t=0, 0.2, 0.4 plus the final state
    assert res.state_times == pytest.approx([0.0, 0.2, 0.4, 0.5])
    d = np.diff(res.times)
    assert (d > 0).all()


def test_run_deterministic():
    cfg = SolverConfig(tau=0.1, method="modified")
    r1 = run(preset(3), cfg, T=1.0, n=9)
    r2 = run(preset(3), cfg, T=1.0, n=9)
    assert np.array_equal(r1.final_state.U, r2.final_state.U)
    assert np.array_equal(r1.final_state.W, r2.final_state.W)
    assert [d.u_max for d in r1.diagnostics] == [d.u_max for d in r2.diagnostics]


def test_amplitude_cap_stops_run():
    res = run(preset(1), SolverConfig(tau=0.1), T=5.0, n=9, cap=1e-9)
    assert res.stop_reason == "amplitude_cap"
    assert res.failure is None
    assert len(res.reports) == 1  # checked after the first completed step
    assert res.diagnostics[-1].u_max >= 1e-9
    assert res.state_times[-1] == res.times[-1]


def test_solver_failure_returns_partial_results(monkeypatch):
    import hmfem.integrate as integ

    original = integ.step
    calls = {"n": 0}

    def boom(ops, state, cfg):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise SingularMatrixError("synthetic breakdown", pivot=0.0)
        return original(ops, state, cfg)

    monkeypatch.setattr(integ, "step", boom)
    res = run(preset(2), SolverConfig(tau=0.1), T=1.0, n=9)
    assert res.stop_reason == "solver_failure"
    assert "synthetic breakdown" in res.failure
    assert len(res.reports) == 2
    assert len(res.times) == 3


@pytest.mark.parametrize("method", ["newton", "chord", "modified"])
def test_at_most_one_lu_per_run(method):
    # No LU at all: the block system is solved per Fourier mode, exactly on
    # a uniform drift (preset 2) and through the circulant average of
    # -tau R on test 5's varying drift, and smooth data never falls back.
    cfg = SolverConfig(tau=0.1, method=method)
    for tid in (2, 5):
        res = run(preset(tid), cfg, T=1.0, n=17)
        assert res.stop_reason == "reached_T"
        assert res.total_factorizations() == 0
        assert {r.iterations for r in res.reports} == {2}


def test_semilinear_run_factors_nothing():
    # M and K are solved by FFT, and smooth data never falls back to an LU.
    res = run(preset(2), SolverConfig(tau=0.1, method="semilinear"), T=1.0, n=17)
    assert res.total_factorizations() == 0
    assert res.stop_reason == "reached_T"


@pytest.mark.parametrize("method", ["newton", "chord", "modified"])
def test_non_finite_iterate_stops_run(monkeypatch, method):
    from hmfem.solvers import _Work

    original = _Work.solve
    calls = {"n": 0}

    def nan_after_first_step(self, b, apply, precond, matrix, floor):
        calls["n"] += 1
        x = original(self, b, apply, precond, matrix, floor)
        return x if calls["n"] <= 2 else np.full_like(x, np.nan)

    monkeypatch.setattr(_Work, "solve", nan_after_first_step)
    res = run(preset(2), SolverConfig(tau=0.1, method=method), T=1.0, n=9)
    assert res.stop_reason == "non_finite"
    assert "non-finite" in res.failure
    assert len(res.reports) == 1  # test 2 takes 2 inner solves per step
    assert len(res.times) == len(res.diagnostics) == 2
    assert all(np.isfinite(s.U).all() and np.isfinite(s.W).all() for s in res.states)
    assert all(np.isfinite(d.u_max) for d in res.diagnostics)


def test_apriori_zero_data():
    zero = ProblemSpec(
        "zero", np.pi, np.pi,
        lambda x, y: 0.0 * x, lambda x, y: (0.0 * x, 0.0 * y), 1.0,
    )
    res = run(zero, SolverConfig(tau=0.1), T=0.3, n=5)
    rep = apriori_check(res, zero.p_norm_1inf)
    assert rep.max_w_ratio == 0.0
    assert rep.w_bound_ok and rep.u_le_w_ok


def test_apriori_bound_on_short_run():
    spec = preset(2)
    res = run(spec, SolverConfig(tau=0.1, method="newton"), T=1.0, n=9)
    rep = apriori_check(res, spec.p_norm_1inf)
    assert rep.w_bound_ok
    assert rep.max_w_ratio <= 1.0
    assert rep.u_le_w_ok


def test_step_count_formula():
    res = run(preset(2), SolverConfig(tau=0.1), T=0.25, n=5)
    assert len(res.reports) == 3  # ceil(0.25 / 0.1)


def test_tau_report_attached():
    res = run(preset(2), SolverConfig(tau=0.1), T=0.2, n=5)
    assert res.tau_report["tau"] == 0.1
    assert "bounds" in res.tau_report
