import gc
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
from hmfem import integrate
from hmfem.integrate import DEFAULT_CAP, MAX_N, MAX_STEPS, check_run_inputs
from hmfem.solvers import step
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
    "kwargs, match",
    [
        ({"T": float("inf")}, "finite"),
        ({"T": float("nan")}, "finite"),
        ({"T": 1.0, "cap": float("nan")}, "finite"),
        ({"T": 1.0, "cap": float("inf")}, "finite"),
        ({"T": 1e308}, "finite"),  # finite, but T/tau overflows at tau = 0.1
        ({"T": 1e300}, "finite"),  # 1e301 steps: finite, but above MAX_STEPS
        # Counts must be integers, numpy's too (next test).
        ({"T": 1.0, "n": 17.0}, "n must be an integer"),
        ({"T": 1.0, "snapshot_every": 2.5}, "snapshot_every must be an integer"),
    ],
)
def test_run_rejects_invalid_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        run(preset(1), SolverConfig(tau=0.1), **{"n": 5, **kwargs})


def test_run_accepts_numpy_integers():
    cfg = SolverConfig(tau=0.1, k_max=np.int64(20))
    res = run(preset(1), cfg, T=0.1, snapshot_every=np.int64(1), n=np.int32(5))
    assert res.stop_reason == "reached_T"


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


ELEMENT_ARRAYS = {"tri_dofs", "tri_coords", "tri_grads", "tri_area"}


@pytest.mark.parametrize("tid", [2, 5])
@pytest.mark.parametrize("method", ["newton", "semilinear"])
def test_run_builds_no_element_arrays(tid, method):
    # A run works from the grid's stencil alone.
    res = run(preset(tid), SolverConfig(tau=0.1, method=method), T=0.2, n=9)
    assert res.stop_reason == "reached_T"
    assert not any(hasattr(res.grid, name) for name in ELEMENT_ARRAYS)


def test_setup_memory_peak_per_dof():
    # The peak behind MAX_N: build_grid, assemble_operators and the first
    # assemble_S traced together peak at 439 B per dof at n = 65 (436 at
    # n = 129), set by the S factor's build and the first S(U) on top of the
    # kept grid, M, K and R; R's row blocks peak below it.  The bound
    # leaves 16% for allocator and library variation.  Set-up keeps 431 B
    # per dof, the S factor and the first S(U) included; a stored stiffness
    # matrix (56 B per dof) would break the 460 B bound.  build_grid keeps
    # its CSR arrays and little else, 33 B per dof, and peaks at 46, so an
    # int64 array per slot (56 B per dof) would break either bound.
    spec = preset(2)
    tracemalloc.start()
    try:
        g = build_grid(spec.Lx, spec.Ly, 65)
        grid_kept, grid_peak = tracemalloc.get_traced_memory()
        ops = assemble_operators(g, spec.grad_p)
        S = assemble_S(g, np.ones(g.N))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid_kept / g.N <= 48 and grid_peak / g.N <= 53
    assert kept / g.N <= 460 and peak / g.N <= 509
    assert ops.grid is g and S.nrows == g.N


def test_records_per_step():
    # The basis of MAX_STEPS: a run keeps 417-426 B of records per step (its
    # time, StepReport and Diagnostics with their floats and list slots),
    # taken as the difference of what a 100-step and a 500-step run keep with
    # snapshots off.  The bound leaves 16% over 425 B for allocator and
    # library variation and stays below 0.5 KB.
    cfg = SolverConfig(tau=0.01, method="semilinear")

    def kept(T):
        gc.collect()
        tracemalloc.start()
        try:
            res = run(preset(2), cfg, T=T, snapshot_every=MAX_STEPS, n=5)
            gc.collect()
            return tracemalloc.get_traced_memory()[0], len(res.reports)
        finally:
            tracemalloc.stop()

    (k1, s1), (k2, s2) = kept(1.0), kept(5.0)
    assert (s1, s2) == (100, 500)
    assert (k2 - k1) / (s2 - s1) <= 493


@pytest.mark.parametrize("method", ["newton", "chord", "modified", "semilinear"])
def test_run_builds_step_inputs_before_the_first_step(monkeypatch, method):
    # The S stencil and the method's cached inverses exist when the first
    # step starts, so no step's wall_time holds a one-off build.
    seen = []

    def spy(ops, state, cfg):
        seen.append(("s_factor" in vars(ops.grid), sorted(map(str, ops.cache))))
        return step(ops, state, cfg)

    monkeypatch.setattr(integrate, "step", spy)
    cfg = SolverConfig(tau=0.1, method=method)
    res = run(preset(2), cfg, T=0.2, n=9)
    cached = ["K", "M"] if method == "semilinear" else ["('elimination', 0.1)", "M"]
    assert seen == [(True, cached)] * 2
    assert res.stop_reason == "reached_T"


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
