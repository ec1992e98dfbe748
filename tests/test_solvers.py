import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfem import (
    NonFiniteError,
    SolverConfig,
    State,
    assemble_B,
    assemble_operators,
    assemble_S,
    block2x2,
    build_grid,
    init_w0,
    jacobian,
    m_norm,
    matvec,
    preset,
    residual,
    run,
    sample_nodes,
    step_chord,
    step_modified,
    step_newton,
    step_semilinear,
)
from hmfem.oracle import dense_newton_step
from hmfem.problems import ProblemSpec
from hmfem.solvers import _cached_elimination, _Work, tau_bound_report
from hmfem.sparse import SparseLu, SpectralSolver, is_block_circulant


def initial_state(spec, n):
    g = build_grid(spec.Lx, spec.Ly, n)
    ops = assemble_operators(g, spec.grad_p)
    U0 = sample_nodes(spec, g)
    return ops, State(U0, init_w0(ops, U0))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, k_max=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, method="broyden")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"tau": 0.1, "tol": float("nan")},
        {"tau": 0.1, "tol": float("inf")},
    ],
)
def test_config_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**kwargs)


#: Any float: st.floats() draws nan, +-inf, zeros, negatives and subnormals.
ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308])


@given(tau=ANY_FLOAT, tol=ANY_FLOAT)
@settings(max_examples=200, deadline=None)
def test_config_accepts_only_finite_positive(tau, tol):
    if all(math.isfinite(v) and v > 0 for v in (tau, tol)):
        cfg = SolverConfig(tau=tau, tol=tol)
        assert (cfg.tau, cfg.tol) == (tau, tol)
    else:
        with pytest.raises(ValueError):
            SolverConfig(tau=tau, tol=tol)


def test_residual_zero_after_converged_step():
    ops, s0 = initial_state(preset(2), 9)
    cfg = SolverConfig(tau=0.1, method="newton")
    _, rep = step_newton(ops, s0, cfg)
    assert rep.residual_norm <= 1e-10


def test_residual_decoupled_projection(rng):
    # tau = 0 with W solving M W = K U and Z = M W gives F = 0 exactly.
    ops, _ = initial_state(preset(2), 7)
    U = rng.standard_normal(ops.grid.N)
    W = SparseLu(ops.M).solve(matvec(ops.K, U))
    Z = matvec(ops.M, W)
    F = residual(ops, assemble_S(ops.grid, U), State(U, W), Z, tau=0.0)
    assert np.linalg.norm(F) <= 1e-10 * max(np.linalg.norm(Z), 1.0)


def test_residual_matches_dense_reconstruction(rng):
    ops, _ = initial_state(preset(2), 7)
    N = ops.grid.N
    U = rng.standard_normal(N)
    W = rng.standard_normal(N)
    Z = rng.standard_normal(N)
    tau = 0.13
    S = assemble_S(ops.grid, U)
    F = residual(ops, S, State(U, W), Z, tau)
    Md, Kd, Rd, Sd = (m.to_dense() for m in (ops.M, ops.K, ops.R, S))
    top = (Md + tau * Sd) @ W - tau * Rd @ U - Z
    bottom = Kd @ U - Md @ W
    assert np.allclose(F, np.concatenate([top, bottom]), atol=1e-12)


def test_jacobian_tau_zero_state_independent(rng):
    ops, _ = initial_state(preset(2), 5)
    N = ops.grid.N
    st1 = State(rng.standard_normal(N), rng.standard_normal(N))
    st2 = State(rng.standard_normal(N), rng.standard_normal(N))
    J1 = jacobian(ops, st1, 0.0).to_dense()
    J2 = jacobian(ops, st2, 0.0).to_dense()
    assert np.array_equal(J1, J2)
    Md, Kd = ops.M.to_dense(), ops.K.to_dense()
    ref = np.block([[np.zeros((N, N)), Md], [Kd, -Md]])
    assert np.allclose(J1, ref, atol=1e-15)


def test_jacobian_at_zero_state(rng):
    ops, _ = initial_state(preset(2), 5)
    N = ops.grid.N
    tau = 0.2
    J = jacobian(ops, State(np.zeros(N), np.zeros(N)), tau).to_dense()
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    ref = np.block([[-tau * Rd, Md], [Kd, -Md]])
    assert np.allclose(J, ref, atol=1e-15)
    # A nonzero state checks the block layout entry for entry, built from
    # dense blocks independently of the step matrix; the (1,1) block is
    # tau (B - R).  The same floats are summed, so the match is exact.
    U, W = rng.standard_normal(N), rng.standard_normal(N)
    J = jacobian(ops, State(U, W), tau).to_dense()
    Bd = assemble_B(ops.grid, W).to_dense()
    Sd = assemble_S(ops.grid, U).to_dense()
    ref = np.block([[tau * (Bd - Rd), Md + tau * Sd], [Kd, -Md]])
    assert np.array_equal(J, ref)


@pytest.mark.parametrize("stepper", [step_newton, step_chord, step_modified])
def test_zero_state_is_fixed_point(stepper):
    ops, _ = initial_state(preset(2), 5)
    N = ops.grid.N
    cfg = SolverConfig(tau=0.1)
    state, rep = stepper(ops, State(np.zeros(N), np.zeros(N)), cfg)
    assert rep.iterations == 1
    assert rep.converged
    assert np.abs(state.U).max() <= 1e-14
    assert np.abs(state.W).max() <= 1e-14


def test_chord_first_iteration_equals_newton():
    ops, s0 = initial_state(preset(1), 9)
    cfg1 = SolverConfig(tau=0.1, k_max=1)
    sn, rn = step_newton(ops, s0, cfg1)
    sc, rc = step_chord(ops, s0, cfg1)
    assert rn.iterations == rc.iterations == 1
    assert np.array_equal(sn.U, sc.U)
    assert np.array_equal(sn.W, sc.W)


def spy_solves(monkeypatch):
    """Record (b, apply, precond, matrix, x) of every ``_Work.solve``."""
    solves = []
    original = _Work.solve

    def spy(self, b, apply, precond, matrix):
        x = original(self, b, apply, precond, matrix)
        solves.append((b, apply, precond, matrix, x))
        return x

    monkeypatch.setattr(_Work, "solve", spy)
    return solves


def test_block_elimination_matches_block_lu(monkeypatch, rng):
    ops, s0 = initial_state(preset(2), 17)
    N, tau = ops.grid.N, 0.1
    solves = spy_solves(monkeypatch)
    step_modified(ops, s0, SolverConfig(tau=tau, k_max=1))
    [(_, _, eliminate, _, _)] = solves
    b = rng.standard_normal(2 * N)
    ref = SparseLu(block2x2(-tau * ops.R, ops.M, ops.K, -ops.M)).solve(b)
    assert np.linalg.norm(eliminate(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("method", ["newton", "chord", "modified"])
def test_implicit_run_factors_only_n_by_n(monkeypatch, method):
    rows = []
    original = SparseLu.__init__

    def spy(self, A):
        original(self, A)
        rows.append(self.n)

    monkeypatch.setattr(SparseLu, "__init__", spy)
    cfg = SolverConfig(tau=0.1, method=method)
    # A uniform drift (preset 2) factors nothing: the block system is solved
    # per Fourier mode, M by FFT, and smooth data never falls back.
    res = run(preset(2), cfg, T=0.3, n=17)
    assert res.total_factorizations() == 0
    assert rows == []
    # Test 5's drift varies in space: one LU of K - tau R, N x N.
    res = run(preset(5), cfg, T=0.3, n=17)
    assert res.total_factorizations() == 1
    assert rows == [(17 - 1) ** 2]


@pytest.mark.parametrize(
    "stepper, n_S, n_B, n_matrix",
    [
        # Per 2-iteration step, the audit's S included.
        (step_newton, 3, 2, 2),
        (step_chord, 3, 1, 1),
        (step_modified, 3, 0, 2),
        (step_semilinear, 2, 0, 0),
    ],
)
def test_per_step_work_by_method(monkeypatch, stepper, n_S, n_B, n_matrix):
    import hmfem.solvers as sv

    ops, s0 = initial_state(preset(2), 17)
    cfg = SolverConfig(tau=0.1)
    step_modified(ops, s0, cfg)  # builds the run's elimination outside the count
    calls = {"S": 0, "B": 0, "matrix": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sv, "assemble_S", counted("S", sv.assemble_S))
    monkeypatch.setattr(sv, "assemble_B", counted("B", sv.assemble_B))
    monkeypatch.setattr(sv, "_form_system", counted("matrix", sv._form_system))
    _, rep = stepper(ops, s0, cfg)
    assert rep.iterations == (1 if stepper is step_semilinear else 2)
    assert calls == {"S": n_S, "B": n_B, "matrix": n_matrix}


@pytest.mark.parametrize(
    "stepper, n_rhs", [(step_newton, 2), (step_chord, 2), (step_modified, 1)]
)
def test_eliminations_per_step(monkeypatch, stepper, n_rhs):
    # Each solve eliminates its rhs once and then once per correction;
    # modified's rhs is fixed, so it eliminates that rhs once per step.
    # Preset 2 eliminates per Fourier mode, test 5 through the LU.
    cfg = SolverConfig(tau=0.1)
    key = ("K - tau R", cfg.tau)
    for tid in (2, 5):
        ops, s0 = initial_state(preset(tid), 17)
        step_modified(ops, s0, cfg)  # builds the run's elimination outside the count
        neg_tau_R, eliminate = ops.cache[key]
        calls = []
        ops.cache[key] = neg_tau_R, lambda r: calls.append(r) or eliminate(r)
        _, rep = stepper(ops, s0, cfg)
        assert rep.iterations == 2 and rep.n_linear_iters > 0 and rep.n_factor == 0
        assert len(calls) == n_rhs + rep.n_linear_iters


def test_modified_tau_small_is_state_independent_map(rng):
    # The modified iteration matrix does not involve B; with U = W = 0 the
    # system is linear and one iteration lands on the decoupled solve.
    ops, s0 = initial_state(preset(2), 7)
    cfg = SolverConfig(tau=0.1)
    state, rep = step_modified(ops, s0, cfg)
    assert rep.converged
    # accepted state solves the elliptic constraint
    mw = matvec(ops.M, state.W)
    assert np.linalg.norm(matvec(ops.K, state.U) - mw) <= 1e-9 * np.linalg.norm(mw)


def test_modified_fixed_point_property():
    ops, s0 = initial_state(preset(2), 9)
    cfg = SolverConfig(tau=0.1)
    state, rep = step_modified(ops, s0, cfg)
    assert rep.converged
    # Re-applying the converged state's own iteration map reproduces it.
    N = ops.grid.N
    Z = matvec(ops.M, s0.W)
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    Sd = assemble_S(ops.grid, state.U).to_dense()
    J = np.block([[-cfg.tau * Rd, Md + cfg.tau * Sd], [Kd, -Md]])
    sol = np.linalg.solve(J, np.concatenate([Z, np.zeros(N)]))
    assert np.linalg.norm(sol[:N] - state.U) / np.linalg.norm(state.U) < cfg.tol


@pytest.mark.parametrize("stepper", [step_newton, step_chord, step_modified])
def test_elliptic_constraint_after_step(stepper):
    for tid in (1, 5):
        ops, s0 = initial_state(preset(tid), 9)
        state, _ = stepper(ops, s0, SolverConfig(tau=0.1))
        mw = matvec(ops.M, state.W)
        rel = np.linalg.norm(matvec(ops.K, state.U) - mw) / np.linalg.norm(mw)
        assert rel <= 1e-9


def large_data_spec(amplitude):
    """Preset 2's domain and drift with O(1) data: tau S is no longer small."""
    base = preset(2)

    def u0(x, y):
        return amplitude * np.sin(2 * x) * np.cos(3 * y)

    return ProblemSpec("large", base.Lx, base.Ly, u0, base.grad_p, base.p_norm_1inf)


@pytest.mark.parametrize("stepper", [step_newton, step_chord, step_modified])
def test_large_data_falls_back_to_fresh_lu(monkeypatch, stepper):
    ops, s0 = initial_state(large_data_spec(0.5), 17)
    solves = spy_solves(monkeypatch)
    _, rep = stepper(ops, s0, SolverConfig(tau=0.1))
    # A fresh LU for every inner solve; the drift is uniform, so the
    # state-free matrix is inverted per Fourier mode and not factored.
    assert rep.n_factor == rep.iterations
    for b, _, _, matrix, x in solves:
        ref = SparseLu(matrix()).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("stepper", [step_newton, step_chord, step_modified])
def test_cache_holds_one_elimination_per_tau(monkeypatch, stepper):
    # Per tau a run caches -tau R, which every step's systems use, with the
    # inverse of [[-tau R, M], [K, -M]]: per Fourier mode on a uniform drift
    # (preset 2), else through an LU of K - tau R.  The only other entry is
    # M's FFT solver, built by init_w0.
    import hmfem.solvers as sv

    original = sv._form_system
    cfg = SolverConfig(tau=0.1)
    for tid in (2, 5):
        ops, s0 = initial_state(preset(tid), 9)
        solver_M = ops.cache["M"]
        used = []

        def spy(ops, tau, neg_tau_R, S, B=None):
            used.append(neg_tau_R)
            return original(ops, tau, neg_tau_R, S, B)

        monkeypatch.setattr(sv, "_form_system", spy)
        state, _ = stepper(ops, s0, cfg)
        stepper(ops, state, cfg)
        neg_tau_R, eliminate = ops.cache.pop(("K - tau R", 0.1))
        assert ops.cache.pop("M") is solver_M
        assert not ops.cache
        assert isinstance(solver_M, SpectralSolver)
        spectral = isinstance(getattr(eliminate, "__self__", None), SpectralSolver)
        assert spectral == (tid == 2)
        assert np.array_equal(neg_tau_R.values, -0.1 * ops.R.values)
        assert len(used) >= 2 and all(u is neg_tau_R for u in used)


@pytest.mark.parametrize(
    "Lx, Ly, n",
    # n = 3 wraps both neighbours onto one dof; n = 4 and 6 give odd m.
    [(np.pi, np.pi, 3), (np.pi, np.pi, 4), (np.pi, np.pi, 5), (np.pi, np.pi, 17), (1, 3, 6)],
)
def test_spectral_elimination_matches_dense_inverse(Lx, Ly, n):
    ops = assemble_operators(build_grid(Lx, Ly, n), preset(2).grad_p)
    tau, work = 0.1, _Work()
    _, eliminate = _cached_elimination(ops, tau, work)
    assert work.n_factor == 0
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    inv = np.linalg.inv(np.block([[-tau * Rd, Md], [Kd, -Md]]))
    cols = np.stack([eliminate(e) for e in np.eye(2 * ops.grid.N)], axis=1)
    assert np.abs(cols - inv).max() <= 1e-13 * np.abs(inv).max()


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5])
def test_route_probe_accepts_only_uniform_drift(tid):
    spec = preset(tid)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    K_tau_R = replace(ops.K, values=ops.K.values - 0.1 * ops.R.values)
    assert is_block_circulant(K_tau_R) == (tid != 5)


@pytest.mark.parametrize("method", ["newton", "modified"])
def test_step_matrices_share_the_grid_pattern(monkeypatch, method):
    # D, C and the K - tau R given to the LU are sums of operators on the
    # grid's one pattern: they hold its index arrays, not copies.
    import hmfem.solvers as sv

    ops, s0 = initial_state(preset(5), 9)
    grid, tau = ops.grid, 0.1
    multiplied, factored = [], []
    original_matvec, original_init = sv.matvec, SparseLu.__init__

    def recording_matvec(A, x):
        multiplied.append(A)
        return original_matvec(A, x)

    def recording_init(self, A):
        factored.append(A)
        original_init(self, A)

    monkeypatch.setattr(sv, "matvec", recording_matvec)
    monkeypatch.setattr(SparseLu, "__init__", recording_init)
    sv.STEPPERS[method](ops, s0, SolverConfig(tau=tau))
    [KR] = factored
    assert np.array_equal(KR.values, ops.K.values + -tau * ops.R.values)
    S0 = assemble_S(grid, s0.U)
    D = ops.M.values + tau * S0.values
    if method == "newton":
        C = tau * (assemble_B(grid, s0.W).values - ops.R.values)
    else:
        C = -tau * ops.R.values
    assert any(np.array_equal(A.values, D) for A in multiplied)
    assert any(np.array_equal(A.values, C) for A in multiplied)
    for A in multiplied + factored:
        assert A.row_offsets is grid.csr_indptr
        assert A.col_indices is grid.csr_indices


def test_chord_divergence_stops_as_non_finite():
    # Chord diverges on O(1) data; once the norm of the finite right-hand
    # side overflows, the run stops as non_finite, not as a solver failure.
    cfg = SolverConfig(tau=0.1, method="chord")
    res = run(large_data_spec(1.0), cfg, T=0.1, n=17, cap=1e300)
    assert res.stop_reason == "non_finite"
    assert "right-hand side" in res.failure
    assert res.reports == []


def test_large_data_newton_matches_dense_oracle():
    spec = large_data_spec(1.0)
    ops, s0 = initial_state(spec, 9)
    cfg = SolverConfig(tau=0.1, method="newton")
    fast, rep = step_newton(ops, s0, cfg)
    assert rep.n_factor == rep.iterations  # fallback LUs only
    dense, k = dense_newton_step(ops.grid, spec, s0, cfg)
    assert k == rep.iterations
    for a, b in ((fast.U, dense.U), (fast.W, dense.W)):
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)


def test_semilinear_non_finite_iterate_raises(monkeypatch):
    ops, s0 = initial_state(preset(2), 5)
    original = _Work.solve

    def nan_for_u(self, b, apply, precond, matrix):
        x = original(self, b, apply, precond, matrix)
        # The U solve, corrected against K's FFT inverse, returns NaN.
        if precond == ops.cache["K"].apply_inverse:
            return np.full_like(x, np.nan)
        return x

    monkeypatch.setattr(_Work, "solve", nan_for_u)
    with pytest.raises(NonFiniteError):
        step_semilinear(ops, s0, SolverConfig(tau=0.1))


def test_semilinear_solves_w_then_u_through_work(monkeypatch):
    import hmfem.solvers as sv

    ops, s0 = initial_state(preset(2), 17)
    solves = spy_solves(monkeypatch)
    corrections = []
    original = sv.defect_correction

    def counted(*args):
        x, k = original(*args)
        corrections.append(k)
        return x, k

    monkeypatch.setattr(sv, "defect_correction", counted)
    state, rep = step_semilinear(ops, s0, SolverConfig(tau=0.1))
    [(_, _, precond_W, _, W), (b_U, _, precond_U, _, U)] = solves
    assert precond_W == ops.cache["M"].apply_inverse
    assert precond_U == ops.cache["K"].apply_inverse
    assert np.array_equal(W, state.W) and np.array_equal(U, state.U)
    assert np.array_equal(b_U, matvec(ops.M, state.W))
    assert rep.n_factor == 0
    assert len(corrections) == 2 and rep.n_linear_iters == sum(corrections)


def test_kmax_flags_nonconvergence():
    ops, s0 = initial_state(preset(1), 9)
    cfg = SolverConfig(tau=0.1, k_max=1)
    _, rep = step_newton(ops, s0, cfg)
    assert rep.iterations == 1
    assert not rep.converged
    assert rep.final_rel_err > cfg.tol


def test_semilinear_zero_state():
    ops, _ = initial_state(preset(2), 5)
    N = ops.grid.N
    state, rep = step_semilinear(ops, State(np.zeros(N), np.zeros(N)), SolverConfig(tau=0.1))
    assert rep.iterations == 1
    assert np.abs(state.U).max() <= 1e-14
    assert np.abs(state.W).max() <= 1e-14


def test_semilinear_matches_dense_solve():
    spec = preset(1)
    ops, s0 = initial_state(spec, 9)
    tau = 0.1
    state, _ = step_semilinear(ops, s0, SolverConfig(tau=tau))
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    Sd = assemble_S(ops.grid, s0.U).to_dense()
    W_ref = np.linalg.solve(Md + tau * Sd, Md @ s0.W + tau * Rd @ s0.U)
    U_ref = np.linalg.solve(Kd, Md @ W_ref)
    assert np.linalg.norm(state.W - W_ref) / np.linalg.norm(W_ref) <= 1e-10
    assert np.linalg.norm(state.U - U_ref) / np.linalg.norm(U_ref) <= 1e-10


def test_semilinear_large_data_falls_back_to_fresh_lu():
    spec = large_data_spec(1.0)
    ops, s0 = initial_state(spec, 9)
    tau = 0.1
    state, rep = step_semilinear(ops, s0, SolverConfig(tau=tau))
    # One LU, of M + tau S: correcting against M's FFT solver stalls.
    assert rep.n_factor == 1
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    Sd = assemble_S(ops.grid, s0.U).to_dense()
    W_ref = np.linalg.solve(Md + tau * Sd, Md @ s0.W + tau * Rd @ s0.U)
    assert np.linalg.norm(state.W - W_ref) <= 1e-10 * np.linalg.norm(W_ref)


def test_semilinear_energy_nonincreasing_without_drift():
    # grad p = 0: skew-symmetry of S makes the W-update an M-norm contraction.
    g_spec = ProblemSpec(
        "nodrift", np.pi, np.pi,
        lambda x, y: 1e-2 * np.sin(2 * x) * np.cos(3 * y),
        lambda x, y: (0.0 * x, 0.0 * y), 0.0,
    )
    ops, s0 = initial_state(g_spec, 9)
    state = s0
    w_prev = m_norm(ops.M, state.W)
    for _ in range(5):
        state, _ = step_semilinear(ops, state, SolverConfig(tau=0.1))
        w_now = m_norm(ops.M, state.W)
        assert w_now <= w_prev * (1 + 1e-12)
        w_prev = w_now


def test_tau_bound_report_shape():
    ops, s0 = initial_state(preset(2), 9)
    rep = tau_bound_report(ops, s0, 0.1, 12.0, 10.0)
    assert set(rep["bounds"]) == {"hyperbolic", "uniqueness", "newton"}
    assert rep["bounds"]["hyperbolic"] == pytest.approx(1.0 / 72.0)
    assert all(r >= 0 for r in rep["ratios"].values())
