import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from element_reference import circulant_average
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
import hmfem.solvers as sv
from hmfem import integrate
from hmfem.oracle import dense_newton_step
from hmfem.problems import ProblemSpec
from hmfem.solvers import _cached_elimination, _Work, cached_solver, tau_bound_report
from hmfem.sparse import (
    SparseLu,
    SpectralSolver,
    circulant_symbol,
    inf_norm,
    rounding_floor,
    symbol,
)


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
    "kwargs, match",
    [
        ({"tau": float("nan")}, "finite"),
        ({"tau": float("inf")}, "finite"),
        ({"tau": 0.1, "tol": float("nan")}, "finite"),
        ({"tau": 0.1, "tol": float("inf")}, "finite"),
        ({"tau": 0.1, "k_max": 2.5}, "k_max must be an integer"),
    ],
)
def test_config_rejects_invalid(kwargs, match):
    with pytest.raises(ValueError, match=match):
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
    """Record (b, apply, precond, matrix, floor, x) of every ``_Work.solve``."""
    solves = []
    original = _Work.solve

    def spy(self, b, apply, precond, matrix, floor):
        x = original(self, b, apply, precond, matrix, floor)
        solves.append((b, apply, precond, matrix, floor, x))
        return x

    monkeypatch.setattr(_Work, "solve", spy)
    return solves


def test_block_elimination_matches_block_lu(monkeypatch, rng):
    ops, s0 = initial_state(preset(2), 17)
    N, tau = ops.grid.N, 0.1
    solves = spy_solves(monkeypatch)
    step_modified(ops, s0, SolverConfig(tau=tau, k_max=1))
    [(_, _, eliminate, _, floor, _)] = solves
    assert floor is _cached_elimination(ops, tau)[2]
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
    # Neither a uniform drift (preset 2) nor test 5's varying one factors
    # anything: the block system is solved per Fourier mode, with the
    # circulant average of -tau R, and smooth data never falls back.
    for tid in (2, 5):
        res = run(preset(tid), cfg, T=0.3, n=17)
        assert res.total_factorizations() == 0
        assert rows == []


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
    # Both presets eliminate per Fourier mode: exactly on preset 2, where
    # no solve needs a correction, and on test 5 with the circulant
    # average of -tau R, which costs corrections.
    cfg = SolverConfig(tau=0.1)
    key = ("elimination", cfg.tau)
    for tid in (2, 5):
        ops, s0 = initial_state(preset(tid), 17)
        step_modified(ops, s0, cfg)  # builds the run's elimination outside the count
        neg_tau_R, eliminate, floor = ops.cache[key]
        calls = []
        ops.cache[key] = neg_tau_R, lambda r: calls.append(r) or eliminate(r), floor
        _, rep = stepper(ops, s0, cfg)
        assert rep.iterations == 2 and rep.n_factor == 0
        assert (rep.n_linear_iters > 0) == (tid == 5)
        assert len(calls) == n_rhs + rep.n_linear_iters


@pytest.mark.parametrize("method", ["newton", "chord", "modified"])
def test_corrections_stop_at_the_rounding_floor(method):
    # At n=65 the exact elimination of tests 1 and 2 leaves a first
    # residual of 2e-15 to 1e-14 relative: above 1e-15 but below the
    # residual's rounding floor, so no solve corrects it (a fixed 1e-15
    # stop made 24-28 corrections per T=1 run, all on round-off).
    cfg = SolverConfig(tau=0.1, method=method)
    for tid in (1, 2):
        res = run(preset(tid), cfg, T=0.3, n=65)
        assert res.total_linear_iterations() == 0
    # Test 4's first residual (about 6e-10) is real error: one correction
    # per solve brings it to the floor.
    res = run(preset(4), cfg, T=0.3, n=65)
    assert all(r.n_linear_iters == r.iterations for r in res.reports)
    # Test 5's inverse is approximate; its corrections do not change.
    res = run(preset(5), cfg, T=1.0, n=17)
    assert res.total_linear_iterations() == 100


def test_cached_floors_use_the_operator_norms():
    # M and K are block circulant, so row 0's absolute sum is their norm.
    spec = preset(5)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 9), spec.grad_p)
    tau, N = 0.1, ops.grid.N
    x = np.arange(2.0 * N)
    for name in ("M", "K"):
        _, floor = cached_solver(ops, name)
        ref = rounding_floor(inf_norm(getattr(ops, name)))(x[:N])
        assert floor(x[:N]) == pytest.approx(ref, rel=1e-14)
    _, _, floor = _cached_elimination(ops, tau)
    M, K = inf_norm(ops.M), inf_norm(ops.K)
    ref = rounding_floor(inf_norm(-tau * ops.R) + K, 2.0 * M)(x)
    assert floor(x) == pytest.approx(ref, rel=1e-14)


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
    for b, _, _, matrix, _, x in solves:
        ref = SparseLu(matrix()).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("stepper", [step_newton, step_chord, step_modified])
def test_cache_holds_one_elimination_per_tau(monkeypatch, stepper):
    # Per tau a run caches -tau R, which every step's systems use, with the
    # per-mode inverse of [[-tau R, M], [K, -M]] and its rounding floor, on
    # a uniform drift (preset 2) and a varying one (preset 5) alike.  The
    # only other entries are M's FFT inverse with its floor, built by
    # init_w0, and the audited state's products.  The elimination takes
    # M's symbol from init_w0's inverse and transforms K's stencil alone.
    original = sv._form_system
    solves = spy_solves(monkeypatch)
    cfg = SolverConfig(tau=0.1)
    for tid in (2, 5):
        ops, s0 = initial_state(preset(tid), 9)
        entry_M = ops.cache["M"]
        used = []
        solves.clear()

        def spy(ops, tau, neg_tau_R, S, B=None):
            used.append(neg_tau_R)
            return original(ops, tau, neg_tau_R, S, B)

        monkeypatch.setattr(sv, "_form_system", spy)
        transformed = []
        monkeypatch.setattr(sv, "symbol", lambda A: transformed.append(A) or symbol(A))
        assert ("symbol", "M") in ops.cache
        state, _ = stepper(ops, s0, cfg)
        state, _ = stepper(ops, state, cfg)
        assert len(transformed) == 1 and transformed[0] is ops.K
        neg_tau_R, eliminate, floor = ops.cache.pop(("elimination", 0.1))
        assert ops.cache.pop("M") is entry_M
        assert ops.cache.pop("accepted")[0] is state
        assert not ops.cache
        inv_M, _ = entry_M
        assert isinstance(getattr(inv_M, "__self__", None), SpectralSolver)
        assert isinstance(getattr(eliminate, "__self__", None), SpectralSolver)
        assert len(solves) >= 2 and all(s[4] is floor for s in solves)
        assert np.array_equal(neg_tau_R.values, -0.1 * ops.R.values)
        assert len(used) >= 2 and all(u is neg_tau_R for u in used)


#: n = 3 wraps both neighbours onto one dof; n = 4 and 6 give odd m.
SPECTRAL_GRIDS = [
    (np.pi, np.pi, 3), (np.pi, np.pi, 4), (np.pi, np.pi, 5), (np.pi, np.pi, 17), (1, 3, 6)
]


@pytest.mark.parametrize("Lx, Ly, n", SPECTRAL_GRIDS)
def test_spectral_elimination_matches_dense_inverse(Lx, Ly, n):
    ops = assemble_operators(build_grid(Lx, Ly, n), preset(2).grad_p)
    tau = 0.1
    _, eliminate, _ = _cached_elimination(ops, tau)
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    inv = np.linalg.inv(np.block([[-tau * Rd, Md], [Kd, -Md]]))
    cols = np.stack([eliminate(e) for e in np.eye(2 * ops.grid.N)], axis=1)
    assert np.abs(cols - inv).max() <= 1e-13 * np.abs(inv).max()


@pytest.mark.parametrize("tid", [1, 2, 3, 4])
@pytest.mark.parametrize("Lx, Ly, n", SPECTRAL_GRIDS)
def test_circulant_average_keeps_a_uniform_drift_symbol(tid, Lx, Ly, n):
    # A uniform drift gradient makes R block circulant, so averaging its
    # values per periodic stencil offset returns them bit for bit, also
    # where the offsets fold through the wrap (n = 3), and the averaged
    # symbol is R's own.
    ops = assemble_operators(build_grid(Lx, Ly, n), preset(tid).grad_p)
    neg_tau_R = -0.1 * ops.R
    averaged = circulant_average(neg_tau_R)
    assert averaged.row_offsets is neg_tau_R.row_offsets
    assert averaged.col_indices is neg_tau_R.col_indices
    assert np.array_equal(averaged.values, neg_tau_R.values)
    assert circulant_symbol(neg_tau_R).tobytes() == symbol(neg_tau_R).tobytes()


def test_circulant_average_preconditions_a_varying_drift(rng):
    # Test 5's drift varies in space, so the per-mode inverse is only near
    # that of [[-tau R, M], [K, -M]]; one defect correction against it
    # still shrinks the residual by at least 100x.
    spec = preset(5)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    neg_tau_R, eliminate, _ = _cached_elimination(ops, 0.1)
    N = ops.grid.N

    def apply(x):
        U, W = x[:N], x[N:]
        top = matvec(neg_tau_R, U) + matvec(ops.M, W)
        return np.concatenate([top, matvec(ops.K, U) - matvec(ops.M, W)])

    b = rng.standard_normal(2 * N)
    x = eliminate(b)
    r0 = b - apply(x)
    r1 = b - apply(x + eliminate(r0))
    assert np.linalg.norm(r0) > 1e-8 * np.linalg.norm(b)  # not exact here
    assert np.linalg.norm(r1) <= 1e-2 * np.linalg.norm(r0)


def test_varying_drift_inverse_ignores_where_the_numbering_starts(rng):
    # Chan's circulant averages -tau R over the whole grid, so moving a
    # periodic, non-uniform drift by whole cells leaves the per-mode inverse
    # unchanged up to round-off; the symbol of R's first column alone would
    # follow the drift at dof 0.
    n, L = 17, 2 * np.pi
    shifts = (0.0, 3 * L / (n - 1))
    b = rng.standard_normal(2 * (n - 1) ** 2)
    inverses = []
    for s in shifts:
        ops = assemble_operators(
            build_grid(L, L, n),
            lambda x, y, s=s: (1.0 + 0.5 * np.cos(y + s), 0.5 * np.sin(x + s)),
        )
        inverses.append(_cached_elimination(ops, 0.1)[1](b))
    assert np.linalg.norm(inverses[0] - inverses[1]) <= 1e-12 * np.linalg.norm(inverses[0])


@pytest.mark.parametrize("tau", [0.1, 1.0])
def test_varying_drift_newton_matches_dense_oracle(tau):
    # Test 5 through the circulant average, against the dense Newton step.
    spec = preset(5)
    ops, s0 = initial_state(spec, 9)
    cfg = SolverConfig(tau=tau, method="newton")
    fast, rep = step_newton(ops, s0, cfg)
    assert rep.n_factor == 0
    dense, k = dense_newton_step(ops.grid, spec, s0, cfg)
    assert k == rep.iterations
    for a, b in ((fast.U, dense.U), (fast.W, dense.W)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("method", ["newton", "modified"])
def test_step_matrices_share_the_grid_pattern(monkeypatch, method):
    # D and C are sums of operators on the grid's one pattern: the compiled
    # kernel reads its index arrays, not copies, for every step product.
    import hmfem.sparse as sparse

    ops, s0 = initial_state(preset(5), 9)
    grid, tau = ops.grid, 0.1
    Q = grid.s_factor
    products = []
    original_kernel = sparse.csr_matvec

    def recording_kernel(nrows, ncols, row_offsets, col_indices, values, x, y):
        if row_offsets is not Q.row_offsets:  # S(U)'s values, Q U
            products.append((row_offsets, col_indices, values))
        return original_kernel(nrows, ncols, row_offsets, col_indices, values, x, y)

    monkeypatch.setattr(sparse, "csr_matvec", recording_kernel)
    sv.STEPPERS[method](ops, s0, SolverConfig(tau=tau))
    S0 = assemble_S(grid, s0.U)
    D = ops.M.values + tau * S0.values
    if method == "newton":
        C = tau * (assemble_B(grid, s0.W).values - ops.R.values)
    else:
        C = -tau * ops.R.values
    assert any(np.array_equal(values, D) for _, _, values in products)
    assert any(np.array_equal(values, C) for _, _, values in products)
    for row_offsets, col_indices, _ in products:
        assert row_offsets is grid.csr_indptr
        assert col_indices is grid.csr_indices


@pytest.mark.parametrize("with_b", [False, True])
@pytest.mark.parametrize("tid", [2, 5])
def test_block_apply_matches_the_assembled_matrix(rng, tid, with_b):
    # apply adds the four block products into one output; it is the
    # product with the 2N x 2N matrix of the fallback up to round-off.
    ops, s0 = initial_state(preset(tid), 9)
    tau = 0.1
    S = assemble_S(ops.grid, s0.U + rng.standard_normal(ops.grid.N))
    B = assemble_B(ops.grid, s0.W + rng.standard_normal(ops.grid.N)) if with_b else None
    apply, matrix = sv._form_system(ops, tau, -tau * ops.R, S, B)
    x = rng.standard_normal(2 * ops.grid.N)
    ref = matrix().to_dense() @ x
    assert np.linalg.norm(apply(x) - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("method", ["newton", "modified", "semilinear"])
def test_chained_steps_read_the_audits_products(monkeypatch, method):
    # A step from the state the last audit evaluated reads that audit's
    # S(U) and M W: the run is bit-identical to one whose steps all form
    # them afresh, and assembles S once fewer per step after the first.
    cfg = SolverConfig(tau=0.1, method=method)
    S_calls = []
    original_S = sv.assemble_S

    def counted_S(grid, U):
        S_calls[-1] += 1
        return original_S(grid, U)

    def clearing_step(ops, state, cfg):
        ops.cache.pop("accepted", None)
        return sv.step(ops, state, cfg)

    monkeypatch.setattr(sv, "assemble_S", counted_S)
    for tid in (2, 5):
        runs = []
        for fresh in (False, True):
            with monkeypatch.context() as m:
                if fresh:
                    m.setattr(integrate, "step", clearing_step)
                S_calls.append(0)
                runs.append(run(preset(tid), cfg, T=0.5, n=9))
        shared, fresh = runs
        assert len(shared.reports) == 5
        assert S_calls[-1] - S_calls[-2] == 4
        for a, b in zip(shared.states, fresh.states, strict=True):
            assert np.array_equal(a.U, b.U) and np.array_equal(a.W, b.W)
        assert shared.diagnostics == fresh.diagnostics
        for a, b in zip(shared.reports, fresh.reports, strict=True):
            assert replace(a, wall_time=0.0, audit_s=0.0) == replace(
                b, wall_time=0.0, audit_s=0.0
            )


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

    def nan_for_u(self, b, apply, precond, matrix, floor):
        x = original(self, b, apply, precond, matrix, floor)
        # The U solve, corrected against K's FFT inverse, returns NaN.
        if precond is ops.cache["K"][0]:
            return np.full_like(x, np.nan)
        return x

    monkeypatch.setattr(_Work, "solve", nan_for_u)
    with pytest.raises(NonFiniteError):
        step_semilinear(ops, s0, SolverConfig(tau=0.1))


def test_semilinear_solves_w_then_u_through_work(monkeypatch):
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
    [(_, _, precond_W, _, floor_W, W), (b_U, _, precond_U, _, floor_U, U)] = solves
    assert (precond_W, floor_W) == ops.cache["M"]
    assert (precond_U, floor_U) == ops.cache["K"]
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
