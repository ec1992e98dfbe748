import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from hmfem import (
    OracleSizeError,
    ProblemSpec,
    SolverConfig,
    State,
    assemble_operators,
    build_grid,
    init_w0,
    jacobian,
    preset,
    run,
    sample_nodes,
    step_newton,
)
from hmfem.oracle import (
    DENSE_N_MAX,
    _quadrature,
    basis_gradients,
    basis_values,
    dense_assemble_all,
    dense_B,
    dense_newton_step,
    dense_operators_match,
    fd_jacobian,
)


# A 1 x 2 domain whose cells are twice as tall as wide, with both drift
# components nonzero so that R tests both axes.
RECT = ProblemSpec(
    name="rect",
    Lx=1.0,
    Ly=2.0,
    u0=lambda x, y: 1e-5 * np.sin(2 * np.pi * x) * np.cos(np.pi * y),
    grad_p=lambda x, y: (12.0 * np.ones_like(x), 3.0 * np.ones_like(y)),
    p_norm_1inf=15.0,
)

# Preset 2 (a square) at n = 3, 5, 9, and the rectangle at n = 7.
CASES = [pytest.param(preset(2), n, id=str(n)) for n in (3, 5, 9)] + [
    pytest.param(RECT, 7, id="rect-7")
]


@pytest.mark.parametrize("spec,n", CASES + [pytest.param(preset(2), 17, id="17")])
def test_dense_oracle_matches_sparse_operators(spec, n):
    g = build_grid(spec.Lx, spec.Ly, n)
    U = np.random.default_rng(n).standard_normal(g.N)
    mismatch, ok = dense_operators_match(g, spec, U, rtol=1e-12)
    assert ok, mismatch


def test_dense_stiffness_row_sums():
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 5)
    dense = dense_assemble_all(g, spec, np.zeros(g.N))
    assert np.abs(dense.A.sum(axis=1)).max() <= 1e-12


def test_dense_S_skew_symmetric(rng):
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 7)
    U = rng.standard_normal(g.N)
    S = dense_assemble_all(g, spec, U).S
    assert np.abs(S + S.T).max() <= 1e-13


def test_basis_partition_of_unity():
    g = build_grid(np.pi, np.pi, 5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(0, np.pi, 2)
        assert basis_values(g, x, y).sum() == pytest.approx(1.0, abs=1e-12)


def test_basis_on_arrays_of_points_equals_per_point_calls():
    g = build_grid(np.pi, np.pi, 5)
    x, y = np.random.default_rng(0).uniform(0, np.pi, (2, 20))
    phi, grads = basis_values(g, x, y), basis_gradients(g, x, y)
    assert phi.shape == (20, g.N) and grads.shape == (20, g.N, 2)
    for k in range(20):
        assert np.array_equal(phi[k], basis_values(g, x[k], y[k]))
        assert np.array_equal(grads[k], basis_gradients(g, x[k], y[k]))


#: The grid fields the oracle may read: it places its own quadrature.
LATTICE = {"n", "Lx", "Ly", "N", "xs", "ys"}


def test_oracle_reads_only_the_lattice(rng):
    # Every other field of the grid (spacing, reference triangles, stencil)
    # filled with garbage leaves the oracle's operators as they were.
    g = build_grid(RECT.Lx, RECT.Ly, 7)

    def garbage(value):
        value = np.asarray(value)
        if value.dtype.kind == "f":
            return np.full_like(value, np.nan)
        return rng.integers(-9, 9, value.shape).astype(value.dtype)

    fields = (f.name for f in dataclasses.fields(g) if f.name not in LATTICE)
    garbled = dataclasses.replace(g, **{name: garbage(getattr(g, name)) for name in fields})
    U, W = rng.standard_normal((2, g.N))
    true, bad = dense_assemble_all(g, RECT, U), dense_assemble_all(garbled, RECT, U)
    for name in "MARS":
        assert np.array_equal(getattr(true, name), getattr(bad, name)), name
    assert np.array_equal(dense_B(g, W), dense_B(garbled, W))
    x, y, w = _quadrature(garbled)
    assert x.shape == y.shape == w.shape == (7 * 2 * g.N,)
    assert w.sum() == pytest.approx(RECT.Lx * RECT.Ly, rel=1e-14)


def test_oracle_refuses_large_grids():
    g = build_grid(1.0, 1.0, DENSE_N_MAX + 1)
    with pytest.raises(OracleSizeError):
        dense_assemble_all(g, preset(1), np.zeros(g.N))


def test_fd_jacobian_tau_zero(rng):
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 5)
    ops = assemble_operators(g, spec.grad_p)
    st = State(rng.standard_normal(g.N), rng.standard_normal(g.N))
    J = jacobian(ops, st, 0.0).to_dense()
    Jfd = fd_jacobian(ops, st, 0.0, step=1e-6)
    assert np.abs(J - Jfd).max() <= 1e-9


def test_fd_jacobian_matches_analytic(rng):
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 9)
    ops = assemble_operators(g, spec.grad_p)
    st = State(rng.standard_normal(g.N), rng.standard_normal(g.N))
    tau = 0.1
    x = np.concatenate([st.U, st.W])
    step = 1e-6 * (1 + np.abs(x).max())
    J = jacobian(ops, st, tau).to_dense()
    Jfd = fd_jacobian(ops, st, tau, step)
    assert np.linalg.norm(J - Jfd) / np.linalg.norm(J) <= 1e-5


def test_fd_machinery_is_second_order():
    # The step residual is quadratic in (U, W), so central differences hit it
    # exactly and no O(step^2) slope is observable there.  Validate the
    # second-order behavior of the differencing itself on a cubic map.
    def cubic(x):
        return np.array([x[0] ** 3 + x[1], x[1] ** 3 - 2 * x[0]])

    def jac(x):
        return np.array([[3 * x[0] ** 2, 1.0], [-2.0, 3 * x[1] ** 2]])

    x0 = np.array([0.7, -0.4])

    def fd(step):
        J = np.zeros((2, 2))
        for c in range(2):
            xp, xm = x0.copy(), x0.copy()
            xp[c] += step
            xm[c] -= step
            J[:, c] = (cubic(xp) - cubic(xm)) / (2 * step)
        return J

    e1 = np.abs(fd(1e-4) - jac(x0)).max()
    e2 = np.abs(fd(2e-4) - jac(x0)).max()
    assert e2 / e1 == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("spec,n", CASES)
def test_dense_newton_step_equivalence(spec, n):
    g = build_grid(spec.Lx, spec.Ly, n)
    ops = assemble_operators(g, spec.grad_p)
    U0 = sample_nodes(spec, g)
    s0 = State(U0, init_w0(ops, U0))
    cfg = SolverConfig(tau=0.1, method="newton")
    fast, rep = step_newton(ops, s0, cfg)
    dense, k_dense = dense_newton_step(g, spec, s0, cfg)
    assert rep.iterations == k_dense
    assert np.linalg.norm(fast.U - dense.U) <= 1e-10 * max(np.linalg.norm(dense.U), 1e-300)
    assert np.linalg.norm(fast.W - dense.W) <= 1e-10 * max(np.linalg.norm(dense.W), 1e-300)


def test_dense_B_matches_fast_B(rng):
    from hmfem import assemble_B

    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 7)
    W = rng.standard_normal(g.N)
    Bd = dense_B(g, W)
    Bf = assemble_B(g, W).to_dense()
    scale = max(np.abs(Bd).max(), 1e-300)
    assert np.abs(Bd - Bf).max() / scale <= 1e-12


@lru_cache(maxsize=None)
def dense_operators(tid, n):
    """The oracle's M, K and R of a preset, and its interpolated U0."""
    spec = preset(tid)
    g = build_grid(spec.Lx, spec.Ly, n)
    dense = dense_assemble_all(g, spec, np.zeros(g.N))
    return dense.M, dense.M + dense.A, dense.R, sample_nodes(spec, g)


def dense_linear_run(tid, n, tau, steps, implicit):
    """States 0..steps of a method's recursion with S(U) W dropped, all dense.

    From U0 and W0 = M^-1 K U0 each step solves
    [[-tau R_new, M], [K, -M]] (U, W) = (M W_n + tau R_old U_n, 0): R acts
    on the new U in the implicit methods and on the old one in semilinear.
    """
    M, K, R, U = dense_operators(tid, n)
    zero = np.zeros_like(R)
    R_new, R_old = (R, zero) if implicit else (zero, R)
    system = np.block([[-tau * R_new, M], [K, -M]])
    W = np.linalg.solve(M, K @ U)
    states = [(U, W)]
    for _ in range(steps):
        rhs = np.concatenate([M @ W + tau * (R_old @ U), np.zeros(len(U))])
        x = np.linalg.solve(system, rhs)
        U, W = np.split(x, 2)
        states.append((U, W))
    return states


@pytest.mark.parametrize("method", ["newton", "chord", "modified", "semilinear"])
@pytest.mark.parametrize("tid", [1, 2])
def test_y_only_data_follow_the_linear_recursion(tid, method):
    # Tests 1 and 2 start from data in y alone and drift with grad p =
    # (p_x, 0): u_N and w_N stay functions of y, V(u_N) . grad w_N =
    # -u_y w_x vanishes, and S(U) W = 0, so every method must reproduce
    # its linear recursion.  n is the dense oracle's largest grid, the
    # reference grid n = 17.
    n, tau, steps = DENSE_N_MAX, 0.1, 10
    ref = dense_linear_run(tid, n, tau, steps, implicit=method != "semilinear")
    cfg = SolverConfig(tau=tau, method=method)
    res = run(preset(tid), cfg, T=steps * tau, snapshot_every=1, n=n)
    assert res.stop_reason == "reached_T" and len(res.states) == steps + 1
    for state, (U, W) in zip(res.states, ref):
        assert np.linalg.norm(state.U - U) <= 1e-12 * np.linalg.norm(U)
        assert np.linalg.norm(state.W - W) <= 1e-12 * np.linalg.norm(W)
