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
    sample_nodes,
    step_newton,
)
from hmfem.oracle import (
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


@pytest.mark.parametrize("spec,n", CASES)
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


def test_oracle_refuses_large_grids():
    g = build_grid(1.0, 1.0, 11)
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
