from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp

from hmfem import (
    CsrMatrix,
    NotSpdError,
    ShapeError,
    SingularMatrixError,
    assemble_mass,
    assemble_operators,
    assemble_stiffness,
    block2x2,
    build_grid,
    m_norm,
    matvec,
    preset,
)
from hmfem.sparse import SparseLu, SpectralSolver, defect_correction, symbol


def csr(dense) -> CsrMatrix:
    """A CsrMatrix holding the nonzeros of a dense array."""
    return CsrMatrix.from_scipy(sp.csr_matrix(np.asarray(dense, dtype=float)))


def random_dense(rng, n, count):
    """An n x n array with ``count`` random entries, repeats summed."""
    d = np.zeros((n, n))
    rows, cols = rng.integers(0, n, count), rng.integers(0, n, count)
    np.add.at(d, (rows, cols), rng.standard_normal(count))
    return d


def test_csr_invariants(rng):
    # Unsorted coordinates with repeats: from_scipy sums them and sorts rows.
    rows, cols = rng.integers(0, 8, 60), rng.integers(0, 8, 60)
    m = CsrMatrix.from_scipy(
        sp.coo_matrix((rng.standard_normal(60), (rows, cols)), shape=(8, 8))
    )
    assert m.row_offsets[0] == 0
    assert (np.diff(m.row_offsets) >= 0).all()
    assert m.nnz == len(m.values) == len(m.col_indices)
    for r in range(8):
        cols = m.col_indices[m.row_offsets[r] : m.row_offsets[r + 1]]
        assert (np.diff(cols) > 0).all()


def test_matvec_identity_and_zero(rng):
    eye = csr(np.eye(4))
    x = rng.standard_normal(4)
    assert np.array_equal(matvec(eye, x), x)
    zero = csr(np.zeros((4, 4)))
    assert (matvec(zero, x) == 0).all()


def test_matvec_matches_dense(rng):
    d = random_dense(rng, 10, 80)
    m = csr(d)
    x = rng.standard_normal(10)
    ref = d @ x
    assert np.linalg.norm(matvec(m, x) - ref) <= 1e-14 * max(np.linalg.norm(ref), 1.0)


def test_matvec_shape_error():
    m = csr(np.eye(3, 4))
    with pytest.raises(ShapeError):
        matvec(m, np.zeros(3))


def test_matvec_deterministic(rng):
    d = random_dense(rng, 10, 80)
    m = csr(d)
    x = rng.standard_normal(10)
    assert np.array_equal(matvec(m, x), matvec(m, x))


def test_matvec_distributes_over_addition(rng):
    d = random_dense(rng, 10, 80)
    m = csr(d)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    lhs = matvec(m, x + y)
    rhs = matvec(m, x) + matvec(m, y)
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(np.abs(lhs).max(), 1.0)


def test_block2x2_identities():
    eye = csr(np.eye(3))
    J = block2x2(eye, eye, eye, eye)
    d = J.to_dense()
    assert J.nrows == J.ncols == 6
    assert np.array_equal(d[:3, :3], np.eye(3))
    assert np.array_equal(d[3:, 3:], np.eye(3))
    assert np.array_equal(d[:3, 3:], np.eye(3))


def test_block2x2_block_diagonal_matvec(rng):
    A = csr(random_dense(rng, 4, 12))
    Z = csr(np.zeros((4, 4)))
    J = block2x2(A, Z, Z, A)
    x = rng.standard_normal(8)
    expect = np.concatenate([matvec(A, x[:4]), matvec(A, x[4:])])
    assert np.allclose(matvec(J, x), expect, atol=1e-14)


def test_block2x2_dense_concatenation(rng):
    blocks = [csr(random_dense(rng, 3, 9)) for _ in range(4)]
    J = block2x2(*blocks)
    ref = np.block(
        [[blocks[0].to_dense(), blocks[1].to_dense()],
         [blocks[2].to_dense(), blocks[3].to_dense()]]
    )
    assert np.array_equal(J.to_dense(), ref)


def test_block2x2_shape_error():
    a = csr(np.eye(2))
    b = csr(np.eye(3))
    with pytest.raises(ShapeError):
        block2x2(a, b, a, b)


def test_solve_identity_and_diagonal():
    b = np.array([3.0, -4.0])
    assert np.allclose(SparseLu(csr(np.eye(2))).solve(b), b)
    d = csr(np.diag([2.0, 4.0]))
    assert np.allclose(SparseLu(d).solve(np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_residual_contract_on_spd(rng):
    g = build_grid(1.0, 1.0, 9)
    K = assemble_operators(g, preset(2).grad_p).K
    b = rng.standard_normal(g.N)
    x = SparseLu(K).solve(b)
    assert np.linalg.norm(matvec(K, x) - b) / np.linalg.norm(b) <= 1e-10


def test_solve_non_finite_rhs_raises():
    g = build_grid(1.0, 1.0, 5)
    b = np.ones(g.N)
    b[3] = np.nan
    with pytest.raises(SingularMatrixError):
        SparseLu(assemble_mass(g)).solve(b)


def test_defect_correction_against_another_matrix(rng):
    g = build_grid(1.0, 1.0, 9)
    M, A = assemble_mass(g), assemble_stiffness(g)
    lu = SparseLu(M)
    b = rng.standard_normal(g.N)
    # A nearby matrix: corrections reach round-off, as a direct solve does.
    near = replace(M, values=M.values + 1e-4 * A.values)
    x, corrections = defect_correction(b, lambda v: matvec(near, v), lu.apply_inverse)
    assert corrections >= 2
    assert np.linalg.norm(matvec(near, x) - b) <= 1e-14 * np.linalg.norm(b)
    assert np.allclose(x, SparseLu(near).solve(b), rtol=0, atol=1e-12 * np.abs(x).max())
    # A far one: the correction diverges and the contract check refuses it.
    far = replace(M, values=M.values + 1e3 * A.values)
    with pytest.raises(SingularMatrixError):
        defect_correction(b, lambda v: matvec(far, v), lu.apply_inverse)


def test_solve_singular():
    with pytest.raises(SingularMatrixError) as exc:
        SparseLu(csr(np.ones((2, 2))))
    assert exc.value.pivot >= 0.0


@pytest.mark.parametrize(
    "Lx, Ly, n",
    # n = 3 wraps both neighbours onto one dof; n = 4 and 6 give odd m.
    [(1, 1, 3), (1, 1, 4), (2, 2, 5), (2 * np.pi, np.pi, 17), (1, 3, 6)],
)
def test_spectral_inverse_matches_dense(Lx, Ly, n):
    ops = assemble_operators(build_grid(Lx, Ly, n), preset(2).grad_p)
    tau, mu, kappa = 0.1, symbol(ops.M), symbol(ops.K)
    Md, Kd, Rd = ops.M.to_dense(), ops.K.to_dense(), ops.R.to_dense()
    # k = 1: M and K; k = 2: the state-free matrix [[-tau R, M], [K, -M]].
    cases = [
        (Md, [[mu]]),
        (Kd, [[kappa]]),
        (np.block([[-tau * Rd, Md], [Kd, -Md]]), [[symbol(-tau * ops.R), mu], [kappa, -mu]]),
    ]
    for dense, symbols in cases:
        solver = SpectralSolver(symbols)
        inv = np.linalg.inv(dense)
        cols = np.stack([solver.apply_inverse(e) for e in np.eye(len(dense))], axis=1)
        assert np.abs(cols - inv).max() <= 1e-13 * np.abs(inv).max()


def test_spectral_solve_corrects_or_refuses_non_circulant(rng):
    # Test 5's drift varies in space, so K - tau R is not circulant: the FFT
    # inverse of its first column is only a preconditioner for it.
    spec = preset(5)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    b = rng.standard_normal(ops.grid.N)
    K, R = ops.K, ops.R
    near = replace(K, values=K.values - 0.1 * R.values)
    x, corrections = defect_correction(
        b, partial(matvec, near), SpectralSolver([[symbol(near)]]).apply_inverse
    )
    assert corrections >= 2
    assert np.linalg.norm(matvec(near, x) - b) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, SparseLu(near).solve(b), rtol=0, atol=1e-12 * np.abs(x).max())
    # At tau = 10 the correction diverges, and the contract refuses it.
    far = replace(K, values=K.values - 10.0 * R.values)
    inv_far = SpectralSolver([[symbol(far)]]).apply_inverse
    with pytest.raises(SingularMatrixError) as exc:
        defect_correction(b, partial(matvec, far), inv_far)
    assert exc.value.corrections == 1


@pytest.mark.parametrize("case", ["k1-stiffness", "k2-C=-K", "k2-A-block"])
def test_spectral_solver_refuses_vanishing_determinant(case):
    ops = assemble_operators(build_grid(1.0, 1.0, 5), preset(2).grad_p)
    rho, mu, kappa, alpha = (symbol(X) for X in (ops.R, ops.M, ops.K, ops.A))
    symbols = {
        # Constants lie in the stiffness matrix's kernel: its symbol alpha
        # is 0 at the zero frequency.
        "k1-stiffness": [[alpha]],
        # [[C, M], [K, -M]] has determinant -mu (kappa + rho), where rho is
        # C's symbol: it vanishes when C = -K, and at the zero frequency
        # when the M block is the stiffness matrix.
        "k2-C=-K": [[-kappa, mu], [kappa, -mu]],
        "k2-A-block": [[rho, alpha], [kappa, -alpha]],
    }[case]
    with pytest.raises(SingularMatrixError):
        SpectralSolver(symbols)


def test_m_norm_basics():
    g = build_grid(1.0, 1.0, 5)
    M = assemble_mass(g)
    assert m_norm(M, np.zeros(g.N)) == 0.0
    e1 = np.zeros(g.N)
    e1[0] = 1.0
    assert m_norm(M, e1) == pytest.approx(np.sqrt(M.to_dense()[0, 0]))
    # constant function 1 has L2 norm sqrt(Lx*Ly) = 1 on the unit square
    assert m_norm(M, np.ones(g.N)) == pytest.approx(1.0)


def test_m_norm_cauchy_schwarz(rng):
    g = build_grid(2.0, 2.0, 7)
    M = assemble_mass(g)
    for _ in range(20):
        v = rng.standard_normal(g.N)
        w = rng.standard_normal(g.N)
        lhs = abs(v @ matvec(M, w))
        assert lhs <= m_norm(M, v) * m_norm(M, w) * (1 + 1e-12)


def test_m_norm_rejects_indefinite():
    neg = csr(-np.eye(2))
    with pytest.raises(NotSpdError):
        m_norm(neg, np.ones(2))
