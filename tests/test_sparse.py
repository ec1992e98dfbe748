from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmfem import (
    NotSpdError,
    ShapeError,
    SingularMatrixError,
    assemble_mass,
    assemble_operators,
    assemble_stiffness,
    block2x2,
    build_grid,
    from_triplets,
    m_norm,
    matvec,
    preset,
    solve,
)
from hmfem.sparse import SparseLu, SpectralSolver, defect_correction


def dense_of(triplets, shape):
    d = np.zeros(shape)
    for r, c, v in triplets:
        d[r, c] += v
    return d


def test_duplicates_summed():
    m = from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    assert m.nnz == 1
    assert m.to_dense()[0, 0] == 3.0


def test_empty_matrix():
    m = from_triplets(2, 2, [])
    assert m.nnz == 0
    assert (m.to_dense() == 0).all()


def test_out_of_range_triplet():
    with pytest.raises(IndexError):
        from_triplets(2, 2, [(0, 2, 1.0)])


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.floats(-10, 10, allow_nan=False),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_from_triplets_matches_dense_accumulation(triplets):
    m = from_triplets(6, 6, triplets)
    assert np.allclose(m.to_dense(), dense_of(triplets, (6, 6)), atol=1e-12)


def test_csr_invariants():
    rng = np.random.default_rng(0)
    trips = [(int(r), int(c), float(v)) for r, c, v in
             zip(rng.integers(0, 8, 60), rng.integers(0, 8, 60), rng.standard_normal(60))]
    m = from_triplets(8, 8, trips)
    assert m.row_offsets[0] == 0
    assert (np.diff(m.row_offsets) >= 0).all()
    assert m.nnz == len(m.values) == len(m.col_indices)
    for r in range(8):
        cols = m.col_indices[m.row_offsets[r] : m.row_offsets[r + 1]]
        assert (np.diff(cols) > 0).all()


def test_matvec_identity_and_zero(rng):
    eye = from_triplets(4, 4, [(i, i, 1.0) for i in range(4)])
    x = rng.standard_normal(4)
    assert np.array_equal(matvec(eye, x), x)
    zero = from_triplets(4, 4, [])
    assert (matvec(zero, x) == 0).all()


def test_matvec_matches_dense(rng):
    trips = [(int(r), int(c), float(v)) for r, c, v in
             zip(rng.integers(0, 10, 80), rng.integers(0, 10, 80), rng.standard_normal(80))]
    m = from_triplets(10, 10, trips)
    x = rng.standard_normal(10)
    ref = dense_of(trips, (10, 10)) @ x
    assert np.linalg.norm(matvec(m, x) - ref) <= 1e-14 * max(np.linalg.norm(ref), 1.0)


def test_matvec_shape_error():
    m = from_triplets(3, 4, [(0, 0, 1.0)])
    with pytest.raises(ShapeError):
        matvec(m, np.zeros(3))


def test_matvec_deterministic(rng):
    trips = [(int(r), int(c), float(v)) for r, c, v in
             zip(rng.integers(0, 10, 80), rng.integers(0, 10, 80), rng.standard_normal(80))]
    m = from_triplets(10, 10, trips)
    x = rng.standard_normal(10)
    assert np.array_equal(matvec(m, x), matvec(m, x))


def test_matvec_distributes_over_addition(rng):
    trips = [(int(r), int(c), float(v)) for r, c, v in
             zip(rng.integers(0, 10, 80), rng.integers(0, 10, 80), rng.standard_normal(80))]
    m = from_triplets(10, 10, trips)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    lhs = matvec(m, x + y)
    rhs = matvec(m, x) + matvec(m, y)
    assert np.abs(lhs - rhs).max() <= 1e-14 * max(np.abs(lhs).max(), 1.0)


def test_block2x2_identities():
    eye = from_triplets(3, 3, [(i, i, 1.0) for i in range(3)])
    J = block2x2(eye, eye, eye, eye)
    d = J.to_dense()
    assert J.nrows == J.ncols == 6
    assert np.array_equal(d[:3, :3], np.eye(3))
    assert np.array_equal(d[3:, 3:], np.eye(3))
    assert np.array_equal(d[:3, 3:], np.eye(3))


def test_block2x2_block_diagonal_matvec(rng):
    trips = [(int(r), int(c), float(v)) for r, c, v in
             zip(rng.integers(0, 4, 12), rng.integers(0, 4, 12), rng.standard_normal(12))]
    A = from_triplets(4, 4, trips)
    Z = from_triplets(4, 4, [])
    J = block2x2(A, Z, Z, A)
    x = rng.standard_normal(8)
    expect = np.concatenate([matvec(A, x[:4]), matvec(A, x[4:])])
    assert np.allclose(matvec(J, x), expect, atol=1e-14)


def test_block2x2_dense_concatenation(rng):
    blocks = []
    for _ in range(4):
        trips = [(int(r), int(c), float(v)) for r, c, v in
                 zip(rng.integers(0, 3, 9), rng.integers(0, 3, 9), rng.standard_normal(9))]
        blocks.append(from_triplets(3, 3, trips))
    J = block2x2(*blocks)
    ref = np.block(
        [[blocks[0].to_dense(), blocks[1].to_dense()],
         [blocks[2].to_dense(), blocks[3].to_dense()]]
    )
    assert np.array_equal(J.to_dense(), ref)


def test_block2x2_shape_error():
    a = from_triplets(2, 2, [(0, 0, 1.0)])
    b = from_triplets(3, 3, [(0, 0, 1.0)])
    with pytest.raises(ShapeError):
        block2x2(a, b, a, b)


def test_solve_identity_and_diagonal():
    eye = from_triplets(2, 2, [(0, 0, 1.0), (1, 1, 1.0)])
    b = np.array([3.0, -4.0])
    assert np.allclose(solve(eye, b), b)
    d = from_triplets(2, 2, [(0, 0, 2.0), (1, 1, 4.0)])
    assert np.allclose(solve(d, np.array([2.0, 4.0])), [1.0, 1.0])


def test_solve_residual_contract_on_spd(rng):
    g = build_grid(1.0, 1.0, 9)
    K = assemble_mass(g) + assemble_stiffness(g)
    b = rng.standard_normal(g.N)
    x = solve(K, b)
    assert np.linalg.norm(matvec(K, x) - b) / np.linalg.norm(b) <= 1e-10


def test_solve_non_finite_rhs_raises():
    g = build_grid(1.0, 1.0, 5)
    b = np.ones(g.N)
    b[3] = np.nan
    with pytest.raises(SingularMatrixError):
        solve(assemble_mass(g), b)


def test_defect_correction_against_another_matrix(rng):
    g = build_grid(1.0, 1.0, 9)
    M = assemble_mass(g)
    lu = SparseLu(M)
    b = rng.standard_normal(g.N)
    # A nearby matrix: corrections reach round-off, as a direct solve does.
    near = M + 1e-4 * assemble_stiffness(g)
    x, corrections = defect_correction(b, lambda v: matvec(near, v), lu.apply_inverse)
    assert corrections >= 2
    assert np.linalg.norm(matvec(near, x) - b) <= 1e-14 * np.linalg.norm(b)
    assert np.allclose(x, solve(near, b), rtol=0, atol=1e-12 * np.abs(x).max())
    # A far one: the correction diverges and the contract check refuses it.
    far = M + 1e3 * assemble_stiffness(g)
    with pytest.raises(SingularMatrixError):
        defect_correction(b, lambda v: matvec(far, v), lu.apply_inverse)


def test_solve_singular():
    sing = from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SingularMatrixError) as exc:
        solve(sing, np.ones(2))
    assert exc.value.pivot >= 0.0


@pytest.mark.parametrize(
    "Lx, Ly, n",
    # n = 3 wraps both neighbours onto one dof; n = 4 and 6 give odd m.
    [(1, 1, 3), (1, 1, 4), (2, 2, 5), (2 * np.pi, np.pi, 17), (1, 3, 6)],
)
def test_spectral_inverse_matches_dense(Lx, Ly, n):
    ops = assemble_operators(build_grid(Lx, Ly, n), preset(2).grad_p)
    for A in (ops.M, ops.K):
        solver = SpectralSolver(A)
        inv = np.linalg.inv(A.to_dense())
        cols = np.stack([solver.apply_inverse(e) for e in np.eye(A.nrows)], axis=1)
        assert np.abs(cols - inv).max() <= 1e-13 * np.abs(inv).max()


def test_spectral_solve_corrects_or_refuses_non_circulant(rng):
    # Test 5's drift varies in space, so K - tau R is not circulant: the FFT
    # inverse of its first column is only a preconditioner for it.
    spec = preset(5)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    b = rng.standard_normal(ops.grid.N)
    near = ops.K - 0.1 * ops.R
    x, corrections = defect_correction(
        b, partial(matvec, near), SpectralSolver(near).apply_inverse
    )
    assert corrections >= 2
    assert np.linalg.norm(matvec(near, x) - b) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, solve(near, b), rtol=0, atol=1e-12 * np.abs(x).max())
    # At tau = 10 the correction diverges, and the contract refuses it.
    far = ops.K - 10.0 * ops.R
    with pytest.raises(SingularMatrixError) as exc:
        defect_correction(b, partial(matvec, far), SpectralSolver(far).apply_inverse)
    assert exc.value.corrections == 1


def test_spectral_solver_refuses_vanishing_symbol():
    # Constants lie in the stiffness matrix's kernel: its symbol is 0 at the
    # zero frequency.
    with pytest.raises(SingularMatrixError):
        SpectralSolver(assemble_stiffness(build_grid(1.0, 1.0, 5)))


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
    neg = from_triplets(2, 2, [(0, 0, -1.0), (1, 1, -1.0)])
    with pytest.raises(NotSpdError):
        m_norm(neg, np.ones(2))
