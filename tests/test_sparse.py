import math
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
    SolverConfig,
    State,
    assemble_mass,
    assemble_operators,
    assemble_S,
    assemble_stiffness,
    block2x2,
    build_grid,
    init_w0,
    m_norm,
    matvec,
    preset,
    sample_nodes,
    step,
)
from hmfem.sparse import (
    SparseLu,
    SpectralSolver,
    _fft2,
    _ifft2,
    SOLVE_RTOL,
    circulant_average,
    defect_correction,
    inf_norm,
    rounding_floor,
    symbol,
)


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


@pytest.mark.parametrize(
    "n, Lx, Ly",
    [pytest.param(n, np.pi, np.pi, id=str(n)) for n in (3, 4, 17)]
    + [pytest.param(9, 1.0, 2.0, id="9-1x2")],
)
def test_matvec_matches_scipy_bit_for_bit(rng, n, Lx, Ly):
    # matvec calls scipy's private csr_matvec kernel on the matrix's own
    # arrays; it must stay the product the public route computes.
    g = build_grid(Lx, Ly, n)
    A = CsrMatrix(g.N, g.N, g.csr_indptr, g.csr_indices, rng.standard_normal(g.nnz_pattern))
    x = rng.standard_normal(g.N)
    wide = replace(A, row_offsets=A.row_offsets.astype(np.int64))
    cases = {
        "pattern": (A, x),
        "block2x2": (block2x2(A, -A, 2.0 * A, A), rng.standard_normal(2 * g.N)),
        "strided x": (A, rng.standard_normal(2 * g.N)[::2]),
        "int64 indices": (replace(wide, col_indices=A.col_indices.astype(np.int64)), x),
        "integer values": (replace(A, values=rng.integers(-9, 10, g.nnz_pattern)), x),
    }
    for name, (B, y) in cases.items():
        public = sp.csr_matrix((B.values, B.col_indices, B.row_offsets), shape=(B.nrows, B.ncols))
        ref, got = public @ y, matvec(B, y)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("m", [3, 4, 16, 17])
def test_fft2_matches_numpy_bit_for_bit(rng, m):
    # _fft2 and _ifft2 call numpy's private pocketfft gufuncs; they must
    # stay the transforms the public np.fft routes compute.
    for shape in [(m, m), (2, m, m)]:
        x = rng.standard_normal(shape)
        ref = np.fft.rfft2(x)
        got = _fft2(x)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), shape
        back = np.fft.irfft2(ref, s=(m, m))
        assert _ifft2(ref, m).tobytes() == back.tobytes(), shape


@pytest.mark.parametrize("method", ["newton", "modified"])
def test_steps_build_no_scipy_matrix(monkeypatch, method):
    # Step matrices are multiplied on their own arrays: only to_dense,
    # block2x2 and SparseLu build scipy ones, and set-up builds none.
    from scipy.sparse._base import _spbase

    built, original_init = [], _spbase.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(_spbase, "__init__", counting_init)
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 9)
    ops = assemble_operators(g, spec.grad_p)
    U0 = sample_nodes(spec, g)
    s0 = State(U0, init_w0(ops, U0))
    assemble_S(g, U0)  # builds the grid's S factor
    assert built == []
    ops.M.to_dense()
    assert built  # the count sees a construction
    built.clear()
    for _ in range(2):  # the first step also builds the per-tau inverse
        s0, report = step(ops, s0, SolverConfig(tau=0.1, method=method))
        assert report.converged and report.n_factor == 0
    assert built == []


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


@pytest.mark.parametrize("n", [3, 4, 6])
def test_circulant_average_is_chans_circulant(rng, n):
    # Random values on the grid's pattern, which holds the same periodic
    # offsets in every row (folded through the wrap at n = 3).  Chan's
    # circulant C has, at offset d, the mean of A's N entries at d.
    grid = build_grid(1.0, 1.0, n)
    m, N = n - 1, grid.N
    values = rng.standard_normal(grid.nnz_pattern)
    A = CsrMatrix(N, N, grid.csr_indptr, grid.csr_indices, values)
    Ad = A.to_dense()
    j, i = np.divmod(np.arange(N), m)

    def shifted(dj, di):
        return (j + dj) % m * m + (i + di) % m

    C = np.zeros((N, N))
    for dj in range(m):
        for di in range(m):
            C[np.arange(N), shifted(dj, di)] = Ad[np.arange(N), shifted(dj, di)].mean()
    assert np.allclose(circulant_average(A, grid.slot_offset).to_dense(), C, rtol=0, atol=1e-15)


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


def test_inf_norm_and_rounding_floor(rng):
    d = random_dense(rng, 9, 30)  # some rows are empty
    assert inf_norm(csr(d)) == pytest.approx(np.abs(d).sum(axis=1).max(), rel=1e-15)
    assert inf_norm(csr(np.zeros((3, 3)))) == 0.0
    x = rng.standard_normal(10)
    eps = np.finfo(float).eps
    norm = np.linalg.norm
    assert rounding_floor(2.0)(x) == pytest.approx(eps * 2.0 * norm(x), rel=1e-15)
    two_blocks = eps * (2.0 * norm(x[:5]) + 3.0 * norm(x[5:]))
    assert rounding_floor(2.0, 3.0)(x) == pytest.approx(two_blocks, rel=1e-15)


@pytest.mark.parametrize("n", [17, 33, 65])
@pytest.mark.parametrize("tid", [1, 2, 3, 4])
def test_exact_inverse_residual_lies_below_rounding_floor(rng, tid, n):
    # A uniform drift makes the FFT inverses of K and of the state-free
    # matrix [[-tau R, M], [K, -M]] exact, so b - A x of their first x is
    # the round-off of forming A x: below the rounding floor of the blocks'
    # norms (0.3-0.5 of it, measured on random right-hand sides).
    spec = preset(tid)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, n), spec.grad_p)
    N, M, K, neg_tau_R = ops.grid.N, ops.M, ops.K, -0.1 * ops.R
    mu, kappa, rho = symbol(M), symbol(K), symbol(neg_tau_R)

    def block(x):
        U, W = x[:N], x[N:]
        top = matvec(neg_tau_R, U) + matvec(M, W)
        return np.concatenate([top, matvec(K, U) - matvec(M, W)])

    cases = [
        (partial(matvec, K), [[kappa]], rounding_floor(inf_norm(K))),
        (
            block,
            [[rho, mu], [kappa, -mu]],
            rounding_floor(inf_norm(neg_tau_R) + inf_norm(K), 2.0 * inf_norm(M)),
        ),
    ]
    for apply, symbols, floor in cases:
        inverse = SpectralSolver(symbols).apply_inverse
        for _ in range(3):
            b = rng.standard_normal(len(symbols) * N)
            x = inverse(b)
            assert np.linalg.norm(b - apply(x)) <= floor(x)


def never_asked(x):
    raise AssertionError("floor evaluated below the round-off stop")


@pytest.mark.parametrize("floor", [None, lambda x: 0.0, lambda x: math.inf, never_asked])
def test_roundoff_residual_ends_without_correction(rng, floor):
    # A first residual below 1e-15 ends the solve at once, whatever the
    # floor would say; the floor is not even evaluated.
    spec = preset(2)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    inverse = SpectralSolver([[symbol(ops.M)]]).apply_inverse
    b = rng.standard_normal(ops.grid.N)
    x0 = inverse(b)
    assert np.linalg.norm(b - matvec(ops.M, x0)) < 1e-15 * np.linalg.norm(b)
    x, corrections = defect_correction(b, partial(matvec, ops.M), inverse, floor)
    assert corrections == 0
    assert np.array_equal(x, x0)


def test_infinite_floor_still_meets_the_contract(rng):
    # The floor ends corrections only once the residual meets SOLVE_RTOL:
    # an infinite one stops at the first such x, and a zero one changes
    # nothing against no floor.  Test 5's drift varies in space, so the
    # first residual against the FFT inverse is far above the contract.
    spec = preset(5)
    ops = assemble_operators(build_grid(spec.Lx, spec.Ly, 17), spec.grad_p)
    b = rng.standard_normal(ops.grid.N)
    K, R = ops.K, ops.R
    near = replace(K, values=K.values - 0.1 * R.values)
    apply, inverse = partial(matvec, near), SpectralSolver([[symbol(near)]]).apply_inverse
    x, corrections = defect_correction(b, apply, inverse, lambda x: math.inf)
    res = np.linalg.norm(b - apply(x)) / np.linalg.norm(b)
    assert corrections >= 2 and res <= SOLVE_RTOL
    # One correction fewer would miss the contract.
    previous = inverse(b)
    for _ in range(corrections - 1):
        previous = previous + inverse(b - apply(previous))
    assert np.linalg.norm(b - apply(previous)) > SOLVE_RTOL * np.linalg.norm(b)
    x_none, k_none = defect_correction(b, apply, inverse)
    x_zero, k_zero = defect_correction(b, apply, inverse, lambda x: 0.0)
    assert k_zero == k_none >= corrections and np.array_equal(x_zero, x_none)
    # A diverging correction is still refused.
    far = replace(K, values=K.values - 10.0 * R.values)
    inv_far = SpectralSolver([[symbol(far)]]).apply_inverse
    with pytest.raises(SingularMatrixError) as exc:
        defect_correction(b, partial(matvec, far), inv_far, lambda x: math.inf)
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
