import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmfem.assembly as assembly
from element_reference import (
    circulant_average,
    eager_element_arrays,
    scatter_csr,
    unblocked_assemble_R,
)
from hmfem import (
    EvaluationError,
    ShapeError,
    assemble_B,
    assemble_mass,
    assemble_operators,
    assemble_R,
    assemble_S,
    assemble_stiffness,
    build_grid,
    init_w0,
    matvec,
    preset,
    sample_nodes,
)
from hmfem.oracle import dense_assemble_all


def assemble_S_loop(grid, U):
    """Per-element reference for the array-built assemble_S."""
    tri_dofs, _, tri_grads, tri_area = eager_element_arrays(grid.Lx, grid.Ly, grid.n)
    nel = len(tri_area)
    vals = np.empty((nel, 3, 3))
    third = tri_area / 3.0
    for e in range(nel):
        g = tri_grads[e]
        ux, uy = U[tri_dofs[e]] @ g  # grad of u_N, constant on the element
        vals[e] = third[e] * (ux * g[:, 1] - uy * g[:, 0])
    return scatter_csr(grid, vals.reshape(-1))


def element_corners(grid):
    """(nel, 3, 2) vertex coordinates of the grid's elements."""
    return eager_element_arrays(grid.Lx, grid.Ly, grid.n)[1]


def element_geometry(grid):
    """Basis gradients and areas from each element's own vertices."""
    corners = element_corners(grid)
    x, y = corners[..., 0], corners[..., 1]
    (x0, x1, x2), (y0, y1, y2) = x.T, y.T
    twice_area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    gx = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    gy = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    return np.stack([gx, gy], axis=-1) / twice_area[:, None, None], 0.5 * np.abs(twice_area)


def per_element_operators(grid, grad_p):
    """M, A, K and R value arrays summed element by element from each
    element's own geometry: a second route to the assembled operators."""
    g, area = element_geometry(grid)
    local_M = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M = scatter_csr(grid, np.outer(area, local_M.reshape(-1)).reshape(-1)).values
    A = scatter_csr(grid, (area[:, None, None] * (g @ g.transpose(0, 2, 1))).reshape(-1)).values
    corners = element_corners(grid)
    mids = 0.5 * (corners + np.roll(corners, -1, axis=1))
    px, py = (np.broadcast_to(v, mids.shape[:2]) for v in grad_p(mids[..., 0], mids[..., 1]))
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    vdotg = -py[:, :, None] * g[:, None, :, 0] + px[:, :, None] * g[:, None, :, 1]
    R = scatter_csr(grid, ((area / 3.0)[:, None, None] * (phi.T @ vdotg)).reshape(-1)).values
    return {"M": M, "A": A, "K": M + A, "R": R}


# As for test_S_matches_element_loop: n = 3 folds the stencil through the
# wrap, the 1 x 3 domain has unequal spacings.
OPERATOR_GRIDS = [pytest.param(n, np.pi, np.pi, id=str(n)) for n in (3, 4, 5, 17)] + [
    pytest.param(6, 1.0, 3.0, id="6-1x3")
]


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n, Lx, Ly", OPERATOR_GRIDS)
def test_geometry_and_operators_match_per_element_formulas(tid, n, Lx, Ly):
    grad_p = preset(tid).grad_p
    g = build_grid(Lx, Ly, n)
    ops = assemble_operators(g, grad_p)
    grads, area = element_geometry(g)
    # Every cell repeats the grid's two reference triangles.
    ref_grads, ref_area = np.tile(g.ref_grads, (g.N, 1, 1)), np.tile(g.ref_area, g.N)
    assert np.abs(ref_grads - grads).max() <= 1e-13 * np.abs(grads).max()
    assert np.abs(ref_area - area).max() <= 1e-13 * area.max()
    assembled = {"M": ops.M, "A": assemble_stiffness(g), "K": ops.K, "R": ops.R}
    for name, ref in per_element_operators(g, grad_p).items():
        scale = np.abs(ref).max() or 1.0
        assert np.abs(assembled[name].values - ref).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("n, Lx, Ly", OPERATOR_GRIDS)
def test_M_A_K_are_exactly_block_circulant(n, Lx, Ly):
    # Every row holds the same stencil, bit for bit, so Chan's average
    # returns the matrix unchanged.
    g = build_grid(Lx, Ly, n)
    ops = assemble_operators(g, preset(2).grad_p)
    k = g.csr_indptr[1]  # the first row's slots: one per stencil offset
    for A in (ops.M, assemble_stiffness(g), ops.K):
        assert np.array_equal(A.values, np.tile(A.values[:k], g.N))
        assert np.array_equal(circulant_average(A).values, A.values)


@pytest.mark.parametrize("tid", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 17])
def test_R_is_exactly_block_circulant_on_a_uniform_drift(tid, n):
    # Presets 1-4 drift uniformly, so every cell has the same local
    # matrices and every row sums the same entries in the same order.
    spec = preset(tid)
    g = build_grid(spec.Lx, spec.Ly, n)
    R = assemble_R(g, spec.grad_p)
    assert np.array_equal(circulant_average(R).values, R.values)


def test_mass_row_sums_and_total():
    g = build_grid(np.pi, np.pi, 9)
    M = assemble_mass(g).to_dense()
    assert np.allclose(M.sum(axis=1), g.h**2)
    assert M.sum() == pytest.approx(g.Lx * g.Ly)


def test_mass_diagonal_value_and_symmetry():
    g = build_grid(1.0, 1.0, 9)
    M = assemble_mass(g)
    Md = M.to_dense()
    assert np.allclose(np.diag(Md), g.h**2 / 2)
    assert np.allclose(Md, Md.T)
    assert (np.diff(M.row_offsets) <= 7).all()


def test_stiffness_kernel_and_psd(rng):
    g = build_grid(2.0, 2.0, 9)
    A = assemble_stiffness(g)
    assert np.abs(matvec(A, np.ones(g.N))).max() <= 1e-13
    for _ in range(10):
        x = rng.standard_normal(g.N)
        assert x @ matvec(A, x) >= -1e-12


def test_stiffness_stencil():
    # On the uniform mesh: diagonal 4, axis neighbors -1, the neighbor pair
    # along the cell diagonal 0, independent of h.
    g = build_grid(np.pi, np.pi, 9)
    m = g.n - 1
    Ad = assemble_stiffness(g).to_dense()
    Asym = (Ad + Ad.T) / 2
    assert np.allclose(Ad, Asym)
    assert Ad[0, 0] == pytest.approx(4.0)
    assert Ad[0, 1] == pytest.approx(-1.0)  # +x neighbor
    assert Ad[0, m] == pytest.approx(-1.0)  # +y neighbor
    assert Ad[0, m + 1] == pytest.approx(0.0)  # diagonal neighbor


def test_K_is_M_plus_A():
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 7)
    ops = assemble_operators(g, spec.grad_p)
    assert np.allclose(
        ops.K.to_dense(), ops.M.to_dense() + assemble_stiffness(g).to_dense(), atol=1e-15
    )


def test_R_zero_field():
    g = build_grid(np.pi, np.pi, 7)
    R = assemble_R(g, lambda x, y: (0.0 * x, 0.0 * y))
    assert np.abs(R.values).max() == 0.0


def test_R_annihilates_constants():
    spec = preset(5)
    g = build_grid(spec.Lx, spec.Ly, 9)
    R = assemble_R(g, spec.grad_p)
    assert np.abs(matvec(R, np.ones(g.N))).max() <= 1e-14
    assert np.abs(R.to_dense().T @ np.ones(g.N)).max() <= 1e-14


def test_R_matches_high_order_quadrature():
    # p = 12x on [0, pi]^2: the edge-midpoint rule is exact for affine p, so
    # the degree-5 oracle must agree to round-off.
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 9)
    R = assemble_R(g, spec.grad_p).to_dense()
    dense = dense_assemble_all(g, spec, np.zeros(g.N)).R
    scale = np.abs(dense).max()
    assert np.abs(R - dense).max() / scale <= 1e-13


@pytest.mark.parametrize("n, Lx, Ly", [(3, 1.0, 1.0), (9, 20.0, 20.0), (6, 1.0, 3.0)])
def test_R_samples_each_edge_midpoint_once(n, Lx, Ly):
    # One call on the 3N + 2m distinct edge midpoints, the same points as
    # the elements' own midpoints: edges on x = Lx and y = Ly stay apart
    # from their periodic images, as a non-periodic drift needs.
    calls = []

    def grad_p(x, y):
        calls.append((x.copy(), y.copy()))
        return preset(5).grad_p(x, y)

    g = build_grid(Lx, Ly, n)
    assemble_R(g, grad_p)
    ((x, y),) = calls
    m = n - 1
    assert x.shape == y.shape == (3 * g.N + 2 * m,)
    corners = element_corners(g)
    mids = (0.5 * (corners + np.roll(corners, -1, axis=1))).reshape(-1, 2)
    assert np.array_equal(np.unique(np.stack([x, y], axis=1), axis=0), np.unique(mids, axis=0))


@pytest.mark.parametrize("tid", [2, 5])
@pytest.mark.parametrize(
    "n, rows",
    # rows per block: one row each (2, 3 and 4 blocks), blocks with a short
    # last one (2 + 1, 3 + 1, 5 * 3 + 1, 7 * 4 + 4 rows), and the default.
    [(3, 1), (4, 1), (4, 2), (5, 1), (5, 3), (17, 5), (17, None), (33, 7), (33, None)],
)
def test_R_blocks_match_the_unblocked_route(monkeypatch, tid, n, rows):
    # Row blocks change only which rows each step covers: every entry is
    # the same product and the same per-label sum, so R is bit for bit the
    # whole-grid route's, whatever the block height.
    if rows is not None:
        monkeypatch.setattr(assembly, "_BLOCK_CELLS", rows * (n - 1))
    spec = preset(tid)
    g = build_grid(spec.Lx, spec.Ly, n)
    R = assemble_R(g, spec.grad_p)
    assert np.array_equal(R.values, unblocked_assemble_R(g, spec.grad_p).values)
    assert R.row_offsets is g.csr_indptr and R.col_indices is g.csr_indices


def test_R_memory_peak_per_dof():
    # R keeps 7 doubles per dof (56 B).  Its own peak at n = 65 is 204 B
    # per dof: the one drift sample, V at every edge midpoint, and one row
    # block's scratch, which does not grow with N (130 B at n = 129).  The
    # whole-grid route peaked at 505 B.  The bound leaves 16%.
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 65)
    tracemalloc.start()
    try:
        R = assemble_R(g, spec.grad_p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / g.N <= 64 and R.values.nbytes == 56 * g.N
    assert peak / g.N <= 237


def test_R_nonfinite_field():
    g = build_grid(1.0, 1.0, 5)

    def bad(x, y):
        return np.where(x > 0.5, np.nan, 1.0), 0.0 * y

    with pytest.raises(EvaluationError) as exc:
        assemble_R(g, bad)
    assert exc.value.location[0] > 0.5  # a midpoint where the field is NaN


def test_S_zero_and_constant_input():
    g = build_grid(np.pi, np.pi, 9)
    assert np.abs(assemble_S(g, np.zeros(g.N)).values).max() == 0.0
    assert np.abs(assemble_S(g, 3.7 * np.ones(g.N)).values).max() <= 1e-16


@pytest.mark.parametrize("n, Lx, Ly", OPERATOR_GRIDS)
def test_S_skew_symmetry_and_zero_diagonal(rng, n, Lx, Ly):
    # Slot (I, J) and slot (J, I) add the same two products with opposite
    # weights, and the diagonal adds none: exact, not to round-off.
    g = build_grid(Lx, Ly, n)
    Sd = assemble_S(g, rng.standard_normal(g.N)).to_dense()
    assert np.array_equal(Sd, -Sd.T)
    assert np.array_equal(np.diag(Sd), np.zeros(g.N))


@given(a=st.floats(-5, 5, allow_nan=False), b=st.floats(-5, 5, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_S_linearity(a, b):
    rng = np.random.default_rng(7)
    g = build_grid(np.pi, np.pi, 5)
    U = rng.standard_normal(g.N)
    V = rng.standard_normal(g.N)
    lhs = assemble_S(g, a * U + b * V).to_dense()
    rhs = a * assemble_S(g, U).to_dense() + b * assemble_S(g, V).to_dense()
    assert np.abs(lhs - rhs).max() <= 1e-12


# n = 3 folds the 7-point stencil through the periodic wrap (N = 4, every
# dof couples to every other), so each slot sums the most elements; the
# 1 x 3 domain has unequal spacings.
@pytest.mark.parametrize(
    "n, Lx, Ly",
    [pytest.param(n, np.pi, np.pi, id=str(n)) for n in (3, 4, 5, 17, 33)]
    + [pytest.param(6, 1.0, 3.0, id="6-1x3")],
)
def test_S_matches_element_loop(rng, n, Lx, Ly):
    g = build_grid(Lx, Ly, n)
    U = rng.standard_normal(g.N)
    ref = assemble_S_loop(g, U).values
    fast = assemble_S(g, U).values
    assert np.abs(fast - ref).max() <= 1e-15 * np.abs(ref).max()
    W = rng.standard_normal(g.N)
    assert np.array_equal(assemble_B(g, W).values, -assemble_S(g, W).values)


def test_S_factor_built_lazily_once_per_grid(rng):
    spec = preset(2)
    g = build_grid(spec.Lx, spec.Ly, 9)
    init_w0(assemble_operators(g, spec.grad_p), sample_nodes(spec, g))
    assert "s_factor" not in vars(g)  # set-up builds no factor
    assemble_S(g, rng.standard_normal(g.N))
    Q = vars(g)["s_factor"]
    assert (Q.nrows, Q.ncols) == (g.nnz_pattern, g.N)
    assemble_S(g, rng.standard_normal(g.N))
    assert vars(g)["s_factor"] is Q
    other = build_grid(spec.Lx, spec.Ly, 9)
    assemble_B(other, rng.standard_normal(other.N))
    assert vars(other)["s_factor"] is not Q


@pytest.mark.parametrize(
    "n, Lx, Ly", [pytest.param(9, np.pi, np.pi, id="9"), pytest.param(9, 1.0, 3.0, id="9-1x3")]
)
def test_S_factor_is_the_edge_stencil(n, Lx, Ly):
    # Slot (I, J) weighs the edge's two opposite vertices by +-1/6, for any
    # spacing; the diagonal slots weigh nothing.
    g = build_grid(Lx, Ly, n)
    Q = g.s_factor
    lengths = np.diff(Q.row_offsets)
    rows = np.repeat(np.arange(g.N), np.diff(g.csr_indptr))
    diagonal = g.csr_indices == rows
    assert np.all(lengths[diagonal] == 0) and np.all(lengths[~diagonal] == 2)
    assert np.allclose(np.abs(Q.values), 1 / 6, rtol=1e-15, atol=0)
    pairs = Q.values.reshape(-1, 2)
    assert np.array_equal(pairs[:, 0], -pairs[:, 1])
    neighbours = g.csr_indices.reshape(g.N, -1)
    for p in np.flatnonzero(~diagonal):
        columns = Q.col_indices[Q.row_offsets[p] : Q.row_offsets[p + 1]]
        assert np.isin(columns, neighbours[rows[p]]).all()
        assert not np.isin(columns, [rows[p], g.csr_indices[p]]).any()


def test_S_shape_error():
    g = build_grid(1.0, 1.0, 5)
    with pytest.raises(ShapeError):
        assemble_S(g, np.zeros(g.N + 1))


def test_B_zero():
    g = build_grid(np.pi, np.pi, 7)
    assert np.abs(assemble_B(g, np.zeros(g.N)).values).max() == 0.0


def test_B_duality_identity(rng):
    g = build_grid(np.pi, np.pi, 9)
    for _ in range(20):
        U = rng.standard_normal(g.N)
        W = rng.standard_normal(g.N)
        lhs = matvec(assemble_B(g, W), U)
        rhs = matvec(assemble_S(g, U), W)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(rhs), 1.0)


def test_B_columns_are_S_ej_W(rng):
    g = build_grid(np.pi, np.pi, 7)
    W = rng.standard_normal(g.N)
    Bd = assemble_B(g, W).to_dense()
    for j in rng.integers(0, g.N, 10):
        ej = np.zeros(g.N)
        ej[j] = 1.0
        ref = matvec(assemble_S(g, ej), W)
        assert np.allclose(Bd[:, j], ref, atol=1e-14)


def test_conservation_with_constant_transport(rng):
    # S(c 1) = 0, so 1' S(U) v = -v' S(U) 1 = 0 reduces to the skew identity
    # applied to the constant vector.
    g = build_grid(np.pi, np.pi, 7)
    U = rng.standard_normal(g.N)
    S = assemble_S(g, U)
    ones = np.ones(g.N)
    v = rng.standard_normal(g.N)
    assert abs(ones @ matvec(S, v) + v @ matvec(S, ones)) <= 1e-13
