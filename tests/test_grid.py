import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from element_reference import eager_element_arrays, reference_pattern
from hmfem import (
    InvalidDomainError,
    InvalidPartitionError,
    build_grid,
    dof_of_node,
)


def test_counts_2x2_cells():
    g = build_grid(1.0, 1.0, 3)
    assert g.N == 4
    assert g.h == 0.5


def test_counts_reference_scale():
    g = build_grid(1.0, 1.0, 17)
    assert g.N == 256


def test_spacing_and_six_element_support():
    g = build_grid(np.pi, np.pi, 33)
    assert g.h == pytest.approx(np.pi / 32)
    tri_dofs = eager_element_arrays(g.Lx, g.Ly, g.n)[0]
    counts = np.bincount(tri_dofs.ravel(), minlength=g.N)
    assert len(counts) == g.N
    assert (counts == 6).all()


@pytest.mark.parametrize("n", [0, 1, 2, 5.0, 5.5, np.float64(5.0)])
def test_invalid_partition(n):
    with pytest.raises(InvalidPartitionError):
        build_grid(1.0, 1.0, n)


@pytest.mark.parametrize(
    "Lx,Ly",
    [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf), (-np.inf, 1.0), (1.0, np.nan)],
)
def test_invalid_domain(Lx, Ly):
    with pytest.raises(InvalidDomainError):
        build_grid(Lx, Ly, 5)


def test_dof_numbering():
    g3 = build_grid(1.0, 1.0, 3)
    assert dof_of_node(g3, 0, 0) == 0
    assert dof_of_node(g3, 2, 0) == 0  # wraps
    g17 = build_grid(1.0, 1.0, 17)
    assert dof_of_node(g17, 5, 3) == 3 * 16 + 5


def test_dof_out_of_range():
    g = build_grid(1.0, 1.0, 5)
    with pytest.raises(IndexError):
        dof_of_node(g, 5, 0)
    with pytest.raises(IndexError):
        dof_of_node(g, 0, -1)


@given(i=st.integers(0, 16), j=st.integers(0, 16))
def test_dof_periodic_identification(i, j):
    g = build_grid(1.0, 1.0, 17)
    assert dof_of_node(g, i, j) == dof_of_node(g, i % 16, j % 16)


def test_areas_and_vertex_bounds():
    g = build_grid(2.0, 2.0, 9)
    assert np.allclose(g.ref_area, g.h**2 / 2)
    assert g.N * g.ref_area.sum() == pytest.approx(g.Lx * g.Ly)
    assert g.xs[0] == g.ys[0] == 0.0 and (np.diff(g.xs) > 0).all() and (np.diff(g.ys) > 0).all()
    assert g.xs[-1] == g.Lx and g.ys[-1] == g.Ly


def test_basis_gradients_sum_to_zero():
    g = build_grid(np.pi, np.pi, 7)
    assert np.allclose(g.ref_grads.sum(axis=1), 0.0, atol=1e-14)


def test_partition_of_unity():
    # phi_a(x) = 1 + grad_a . (x - v_a); the three local functions sum to 1
    # at the centroid and at every vertex.  Every cell repeats the grid's two
    # reference triangles.
    g = build_grid(1.5, 1.5, 5)
    coords = eager_element_arrays(g.Lx, g.Ly, g.n)[1]
    grads = np.tile(g.ref_grads, (g.N, 1, 1))
    # (element, point) rows: the centroid, then the three vertices.
    pts = np.concatenate([coords.mean(axis=1, keepdims=True), coords], axis=1)
    # vals[e, p, a] = 1 + grads[e, a] . (pts[e, p] - coords[e, a])
    vals = 1.0 + np.einsum("ead,epad->epa", grads, pts[:, :, None] - coords[:, None])
    assert vals.shape == (2 * g.N, 4, 3)
    assert np.allclose(vals.sum(axis=2), 1.0, rtol=0, atol=1e-12)


# n = 3 folds the stencil through the wrap (16 slots, not 28); the 1 x 3
# domain has unequal spacings.
PATTERN_GRIDS = [pytest.param(n, 1.0, 1.0, id=str(n)) for n in (3, 4, 5, 6, 17)] + [
    pytest.param(7, 1.0, 3.0, id="7-1x3")
]


@pytest.mark.parametrize("n, Lx, Ly", PATTERN_GRIDS)
def test_stencil_pattern_matches_reference_build(n, Lx, Ly):
    g = build_grid(Lx, Ly, n)
    indptr, indices, _ = reference_pattern(g)
    assert np.array_equal(g.csr_indptr, indptr) and g.csr_indptr.dtype == np.int32
    # Each row lists its columns in stencil-label order, the reference sorted.
    rows = np.sort(g.csr_indices.reshape(g.N, -1), axis=1)
    assert np.array_equal(rows.reshape(-1), indices) and g.csr_indices.dtype == np.int32
    assert g.nnz_pattern == (16 if n == 3 else 7 * g.N)


@pytest.mark.parametrize("n, Lx, Ly", PATTERN_GRIDS)
def test_offset_labels_are_the_periodic_offsets(n, Lx, Ly):
    # Slot p of every row holds label p % k, and a label names one periodic
    # offset ((j' - j) mod m, (i' - i) mod m): slots with equal labels have
    # equal offsets and vice versa, and each local pair carries the label of
    # the slot it scatters into.
    g = build_grid(Lx, Ly, n)
    m, k = n - 1, g.csr_indptr[1]
    rows = np.repeat(np.arange(g.N), np.diff(g.csr_indptr))
    (rj, ri), (cj, ci) = np.divmod(rows, m), np.divmod(g.csr_indices, m)
    code = (cj - rj) % m * m + (ci - ri) % m
    labels = np.tile(np.arange(k), g.N)
    assert len(np.unique(labels)) == len(np.unique(code))
    assert len(np.unique(labels * g.N + code)) == len(np.unique(code))
    pairs = np.tile(g.pair_offset, (g.N, 1)).reshape(-1)
    assert np.array_equal(labels[reference_pattern(g)[2]], pairs)


ELEMENT_ARRAYS = ("tri_dofs", "tri_coords", "tri_grads", "tri_area")


@pytest.mark.parametrize(
    "n, Lx, Ly",
    [pytest.param(n, 1.0, 1.0, id=str(n)) for n in (3, 4, 5, 17)]
    + [pytest.param(n, np.pi, np.pi, id=f"{n}-pi") for n in (4, 17)]
    + [pytest.param(7, 1.0, 3.0, id="7-1x3")],
)
def test_element_arrays_are_built_lazily_as_before(n, Lx, Ly):
    # The grid builds no element array, neither at build_grid nor on a
    # read; only the per-element reference builds them, as build_grid once
    # did, and they agree with what the grid keeps: its two reference
    # triangles, its node coordinates and its dof numbering.
    g = build_grid(Lx, Ly, n)
    assert not any(hasattr(g, name) for name in ELEMENT_ARRAYS)
    tri_dofs, tri_coords, tri_grads, tri_area = eager_element_arrays(Lx, Ly, n)
    assert np.array_equal(tri_grads[:2], g.ref_grads) and tri_grads.dtype == g.ref_grads.dtype
    assert np.array_equal(tri_area[:2], g.ref_area) and tri_area.dtype == g.ref_area.dtype
    assert np.array_equal(tri_grads, np.tile(g.ref_grads, (g.N, 1, 1)))
    assert np.array_equal(tri_area, np.tile(g.ref_area, g.N))
    # Every vertex is a lattice node, and its dof is that node's.
    i = np.searchsorted(g.xs, tri_coords[..., 0])
    j = np.searchsorted(g.ys, tri_coords[..., 1])
    assert np.array_equal(g.xs[i], tri_coords[..., 0])
    assert np.array_equal(g.ys[j], tri_coords[..., 1])
    dofs = [dof_of_node(g, a, b) for a, b in zip(i.ravel().tolist(), j.ravel().tolist())]
    assert np.array_equal(tri_dofs.ravel(), dofs)
