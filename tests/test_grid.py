import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hmfem import (
    InvalidDomainError,
    InvalidPartitionError,
    build_grid,
    dof_of_node,
)


def test_counts_2x2_cells():
    g = build_grid(1.0, 1.0, 3)
    assert g.N == 4
    assert g.tri_dofs.shape == (8, 3)
    assert g.tri_coords.shape == (8, 3, 2)
    assert g.tri_grads.shape == (8, 3, 2)
    assert g.tri_area.shape == (8,)
    assert g.h == 0.5


def test_counts_reference_scale():
    g = build_grid(1.0, 1.0, 17)
    assert g.N == 256
    assert len(g.tri_dofs) == len(g.tri_coords) == len(g.tri_grads) == 512
    assert len(g.tri_area) == 512


def test_spacing_and_six_element_support():
    g = build_grid(np.pi, np.pi, 33)
    assert g.h == pytest.approx(np.pi / 32)
    counts = np.bincount(g.tri_dofs.ravel(), minlength=g.N)
    assert len(counts) == g.N
    assert (counts == 6).all()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_invalid_partition(n):
    with pytest.raises(InvalidPartitionError):
        build_grid(1.0, 1.0, n)


@pytest.mark.parametrize("Lx,Ly", [(0.0, 1.0), (1.0, -2.0)])
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
    assert np.allclose(g.tri_area, g.h**2 / 2)
    assert g.tri_area.sum() == pytest.approx(g.Lx * g.Ly)
    assert (g.tri_coords >= 0).all()
    assert (g.tri_coords[:, :, 0] <= g.Lx).all()
    assert (g.tri_coords[:, :, 1] <= g.Ly).all()


def test_basis_gradients_sum_to_zero():
    g = build_grid(np.pi, np.pi, 7)
    assert np.allclose(g.tri_grads.sum(axis=1), 0.0, atol=1e-14)


def test_partition_of_unity():
    # phi_a(x) = 1 + grad_a . (x - v_a); the three local functions sum to 1
    # at the centroid and at every vertex.
    g = build_grid(1.5, 1.5, 5)
    coords, grads = g.tri_coords, g.tri_grads
    # (element, point) rows: the centroid, then the three vertices.
    pts = np.concatenate([coords.mean(axis=1, keepdims=True), coords], axis=1)
    # vals[e, p, a] = 1 + grads[e, a] . (pts[e, p] - coords[e, a])
    vals = 1.0 + np.einsum("ead,epad->epa", grads, pts[:, :, None] - coords[:, None])
    assert vals.shape == (len(g.tri_dofs), 4, 3)
    assert np.allclose(vals.sum(axis=2), 1.0, rtol=0, atol=1e-12)
