"""Uniform periodic triangulation of a rectangle.

The rectangle ``[0, Lx] x [0, Ly]`` is partitioned into ``(n-1)^2`` cells of
``Lx/(n-1)`` by ``Ly/(n-1)`` (``h`` is the first), each split into two
triangles along the diagonal from the lower-left to the upper-right corner.
Opposite boundary nodes are identified, so the number of degrees of freedom
is ``N = (n-1)^2`` rather than ``n^2``.  Every lower triangle is a
translate of one reference triangle and every upper one of another, so a
grid holds its node coordinates and its stencil alone: the two reference
triangles' basis gradients and areas, and the shared sparsity pattern, the
periodic 7-point stencil, whose CSR arrays and offset labels come in closed
form from per-row offsets.  Every row lists the stencil in label order,
the layout ``sparse`` states.  Nothing per element is built, then or later.
Grids are immutable after construction and safe to share between threads,
apart from the lazily filled stencil matrix of S(U), ``DofGrid.s_factor``:
racing first reads may build it twice, with identical results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import InvalidDomainError, InvalidPartitionError
from .sparse import CsrMatrix

#: The two reference triangles of a cell, lower (ll, lr, ur) and upper
#: (ll, ur, ul), as (di, dj) vertex offsets from the cell's lower-left node;
#: both are CCW and share the diagonal from ll to ur.
_TRIANGLES = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])


@dataclass(frozen=True)
class DofGrid:
    """Structured periodic triangulation with (n-1)^2 degrees of freedom.

    Every cell repeats the two reference triangles, lower (ll, lr, ur) and
    upper (ll, ur, ul), whose basis gradients and areas are ``ref_grads``
    and ``ref_area``.  The grid also carries the fixed sparsity pattern
    shared by every assembled operator: all of M, A, K, R, S(U) and B(W)
    live on the periodic 7-point stencil, one row per dof, with offsets
    that coincide through the wrap (n = 3) folded into one slot.  Each
    stencil offset has a label, and slot p of every row holds label p % k
    of the k labels, so a matrix whose rows all hold the same stencil is
    that stencil repeated N times.  ``pair_offset`` gives the label of each
    local pair (triangle, a, b).  ``s_factor``, the fixed sparse matrix Q with
    S(U) = Q U slot by slot, is built by the first ``assemble_S`` on the
    grid and then cached on it.
    """

    n: int
    Lx: float
    Ly: float
    h: float
    N: int
    # Node coordinates along each axis, (n,) each, 0 to Lx and 0 to Ly.
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)
    # Basis gradients (2, 3, 2) and areas (2,) of the two reference triangles.
    ref_grads: np.ndarray = field(repr=False)
    ref_area: np.ndarray = field(repr=False)
    # CSR skeleton of the shared operator pattern.
    csr_indptr: np.ndarray = field(repr=False)
    csr_indices: np.ndarray = field(repr=False)
    # Stencil offset labels of the local pairs, (2, 9) with a outer.
    pair_offset: np.ndarray = field(repr=False)

    @property
    def nnz_pattern(self) -> int:
        return len(self.csr_indices)

    @cached_property
    def s_factor(self) -> CsrMatrix:
        """Q (nnz_pattern x N, CSR) with ``assemble_S(grid, U).values == Q U``.

        Slot (I, J) of S(U) sums, over the triangles with I at vertex a and
        J at vertex b, area/3 (g_c x g_b) U[dof_c] for the two c != b, with g
        the basis gradients.  The weights are the two reference triangles',
        so they depend only on the slot's stencil label and on c's label
        seen from I, and are summed per (slot label, column label).  The
        sums cancel for c = I and on the diagonal; what is left is
        +-area/3 (g x g) = +-1/6 on the edge's two opposite vertices (summed
        where offsets fold through the wrap, n = 3), both columns of row I.
        Each row of Q lists its terms in column-label order, and the rows of
        one dof's slots follow each other, so Q is one dof's term list
        repeated N times, its columns read from each row's label slots.
        """
        k, N = int(self.csr_indptr[1]), self.N
        b = np.repeat(np.arange(3), 2)
        c = np.array([1, 2, 2, 0, 0, 1])  # the two c != b of each b
        gx, gy = self.ref_grads.transpose(2, 0, 1)  # (2, 3) each
        weights = (self.ref_area[:, None] / 3.0) * (gx[:, c] * gy[:, b] - gy[:, c] * gx[:, b])
        labels = self.pair_offset.reshape(2, 3, 3)  # (triangle, a, b)
        pairs = k * labels[:, :, b] + labels[:, :, c]  # (slot label, column label) per term
        table = np.bincount(
            pairs.reshape(-1),
            weights=np.broadcast_to(weights[:, None, :], pairs.shape).reshape(-1),
            minlength=k * k,
        ).reshape(k, k)
        slot_label, col_label = np.nonzero(table)  # one row's terms, label by label
        indptr = np.zeros(N * k + 1, dtype=np.int32)
        counts = np.bincount(slot_label, minlength=k).astype(np.int32)
        np.cumsum(np.tile(counts, N), out=indptr[1:])
        return CsrMatrix(
            N * k,
            N,
            indptr,
            self.csr_indices.reshape(N, k)[:, col_label].reshape(-1),
            np.tile(table[slot_label, col_label], N),
        )


def dof_of_node(grid: DofGrid, i: int, j: int) -> int:
    """Map node (i, j) to its dof index; boundary nodes wrap periodically.

    Numbering is row-major in j: dof = (j mod (n-1))*(n-1) + (i mod (n-1)).
    """
    n = grid.n
    if not (0 <= i <= n - 1 and 0 <= j <= n - 1):
        raise IndexError(f"node ({i}, {j}) outside 0..{n - 1}")
    m = n - 1
    return (j % m) * m + (i % m)


def build_grid(Lx: float, Ly: float, n: int) -> DofGrid:
    """Build the uniform periodic triangulation with n partition points per side."""
    try:
        m = operator.index(n) - 1
    except TypeError:
        raise InvalidPartitionError(f"n must be an integer, got {n!r}") from None
    if m < 2:
        raise InvalidPartitionError(f"need n >= 3 partition points, got {n}")
    if not (0 < Lx < np.inf and 0 < Ly < np.inf):
        raise InvalidDomainError(f"domain sides must be finite and > 0, got {Lx} x {Ly}")

    h = Lx / m
    grads, area = _reference_triangles(h, Ly / m)
    indptr, indices, pair_offset = _stencil_pattern(m)

    return DofGrid(
        n=n,
        Lx=float(Lx),
        Ly=float(Ly),
        h=h,
        N=m * m,
        xs=np.linspace(0.0, Lx, n),
        ys=np.linspace(0.0, Ly, n),
        ref_grads=grads,
        ref_area=area,
        csr_indptr=indptr,
        csr_indices=indices,
        pair_offset=pair_offset,
    )


def _reference_triangles(hx: float, hy: float):
    """Basis gradients (2, 3, 2) and areas (2,) of the lower and upper reference triangles.

    grad phi_a = (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1}) / (2 area) on the
    vertices ``_TRIANGLES`` scaled by (hx, hy).
    """
    gx, gy = 1.0 / hx, 1.0 / hy
    grads = np.array([[(-gx, 0.0), (gx, -gy), (0.0, gy)], [(0.0, -gy), (gx, 0.0), (-gx, gy)]])
    return grads, np.full(2, 0.5 * hx * hy)


def _stencil_pattern(m: int):
    """CSR arrays of the periodic stencil in label order, and the offset labels.

    Local pair (a, b) of a triangle couples its vertices a and b, whose
    offset (b - a) mod m is a stencil offset; offsets that coincide through
    the wrap (m = 2) share a label.  Row (j, i) holds offset (dj, di), label
    l, in its slot l, column ((j + dj) mod m, (i + di) mod m).
    """
    labels = {}  # stencil offset (di, dj) mod m -> label
    pair_offset = np.array(
        [
            [
                labels.setdefault(((bi - ai) % m, (bj - aj) % m), len(labels))
                for (ai, aj), (bi, bj) in product(tri, tri)
            ]
            for tri in _TRIANGLES.tolist()
        ]
    )
    di, dj = np.array(list(labels), dtype=np.int32).T
    k, N = len(labels), m * m
    r = np.arange(m, dtype=np.int32)[:, None]
    indices = ((r + dj) % m * m)[:, None, :] + ((r + di) % m)[None, :, :]
    indptr = np.arange(0, N * k + 1, k, dtype=np.int32)
    return indptr, indices.reshape(-1), pair_offset
