"""CSR matrices, block composition, defect-corrected LU and FFT solves, the mass norm.

Matrices are immutable after construction.  scipy.sparse does the heavy
lifting behind the container; accumulation and solve paths are deterministic
for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSpdError, ShapeError, SingularMatrixError

#: Floor used in relative-residual denominators, guards b = 0.
EPS_FLOOR = 1e-300

#: Relative residual contract for solve().
SOLVE_RTOL = 1e-10

#: ``defect_correction`` stops once the relative residual is at round-off, or
#: after this many corrections.
_ROUNDOFF_RTOL = 1e-15
_MAX_CORRECTIONS = 20

#: Fill-reducing ordering; the assembled systems have symmetric patterns.
_PERMC_SPEC = "MMD_AT_PLUS_A"


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed sparse row matrix.

    Explicit zeros are kept (no drop tolerance), which preserves exact
    skew-symmetry of assembled transport operators.
    """

    nrows: int
    ncols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        m = m.tocsr()
        m.sort_indices()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @cached_property
    def _sp(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.nrows, self.ncols),
        )

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[self.nrows])

    def to_dense(self) -> np.ndarray:
        return self._sp.toarray()

    def __add__(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix sum needs equal shapes")
        return CsrMatrix.from_scipy(self._sp + other._sp)

    def __sub__(self, other: "CsrMatrix") -> "CsrMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix difference needs equal shapes")
        return CsrMatrix.from_scipy(self._sp - other._sp)

    def __mul__(self, alpha: float) -> "CsrMatrix":
        return CsrMatrix(
            self.nrows,
            self.ncols,
            self.row_offsets,
            self.col_indices,
            self.values * float(alpha),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "CsrMatrix":
        return self * -1.0


def from_triplets(nrows, ncols, triplets) -> CsrMatrix:
    """Build a CSR matrix from (row, col, value) triplets; duplicates are summed."""
    triplets = list(triplets)
    if triplets:
        rows, cols, vals = (np.asarray(a) for a in zip(*triplets))
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)
    if rows.size and (
        rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
    ):
        raise IndexError("triplet index outside matrix shape")
    coo = sp.coo_matrix((vals.astype(float), (rows, cols)), shape=(nrows, ncols))
    return CsrMatrix.from_scipy(coo)


def matvec(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse product A @ x with a fixed per-row accumulation order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise ShapeError(f"matvec needs length {A.ncols}, got shape {x.shape}")
    return A._sp @ x


def block2x2(A11: CsrMatrix, A12: CsrMatrix, A21: CsrMatrix, A22: CsrMatrix) -> CsrMatrix:
    """Concatenate four conformable blocks into one matrix, row-major block order."""
    if A11.nrows != A12.nrows or A21.nrows != A22.nrows:
        raise ShapeError("block rows do not conform")
    if A11.ncols != A21.ncols or A12.ncols != A22.ncols:
        raise ShapeError("block columns do not conform")
    return CsrMatrix.from_scipy(
        sp.bmat([[A11._sp, A12._sp], [A21._sp, A22._sp]], format="csr")
    )


def defect_correction(b, apply, precond, pivot=0.0):
    """Solve ``A x = b`` by defect correction, ``x += P (b - A x)``.

    ``apply(x)`` is ``A x``; ``precond`` applies P, the exact or approximate
    inverse of a nearby matrix.  Corrections continue while the residual at
    least halves and lies above round-off, at most 20 times.  The result must
    then honor ||Ax-b|| / max(||b||, eps) <= 1e-10, or ``SingularMatrixError``
    is raised with ``pivot`` and the corrections; a NaN residual never passes.
    Returns x and the number of corrections.
    """
    bnorm = max(np.linalg.norm(b), EPS_FLOOR)
    x = precond(b)
    r = b - apply(x)
    res = np.linalg.norm(r) / bnorm
    k = 0
    while res > _ROUNDOFF_RTOL and k < _MAX_CORRECTIONS:
        x_new = x + precond(r)
        r_new = b - apply(x_new)
        res_new = np.linalg.norm(r_new) / bnorm
        k += 1
        if not res_new <= 0.5 * res:
            if res_new < res:
                x, res = x_new, res_new
            break
        x, r, res = x_new, r_new, res_new
    if not res <= SOLVE_RTOL:
        msg = f"solve residual {res:.3e} exceeds contract {SOLVE_RTOL:.0e}"
        raise SingularMatrixError(msg, pivot=pivot, corrections=k)
    return x, k


class _CorrectedSolver:
    """A raw inverse ``apply_inverse`` of the matrix ``_A``, and ``solve``.

    ``solve(b)`` refines ``apply_inverse(b)`` with ``defect_correction``
    against ``_A``; ``corrections`` holds the number of corrections the last
    successful solve made.
    """

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ShapeError(f"rhs needs length {self.n}, got shape {b.shape}")
        x, self.corrections = defect_correction(
            b, self._A.__matmul__, self.apply_inverse, self._pivot
        )
        return x


class SparseLu(_CorrectedSolver):
    """Reusable LU factorization of a square CsrMatrix or scipy sparse matrix."""

    def __init__(self, A):
        if isinstance(A, CsrMatrix):
            if A.nrows != A.ncols:
                raise ShapeError("solve needs a square matrix")
            A = A._sp.tocsc()
        self._A = A
        self.n = A.shape[0]
        self.corrections = 0
        try:
            self._lu = spla.splu(A, permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:  # scipy reports exact singularity this way
            raise SingularMatrixError(f"singular matrix: {exc}", pivot=0.0) from exc
        self._pivot = _checked_pivot(self._lu.U.diagonal())

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(r)


class SpectralSolver(_CorrectedSolver):
    """Inverse of a matrix on the periodic m x m grid, diagonalized by the FFT.

    On the uniform periodic grid (dof j m + i, row index j) every
    translation-invariant operator, such as M and K, is block circulant with
    circulant blocks, and its eigenvalues are the 2-D DFT of its first
    column shaped (m, m).  ``apply_inverse`` divides by them.  ``solve``
    corrects against the matrix itself, so a matrix that is not of this form
    fails the residual contract with ``SingularMatrixError`` instead of
    returning a wrong x.
    """

    def __init__(self, A: CsrMatrix):
        m = math.isqrt(A.nrows)
        if A.nrows != A.ncols or m * m != A.nrows:
            raise ShapeError("spectral solve needs a square matrix of m^2 rows")
        self._A = A._sp
        self.n = A.nrows
        self.corrections = 0
        self._m = m
        e0 = np.zeros(self.n)
        e0[0] = 1.0
        symbol = np.fft.rfft2((self._A @ e0).reshape(m, m))
        self._pivot = _checked_pivot(symbol)
        self._inv_symbol = 1.0 / symbol

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        # rfft2 and irfft2 spelled out: at m = 16 numpy's n-d wrappers cost
        # more than the transforms.
        m = self._m
        rhat = np.fft.fft(np.fft.rfft(r.reshape(m, m)), axis=0) * self._inv_symbol
        return np.fft.irfft(np.fft.ifft(rhat, axis=0), n=m).reshape(-1)


def _checked_pivot(diagonal: np.ndarray) -> float:
    """The smallest pivot or eigenvalue modulus; refuse one below 1e-14 relative."""
    d = np.abs(diagonal)
    dmax = float(d.max()) if d.size else 0.0
    pivot = float(d.min()) if d.size else 0.0
    if dmax == 0.0 or pivot <= 1e-14 * dmax:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivot:.3e})", pivot=pivot
        )
    return pivot


def solve(A: CsrMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b; the result satisfies ||Ax-b|| / max(||b||, eps) <= 1e-10."""
    return SparseLu(A).solve(b)


def m_norm(M: CsrMatrix, v: np.ndarray) -> float:
    """sqrt(v' M v): the L2 norm of the FE function with coefficients v."""
    v = np.asarray(v, dtype=float)
    q = float(v @ matvec(M, v))
    scale = float(np.abs(M.values).max(initial=0.0)) * float(v @ v)
    if q < -1e-12 * max(scale, EPS_FLOOR):
        raise NotSpdError(f"quadratic form {q:.3e} negative beyond round-off")
    return float(np.sqrt(max(q, 0.0)))
