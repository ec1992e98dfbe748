"""CSR matrices, block composition, defect correction, LU and FFT inverses, the mass norm.

Matrices are immutable after construction.  Every operator and step matrix
of a run lies on the grid's one sparsity pattern, so a sum of them is a sum
of value arrays, ``replace(A, values=...)``, and ``CsrMatrix`` offers no
algebra beyond scaling.  ``block2x2``, through ``from_scipy``, is the one
way off that pattern: it builds the 2N x 2N matrix of the LU fallback.
scipy.sparse does products and factorizations behind the container.
``defect_correction`` is the one refinement loop: ``SparseLu`` and
``SpectralSolver`` supply the inverses it corrects with.  ``SpectralSolver``
inverts a 1x1 or 2x2 block of block-circulant matrices mode by mode from
the blocks' symbols (their 2-D FFT), and ``is_block_circulant`` tells
whether a matrix is one; both go through one pair of transform helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NotSpdError, ShapeError, SingularMatrixError

#: Floor used in relative-residual denominators, guards b = 0.
EPS_FLOOR = 1e-300

#: Relative residual contract of every solve (``defect_correction``).
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


def defect_correction(b, apply, precond):
    """Solve ``A x = b`` by defect correction, ``x += P (b - A x)``.

    ``apply(x)`` is ``A x``; ``precond`` applies P, the exact or approximate
    inverse of a nearby matrix.  Corrections continue while the residual at
    least halves and lies above round-off, at most 20 times.  The result must
    then honor ||Ax-b|| / max(||b||, eps) <= 1e-10, or ``SingularMatrixError``
    is raised with the corrections made; a NaN residual never passes.
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
        raise SingularMatrixError(msg, corrections=k)
    return x, k


class SparseLu:
    """Reusable LU factorization of a square CsrMatrix.

    ``solve(b)`` refines ``apply_inverse(b)`` with ``defect_correction``
    against the factored matrix; ``corrections`` holds the number of
    corrections the last successful solve made.
    """

    def __init__(self, A: CsrMatrix):
        if A.nrows != A.ncols:
            raise ShapeError("solve needs a square matrix")
        self._A = A
        self.n = A.nrows
        self.corrections = 0
        try:
            self._lu = spla.splu(A._sp.tocsc(), permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:  # scipy reports exact singularity this way
            raise SingularMatrixError(f"singular matrix: {exc}", pivot=0.0) from exc
        _checked_pivot(self._lu.U.diagonal())

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(r)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ShapeError(f"rhs needs length {self.n}, got shape {b.shape}")
        x, self.corrections = defect_correction(
            b, partial(matvec, self._A), self.apply_inverse
        )
        return x


class SpectralSolver:
    """Inverse of a k x k block (k = 1 or 2) of block-circulant matrices.

    On the uniform periodic grid (dof j m + i, row index j) every
    translation-invariant operator, such as M and K, is block circulant with
    circulant blocks, and the 2-D FFT diagonalizes it: its eigenvalues are
    its ``symbol``.  A k x k block of such matrices, acting on k stacked dof
    vectors, splits into one k x k system per Fourier mode.  ``symbols``
    holds the blocks' symbols row by row; the per-mode inverse is kept in
    closed form, the adjugate over the determinant.  ``apply_inverse`` is
    one forward transform of the stacked (k, m, m) vector, k products per
    output block and one inverse transform.  It is exact only for such a
    block; for any other it is a preconditioner, and ``defect_correction``
    against the true matrix refuses a wrong x.
    """

    def __init__(self, symbols):
        if len(symbols) == 1:
            det, adj = symbols[0][0], [[1.0]]
        else:
            (a, b), (c, d) = symbols
            det, adj = a * d - b * c, [[d, -b], [-c, a]]
        _checked_pivot(det)
        self._m = len(det)
        inv_det = 1.0 / det
        # Column j of the per-mode inverse maps input block j to the stacked
        # output blocks.
        self._cols = [np.stack([row[j] * inv_det for row in adj]) for j in range(len(adj))]

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        m = self._m
        if len(self._cols) == 1:
            # Plain 2-D transforms: on a batch of one, numpy's cost about
            # 6 us more at m = 16.
            return _ifft2(_fft2(r.reshape(m, m)) * self._cols[0][0], m).reshape(-1)
        r1, r2 = _fft2(r.reshape(2, m, m))
        return _ifft2(self._cols[0] * r1 + self._cols[1] * r2, m).reshape(-1)


def is_block_circulant(A: CsrMatrix) -> bool:
    """Whether A acts on the periodic m x m grid as its symbol does.

    A x by ``matvec`` and by the symbol must agree to 1e-12 relative on a
    fixed probe x; a drift that varies in space misses this by far more.
    """
    A_hat = symbol(A)
    m = len(A_hat)
    x = np.random.default_rng(0).standard_normal(A.nrows)
    by_symbol = _ifft2(_fft2(x.reshape(m, m)) * A_hat, m).reshape(-1)
    Ax = matvec(A, x)
    return bool(np.linalg.norm(by_symbol - Ax) <= 1e-12 * np.linalg.norm(Ax))


def symbol(A: CsrMatrix) -> np.ndarray:
    """The eigenvalues of a block-circulant A: the 2-D DFT of its first column."""
    m = math.isqrt(A.nrows)
    if A.nrows != A.ncols or m * m != A.nrows:
        raise ShapeError("spectral solve needs a square matrix of m^2 rows")
    e0 = np.zeros(A.nrows)
    e0[0] = 1.0
    return _fft2(matvec(A, e0).reshape(m, m))


# rfft2 and irfft2 over the last two axes, spelled out: at m = 16 numpy's
# n-d wrappers cost more than the transforms.
def _fft2(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(np.fft.rfft(x), axis=-2)


def _ifft2(xhat: np.ndarray, m: int) -> np.ndarray:
    return np.fft.irfft(np.fft.ifft(xhat, axis=-2), n=m)


def _checked_pivot(diagonal: np.ndarray) -> None:
    """Refuse a smallest pivot or eigenvalue modulus below 1e-14 relative."""
    d = np.abs(diagonal)
    dmax = float(d.max()) if d.size else 0.0
    pivot = float(d.min()) if d.size else 0.0
    if dmax == 0.0 or pivot <= 1e-14 * dmax:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivot:.3e})", pivot=pivot
        )


def m_norm(M: CsrMatrix, v: np.ndarray) -> float:
    """sqrt(v' M v): the L2 norm of the FE function with coefficients v."""
    v = np.asarray(v, dtype=float)
    q = float(v @ matvec(M, v))
    scale = float(np.abs(M.values).max(initial=0.0)) * float(v @ v)
    if q < -1e-12 * max(scale, EPS_FLOOR):
        raise NotSpdError(f"quadratic form {q:.3e} negative beyond round-off")
    return float(np.sqrt(max(q, 0.0)))
