"""CSR matrices, block composition, defect correction, LU and FFT inverses, the mass norm.

Matrices are immutable after construction.  Every operator and step matrix
of a run lies on the grid's one sparsity pattern, so a sum of them is a sum
of value arrays, ``replace(A, values=...)``, and ``CsrMatrix`` offers no
algebra beyond scaling.  ``block2x2``, through ``from_scipy``, is the one
way off that pattern: it builds the 2N x 2N matrix of the LU fallback.
``matvec`` runs scipy's compiled CSR kernel on a matrix's own arrays, so a
step matrix never becomes a scipy object; only the cold paths, ``to_dense``,
``block2x2`` and ``SparseLu`` (``splu``), build one.  The 2-D FFTs likewise
call numpy's compiled pocketfft kernels directly.
``defect_correction`` is the one refinement loop: ``SparseLu``, which only
the fallback of a stalled correction builds, and ``SpectralSolver`` supply
the inverses it corrects with.  It stops once the residual meets the
contract and lies at its own rounding floor, eps ||A||_inf ||x|| per block
column (``rounding_floor``), below which a correction only stirs
round-off.  ``SpectralSolver`` inverts a 1x1 or 2x2 block of
block-circulant matrices mode by mode from the blocks' symbols (their 2-D
FFT).  ``symbol`` places row 0's values in the first column;
``circulant_symbol`` places there the mean of every row's, the stencil of
the nearest block-circulant matrix, so a matrix that is not circulant
still gets a symbol to precondition with.  Both go through one helper,
``_stencil_symbol``.

The stencil layout: each of the N rows holds k slots, and slot p of every
row holds the same periodic offset, stencil label p % k, whatever its
column.  A block-circulant matrix's values are therefore one row's k values
repeated N times, and ``values.reshape(N, k)`` lines the rows' entries of
one offset up in a column.  ``circulant_symbol`` and ``stencil_norm`` rely
on it; every other routine takes any column order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Private, so a numpy or scipy that moves them fails here, at import;
# tests/test_sparse.py pins them to ``np.fft.rfft2``/``irfft2`` and to
# ``csr_matrix @ x`` bit for bit.
from numpy.fft._pocketfft_umath import fft, ifft, irfft, rfft_n_even, rfft_n_odd
from scipy.sparse._sparsetools import csr_matvec

from .errors import NotSpdError, ShapeError, SingularMatrixError

#: Floor used in relative-residual denominators, guards b = 0.
EPS_FLOOR = 1e-300

#: Relative residual contract of every solve (``defect_correction``).
SOLVE_RTOL = 1e-10

#: ``defect_correction`` stops once the relative residual is below this, or
#: below the solve's rounding floor once it meets ``SOLVE_RTOL``, or after
#: this many corrections.
_ROUNDOFF_RTOL = 1e-15
_MAX_CORRECTIONS = 20

#: Machine epsilon, the unit of ``rounding_floor``.
_EPS = float(np.finfo(float).eps)

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

    @property
    def nnz(self) -> int:
        return int(self.row_offsets[self.nrows])

    def to_dense(self) -> np.ndarray:
        return _scipy_csr(self).toarray()

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


def _scipy_csr(A: CsrMatrix) -> sp.csr_matrix:
    """A as a scipy matrix, for the cold paths that need one."""
    return sp.csr_matrix((A.values, A.col_indices, A.row_offsets), shape=(A.nrows, A.ncols))


def matvec(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse product A @ x by scipy's compiled kernel ``csr_matvec``.

    The kernel adds each row's products in stored order into a fresh zero
    vector: what ``csr_matrix @ x`` computes, bit for bit.  It is called on
    A's own arrays because a step makes about 28 products with about 5
    fresh matrices, and at n=17 building a scipy matrix for each and going
    through its operator took several times the kernel's 3-5 us.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (A.ncols,):
        raise ShapeError(f"matvec needs length {A.ncols}, got shape {x.shape}")
    y = np.zeros(A.nrows)
    csr_matvec(A.nrows, A.ncols, A.row_offsets, A.col_indices, A.values, x, y)
    return y


def block2x2(A11: CsrMatrix, A12: CsrMatrix, A21: CsrMatrix, A22: CsrMatrix) -> CsrMatrix:
    """Concatenate four conformable blocks into one matrix, row-major block order."""
    if A11.nrows != A12.nrows or A21.nrows != A22.nrows:
        raise ShapeError("block rows do not conform")
    if A11.ncols != A21.ncols or A12.ncols != A22.ncols:
        raise ShapeError("block columns do not conform")
    blocks = [[_scipy_csr(A11), _scipy_csr(A12)], [_scipy_csr(A21), _scipy_csr(A22)]]
    return CsrMatrix.from_scipy(sp.bmat(blocks, format="csr"))


def defect_correction(b, apply, precond, floor=None):
    """Solve ``A x = b`` by defect correction, ``x += P (b - A x)``.

    ``apply(x)`` is ``A x``; ``precond`` applies P, the exact or approximate
    inverse of a nearby matrix.  Corrections continue while the residual at
    least halves, at most 20 times, and until it falls below 1e-15 relative
    or, once it meets the contract, below ``floor(x)``: the rounding floor of
    ``b - A x`` (``rounding_floor``), evaluated at most once per solve.  A
    computed residual that small is round-off (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 12), so a
    correction would not improve x.  The result must honor
    ||Ax-b|| / max(||b||, eps) <= 1e-10, or ``SingularMatrixError`` is
    raised with the corrections made; a NaN residual never passes.
    Returns x and the number of corrections.
    """
    bnorm = max(np.linalg.norm(b), EPS_FLOOR)
    x = precond(b)
    r = b - apply(x)
    res = np.linalg.norm(r) / bnorm
    stop = _ROUNDOFF_RTOL
    k = 0
    while res > stop and k < _MAX_CORRECTIONS:
        if floor is not None and res <= SOLVE_RTOL:
            stop, floor = max(stop, floor(x) / bnorm), None
            if res <= stop:
                break
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


def rounding_floor(*scales):
    """The rounding floor of ``b - A x`` for a k x k block A, k = len(scales).

    ``scales[j]`` bounds block column j: the sum over block rows i of
    ||A_ij||_inf, the largest absolute row sum.  The floor, x ->
    eps sum_j scales[j] ||x_j||, then bounds eps || |A| |x| ||, the
    round-off of forming A x, when every |A_ij| is symmetric, as on the
    grid's symmetric pattern (||B||_2 <= ||B||_inf for symmetric B).
    """
    weights = _EPS * np.asarray(scales, dtype=float)

    def floor(x):
        return float(weights @ np.linalg.norm(x.reshape(len(weights), -1), axis=1))

    return floor


def inf_norm(A: CsrMatrix) -> float:
    """||A||_inf, the largest absolute row sum.

    Each row's sum is reduced over its own stretch of the values, from its
    offset to the next non-empty row's; an empty row's sum is 0.
    """
    starts = A.row_offsets[: A.nrows]
    starts = starts[starts < A.row_offsets[1 : A.nrows + 1]]
    if not len(starts):
        return 0.0
    return float(np.add.reduceat(np.abs(A.values), starts).max())


class SparseLu:
    """Reusable LU factorization of a square CsrMatrix.

    ``solve(b)`` refines ``apply_inverse(b)`` with ``defect_correction``
    against the factored matrix, down to the rounding floor of its
    ||A||_inf, taken once here; ``corrections`` holds the number of
    corrections the last successful solve made.
    """

    def __init__(self, A: CsrMatrix):
        if A.nrows != A.ncols:
            raise ShapeError("solve needs a square matrix")
        self._A = A
        self.n = A.nrows
        self.corrections = 0
        try:
            self._lu = spla.splu(_scipy_csr(A).tocsc(), permc_spec=_PERMC_SPEC)
        except RuntimeError as exc:  # scipy reports exact singularity this way
            raise SingularMatrixError(f"singular matrix: {exc}", pivot=0.0) from exc
        _checked_pivot(self._lu.U.diagonal())
        self._floor = rounding_floor(inf_norm(A))

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(r)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ShapeError(f"rhs needs length {self.n}, got shape {b.shape}")
        x, self.corrections = defect_correction(
            b, partial(matvec, self._A), self.apply_inverse, self._floor
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
            # On one (m, m) block the transform's output multiplies the
            # inverse symbol, in that order: numpy's complex product is not
            # commutative bit for bit, so the stacked route below would move
            # 1x1 results by round-off.
            return _ifft2(_fft2(r.reshape(m, m)) * self._cols[0][0], m).reshape(-1)
        r1, r2 = _fft2(r.reshape(2, m, m))
        return _ifft2(self._cols[0] * r1 + self._cols[1] * r2, m).reshape(-1)


def symbol(A: CsrMatrix) -> np.ndarray:
    """The eigenvalues of a block-circulant A: the 2-D DFT of its first column.

    A's entry (r, 0) is row 0's entry at column -r, so the first column is
    row 0's values placed by negated column (``_stencil_symbol``).
    """
    return _stencil_symbol(A, A.values[: A.row_offsets[1]])


def circulant_symbol(A: CsrMatrix) -> np.ndarray:
    """The symbol of T. F. Chan's optimal circulant of A (SIAM J. Sci. Stat. Comput. 9, 1988).

    A lies on the stencil layout.  Chan's circulant holds at each offset
    the mean over all N rows of A's entries there: the block-circulant
    matrix nearest A in the Frobenius norm.  The mean is taken of each
    entry's difference to row 0's entry at the same offset, which is added
    back, so a block-circulant A keeps its ``symbol`` bit for bit.
    """
    values = A.values.reshape(A.nrows, -1)
    row0 = values[0]
    return _stencil_symbol(A, row0 + (values - row0).mean(axis=0))


def _stencil_symbol(A: CsrMatrix, stencil: np.ndarray) -> np.ndarray:
    """The symbol of the block-circulant matrix with ``stencil`` in the slots of A's row 0.

    Row r holds offset d in column r + d, so the first column holds, in row
    -d, the stencil's value at d: row 0's column negated on the m x m
    grid, which negative indices wrap.  Each value enters as a product
    with e0 would leave it (a zero comes out +0).
    """
    m = _side(A)
    cj, ci = np.divmod(A.col_indices[: A.row_offsets[1]], m)
    column = np.zeros((m, m))
    column[-cj, -ci] = stencil + 0.0
    return _fft2(column)


def stencil_norm(A: CsrMatrix) -> float:
    """||A||_inf of a block-circulant A on the stencil layout, such as M and K.

    Every row holds the same stencil, so row 0's absolute sum is the norm.
    """
    return float(np.abs(A.values[: A.row_offsets[1]]).sum())


def _side(A: CsrMatrix) -> int:
    """m for a square A of m^2 rows, the dofs of the periodic m x m grid."""
    m = math.isqrt(A.nrows)
    if A.nrows != A.ncols or m * m != A.nrows:
        raise ShapeError("spectral solve needs a square matrix of m^2 rows")
    return m


# rfft2 and irfft2 over the last two axes of a (..., m, m) array, as numpy's
# pocketfft gufuncs with the factors and ``out`` arrays np.fft gives them:
# at m = 16 the np.fft wrappers cost more than the transforms.
_AXIS_2 = [(-2,), (), (-2,)]


def _fft2(x: np.ndarray) -> np.ndarray:
    m = x.shape[-1]
    rfft = rfft_n_even if m % 2 == 0 else rfft_n_odd
    half = rfft(x, 1, out=np.empty((*x.shape[:-1], m // 2 + 1), dtype=complex))
    return fft(half, 1, axes=_AXIS_2, out=np.empty_like(half))


def _ifft2(xhat: np.ndarray, m: int) -> np.ndarray:
    full = ifft(xhat, 1 / m, axes=_AXIS_2, out=np.empty_like(xhat))
    return irfft(full, 1 / m, out=np.empty((*xhat.shape[:-1], m)))


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
    if q < 0:  # the refusal's bound is negative, so only then can it hold
        scale = float(np.abs(M.values).max(initial=0.0)) * float(v @ v)
        if q < -1e-12 * max(scale, EPS_FLOOR):
            raise NotSpdError(f"quadratic form {q:.3e} negative beyond round-off")
    return float(np.sqrt(max(q, 0.0)))
