"""Sparse resolvent columns, nested-prefix resolvent traces and probe-block
spectral weights.

Everything here is exact linear algebra at desk scale (dimension a few
thousand at most); statistical estimation lives in `montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

_DENSE_DIMENSION_CAP = 4096
_RESIDUAL_REL_TOL = 1e-10
_LU_PANEL = 32


@dataclass(frozen=True)
class ComplexShift:
    """Spectral parameter E + i*eps with eps strictly positive."""

    energy: float
    eps: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"imaginary shift must be positive, got {self.eps}")

    @property
    def z(self) -> complex:
        return complex(self.energy, self.eps)


def _square_dimension(shape) -> int:
    n = shape[0]
    if tuple(shape) != (n, n):
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if n > _DENSE_DIMENSION_CAP:
        raise ValueError(f"dimension {n} above the dense cap {_DENSE_DIMENSION_CAP}")
    return n


def _as_z(z) -> complex:
    if isinstance(z, ComplexShift):
        return z.z
    zc = complex(z)
    if not zc.imag > 0.0:
        raise ValueError(f"spectral parameter needs positive imaginary part, got {zc}")
    return zc


class CscPattern:
    """Compressed-column pattern of an n x n matrix, every diagonal entry stored.

    Built once from (rows, cols, vals) entries, duplicates summed.  data[diag]
    are the diagonal entries, so a shift or a disorder draw touches only them.
    """

    def __init__(self, rows, cols, vals, n: int):
        import scipy.sparse as sp

        ar = np.arange(n)
        ij = (np.concatenate([rows, ar]), np.concatenate([cols, ar]))
        a = sp.csc_array((np.concatenate([vals, np.zeros(n)]), ij), shape=(n, n))
        a.sum_duplicates()
        self.indptr, self.indices, self.data = a.indptr, a.indices, a.data
        self.diag = np.flatnonzero(a.indices == np.repeat(ar, np.diff(a.indptr)))

    def resolvent_columns(self, data: np.ndarray, z, columns) -> np.ndarray:
        """resolvent_columns of the matrix with this pattern and data."""
        from scipy.sparse import csc_array
        from scipy.sparse.linalg import splu

        zc, n = _as_z(z), len(self.diag)
        cols = np.asarray(columns, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index outside the matrix")
        scale = np.bincount(self.indices, np.abs(data), n).max(initial=0.0) + abs(zc)
        shifted = data.astype(np.complex128)
        shifted[self.diag] -= zc
        a = csc_array((shifted, self.indices, self.indptr), shape=(n, n))
        rhs = np.zeros((n, cols.size), dtype=np.complex128)
        rhs[cols, np.arange(cols.size)] = 1.0
        try:
            opts = {"SymmetricMode": True}
            lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=opts)
            x = lu.solve(rhs)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            x = np.full_like(rhs, np.nan)
        resid = np.linalg.norm(a @ x - rhs, axis=0)
        if not np.all(resid <= _RESIDUAL_REL_TOL * scale):
            raise RuntimeError(
                f"resolvent solve residual {resid.max(initial=0.0):.3e} exceeds "
                f"{_RESIDUAL_REL_TOL:.0e} * {scale:.3e}"
            )
        return x


def resolvent_columns(h, z, columns: Sequence[int]) -> np.ndarray:
    """Columns of (h - z)^{-1} for a dense or scipy-sparse Hermitian h.

    One SuperLU factorization of h - z serves every column: minimum-degree
    ordering on the pattern of A^T + A, applied symmetrically, with pivots on
    the diagonal.  No pivot can vanish: every leading block of P (h - z) P^T
    has imaginary part <= -Im z, so every pivot has modulus >= Im z.  Each
    column is checked against ||(h - z) x - e|| <= 1e-10 * (||h||_inf + |z|),
    which a failed factorization or solve fails too.
    """
    zc = _as_z(z)
    import scipy.sparse as sp

    coo = sp.coo_array(h if sp.issparse(h) else np.asarray(h))
    n = _square_dimension(coo.shape)
    pattern = CscPattern(coo.row, coo.col, coo.data, n)
    return pattern.resolvent_columns(pattern.data, zc, columns)


def _lu_without_pivoting(a: np.ndarray) -> None:
    """Overwrite the F-ordered square a with its LU factors, without pivoting.

    Unit lower L below the diagonal, U on and above it.  Right-looking, in
    panels of _LU_PANEL columns: a panel is eliminated column by column and
    the trailing matrix takes one triangular solve and one gemm, both in
    scipy's BLAS.
    """
    n = a.shape[0]
    for k0 in range(0, n, _LU_PANEL):
        k1 = min(k0 + _LU_PANEL, n)
        for k in range(k0, k1):
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 : k1] -= a[k + 1 :, k, None] * a[k, k + 1 : k1]
        if k1 < n:
            a[k0:k1, k1:] = sla.blas.ztrsm(
                1.0, a[k0:k1, k0:k1], a[k0:k1, k1:], lower=1, diag=1
            )
            a[k1:, k1:] = sla.blas.zgemm(
                -1.0, a[k1:, k0:k1], a[k0:k1, k1:], beta=1.0, c=a[k1:, k1:]
            )


def nested_block_traces(
    h: np.ndarray, z, block_sites: Sequence[int], prefix_sizes: Sequence[int]
) -> np.ndarray:
    """tr(P (h[:n, :n] - z)^{-1}) for each leading size n of prefix_sizes.

    P projects onto block_sites, which must lie inside the smallest prefix.
    One LU factorization of h - z without pivoting serves every prefix: the
    leading n x n block of L U is L_n U_n, and the leading blocks of the
    triangular inverses are the inverses of the leading blocks, so

        (h_n - z)^{-1}_{ii} = sum_{j < n} (U^{-1})_{ij} (L^{-1})_{ji}

    and each trace is one entry of a cumulative sum over j.  No pivot can
    vanish: every leading block and Schur complement of h - z has imaginary
    part <= -Im z, so every pivot has modulus >= Im z.  The factors are
    checked once, max |L U - (h - z)| <= 1e-10 * (||h|| + |z|), which bounds
    the backward error of every prefix at once.
    """
    zc = _as_z(z)
    h = np.asarray(h)
    n = _square_dimension(h.shape)
    sizes = np.asarray(prefix_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.max() > n:
        raise ValueError(f"prefix sizes must be a non-empty list in [1, {n}]")
    sites = np.asarray(block_sites, dtype=np.int64)
    if sites.size == 0 or sites.min() < 0 or sites.max() >= sizes.min():
        raise ValueError(
            "block sites must be non-empty and lie inside the smallest prefix "
            f"of {sizes.min()} sites"
        )
    m = int(sizes.max())
    diag = np.arange(m)
    lu = np.array(h[:m, :m], dtype=np.complex128, order="F")
    lu[diag, diag] -= zc
    _lu_without_pivoting(lu)
    # L U through trmm: scipy's BLAS, as in the factorization, so numpy's
    # own BLAS pool does not wake up to contend with it
    prod = sla.blas.ztrmm(1.0, lu, np.triu(lu), lower=1, diag=1)
    prod[diag, diag] += zc
    resid = np.max(np.abs(prod - h[:m, :m]), initial=0.0)
    scale = np.linalg.norm(h, np.inf) + abs(zc)
    if not resid <= _RESIDUAL_REL_TOL * scale:
        raise RuntimeError(
            f"nested LU residual {resid:.3e} exceeds "
            f"{_RESIDUAL_REL_TOL:.0e} * {scale:.3e}"
        )
    rhs = np.zeros((m, sites.size), dtype=np.complex128)
    rhs[sites, np.arange(sites.size)] = 1.0
    # columns of L^{-1} and, transposed, rows of U^{-1} at the block sites
    l_inv = sla.blas.ztrsm(1.0, lu, rhs, lower=1, diag=1)
    u_inv = sla.blas.ztrsm(1.0, lu, rhs, trans_a=1)
    return np.cumsum(np.sum(u_inv * l_inv, axis=1))[sizes - 1]


def eigen_weights(h: np.ndarray, block_sites: Sequence[int]):
    """(eigenvalues, tr(P psi psi*) weights) for the block projection P.

    Shared workhorse: traces of functions of h against P are then plain
    weighted sums over the spectrum.
    """
    evals, evecs = np.linalg.eigh(np.asarray(h))
    idx = np.asarray(block_sites, dtype=np.int64)
    weights = np.sum(np.abs(evecs[idx, :]) ** 2, axis=0)
    return evals, weights
