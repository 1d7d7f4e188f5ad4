"""Dense resolvent columns and probe-block spectral weights.

Everything here is exact dense linear algebra at desk scale (dimension a few
thousand at most); statistical estimation lives in `montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

_DENSE_DIMENSION_CAP = 4096
_RESIDUAL_REL_TOL = 1e-10


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


def _as_z(z) -> complex:
    if isinstance(z, ComplexShift):
        return z.z
    zc = complex(z)
    if not zc.imag > 0.0:
        raise ValueError(f"spectral parameter needs positive imaginary part, got {zc}")
    return zc


def resolvent_columns(h: np.ndarray, z, columns: Sequence[int]) -> np.ndarray:
    """Columns of (h - z)^{-1}, one LU factorization reused for all of them.

    Each column is checked against the residual bound
    ||(h - z) x - e|| <= 1e-10 * (||h|| + |z|).
    """
    zc = _as_z(z)
    h = np.asarray(h)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if n > _DENSE_DIMENSION_CAP:
        raise ValueError(f"dimension {n} above the dense cap {_DENSE_DIMENSION_CAP}")
    cols = np.asarray(columns, dtype=np.int64)
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("column index outside the matrix")
    shifted = np.array(h, dtype=np.complex128, order="F")
    shifted[np.arange(n), np.arange(n)] -= zc
    lu, piv = sla.lu_factor(shifted, overwrite_a=True, check_finite=False)
    rhs = np.zeros((n, cols.size), dtype=np.complex128)
    rhs[cols, np.arange(cols.size)] = 1.0
    x = sla.lu_solve((lu, piv), rhs, check_finite=False)
    scale = np.linalg.norm(h, np.inf) + abs(zc)
    # einsum, not BLAS: numpy's own BLAS pool would contend with scipy's LU
    resid = np.linalg.norm(np.einsum("ij,jk->ik", h, x) - zc * x - rhs, axis=0)
    if np.any(resid > _RESIDUAL_REL_TOL * scale):
        raise RuntimeError(
            f"resolvent solve residual {resid.max():.3e} exceeds "
            f"{_RESIDUAL_REL_TOL:.0e} * {scale:.3e}"
        )
    return x


def eigen_weights(h: np.ndarray, block_sites: Sequence[int]):
    """(eigenvalues, tr(P psi psi*) weights) for the block projection P.

    Shared workhorse: traces of functions of h against P are then plain
    weighted sums over the spectrum.
    """
    evals, evecs = np.linalg.eigh(np.asarray(h))
    idx = np.asarray(block_sites, dtype=np.int64)
    weights = np.sum(np.abs(evecs[idx, :]) ** 2, axis=0)
    return evals, weights
