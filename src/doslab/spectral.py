"""Sparse resolvent columns, nested-prefix and full-volume resolvent traces,
and probe-block spectral weights.

Everything here is exact linear algebra at desk scale (dimension a few
thousand at most); statistical estimation lives in `montecarlo`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_DENSE_DIMENSION_CAP = 4096
_RESIDUAL_REL_TOL = 1e-10
_LU_PANEL = 32
# lanes x z values per pass of the two-sided Schur recursion: each of its
# (z, lanes) temporaries then takes 32 KB, which keeps the peak RSS of a run
# below that of the eigh route it replaces
_RECURSION_CELLS = 1 << 12


def _square_dimension(shape) -> int:
    n = shape[0]
    if tuple(shape) != (n, n):
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if n > _DENSE_DIMENSION_CAP:
        raise ValueError(f"dimension {n} above the dense cap {_DENSE_DIMENSION_CAP}")
    return n


def _lane_stack(h0, diagonals):
    """h0 as a square array, its dimension n, and diagonals as (lanes, n) floats."""
    h0 = np.asarray(h0)
    n = _square_dimension(h0.shape)
    diags = np.asarray(diagonals, dtype=float)
    if diags.ndim != 2 or diags.shape[1] != n:
        raise ValueError(f"diagonals must be a (lanes, {n}) stack, got {diags.shape}")
    return h0, n, diags


def _as_z(z) -> complex:
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
        """Columns of (a - z)^{-1}, a the Hermitian matrix with this pattern and data.

        One SuperLU factorization of a - z serves every column: minimum-degree
        ordering on the pattern of A^T + A, applied symmetrically, with pivots
        on the diagonal.  No pivot can vanish: every leading block of
        P (a - z) P^T has imaginary part <= -Im z, so every pivot has modulus
        >= Im z.  Each column is checked against
        ||(a - z) x - e|| <= 1e-10 * (||a||_inf + |z|), which a failed
        factorization or solve fails too.
        """
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


def _lu_without_pivoting(a: np.ndarray) -> None:
    """Overwrite the F-ordered square a with its LU factors, without pivoting.

    Unit lower L below the diagonal, U on and above it.  Right-looking, in
    panels of _LU_PANEL columns: a panel is eliminated column by column and
    the trailing matrix takes one triangular solve and one gemm, both in
    scipy's BLAS.
    """
    from scipy.linalg import blas

    n = a.shape[0]
    for k0 in range(0, n, _LU_PANEL):
        k1 = min(k0 + _LU_PANEL, n)
        for k in range(k0, k1):
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 : k1] -= a[k + 1 :, k, None] * a[k, k + 1 : k1]
        if k1 < n:
            a[k0:k1, k1:] = blas.ztrsm(
                1.0, a[k0:k1, k0:k1], a[k0:k1, k1:], lower=1, diag=1
            )
            a[k1:, k1:] = blas.zgemm(
                -1.0, a[k1:, k0:k1], a[k0:k1, k1:], beta=1.0, c=a[k1:, k1:]
            )


def _check_residual(resid: np.ndarray, scale: np.ndarray) -> None:
    """Raise unless every lane meets resid <= 1e-10 * scale; NaN fails."""
    bad = np.flatnonzero(~(resid <= _RESIDUAL_REL_TOL * scale))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"LU residual {resid[i]:.3e} exceeds "
            f"{_RESIDUAL_REL_TOL:.0e} * {scale[i]:.3e}"
        )


def _dense_prefix_traces(h0, d, zc, rhs, m):
    """Cumulative tr(P_0 G_n) of h0 + diag(d) over n = 1..m, one dense LU."""
    from scipy.linalg import blas

    h = h0.copy()
    diag = np.arange(len(d))
    h[diag, diag] += d
    diag = diag[:m]
    lu = np.array(h[:m, :m], dtype=np.complex128, order="F")
    lu[diag, diag] -= zc
    _lu_without_pivoting(lu)
    # L U through trmm: scipy's BLAS, as in the factorization, so numpy's
    # own BLAS pool does not wake up to contend with it
    prod = blas.ztrmm(1.0, lu, np.triu(lu), lower=1, diag=1)
    prod[diag, diag] += zc
    resid = np.max(np.abs(prod - h[:m, :m]), initial=0.0)
    scale = np.linalg.norm(h, np.inf) + abs(zc)
    # columns of L^{-1} and, transposed, rows of U^{-1} at the block sites
    l_inv = blas.ztrsm(1.0, lu, rhs, lower=1, diag=1)
    u_inv = blas.ztrsm(1.0, lu, rhs, trans_a=1)
    return np.cumsum(np.sum(u_inv * l_inv, axis=1)), resid, scale


def _band_prefix_traces(h0, diags, zc, rhs, m, b):
    """Cumulative tr(P_0 G_n) over n = 1..m for every lane, one band sweep.

    A right-looking LU without pivoting of h - z, h = h0 + diag(lane), whose
    state is the (b+1) x (b+1) trailing window of every lane.  Step k yields
    column k of L and row k of U; forward substitution in the same order
    moves the block columns of L^{-1} (x) and of U^{-T} (y) along, and
    x_k . y_k is the step-k increment of the trace.  Row k of L U is rebuilt
    from the last b + 1 rows of L and U and compared with row k of h - z.
    """
    lanes, w = len(diags), b + 1
    # hb[b + i, b + o] = h0[i, i + o] on the m x m prefix, zero outside it;
    # the diagonal of each lane's h - z is dz
    i = np.arange(-b, m + b)[:, None]
    j = i + np.arange(-b, w)
    inside = (i >= 0) & (i < m) & (j >= 0) & (j < m)
    hb = np.where(inside, h0[i.clip(0, m - 1), j.clip(0, m - 1)], 0).astype(complex)
    hb[:, b] = 0.0
    dz = np.zeros((lanes, m + b), dtype=np.complex128)
    dz[:, :m] = (np.diagonal(h0)[:m] + diags[:, :m]) - zc
    r = np.arange(b)
    col = hb[np.arange(m + b)[:, None] + r, 2 * b - r]  # col[q] = h0[q - b + r, q]
    e = np.pad(rhs, ((0, b), (0, 0)))
    rr, cc = np.indices((w, w))
    win = np.broadcast_to(hb[b + rr, b + cc - rr], (lanes, w, w)).copy()
    win[:, np.arange(w), np.arange(w)] = dz[:, :w]
    x = np.broadcast_to(e[:w], (lanes, w, e.shape[1])).copy()
    y = x.copy()
    # at step k: l_rows[:, r, s] = L[k+r, k+r-s] and u_rows[:, s, b+o] = U[k-s, k+o]
    l_rows = np.zeros((lanes, w, w), dtype=np.complex128)
    l_rows[:, :, 0] = 1.0
    u_rows = np.zeros((lanes, w, 2 * b + 1), dtype=np.complex128)
    inc = np.empty((lanes, m), dtype=np.complex128)
    resid = np.zeros(lanes)
    for k in range(m):
        piv = win[:, 0, 0, None]
        l = win[:, 1:, 0] / piv
        yk = y[:, 0] / piv
        inc[:, k] = np.sum(x[:, 0] * yk, axis=1)
        # row k of L U against row k of h - z
        u_rows[:, 0, b:] = win[:, 0]
        diff = np.sum(l_rows[:, 0, :, None] * u_rows, axis=1) - hb[b + k]
        diff[:, b] -= dz[:, k]
        resid = np.maximum(resid, np.abs(diff).max(axis=1))
        if k + 1 == m:
            break
        # shift every window by one; q enters as the last row and column
        q = k + w
        x[:, :b] = x[:, 1:] - l[:, :, None] * x[:, :1]
        x[:, b] = e[q]
        y[:, :b] = y[:, 1:] - win[:, 0, 1:, None] * yk[:, None]
        y[:, b] = e[q]
        win[:, :b, :b] = win[:, 1:, 1:] - l[:, :, None] * win[:, :1, 1:]
        win[:, b, :b] = hb[b + q, :b]
        win[:, :b, b] = col[q]
        win[:, b, b] = dz[:, q]
        l_rows[:, :b] = l_rows[:, 1:]
        l_rows[:, b, 1:] = 0.0
        l_rows[:, r, r + 1] = l
        u_rows[:, 1:, :-1] = u_rows[:, :-1, 1:]
        u_rows[:, :, -1] = 0.0
        u_rows[:, 0] = 0.0
    a = np.abs(h0)
    np.fill_diagonal(a, 0.0)
    scale = np.max(a.sum(axis=1) + np.abs(np.diagonal(h0) + diags), axis=1) + abs(zc)
    return np.cumsum(inc, axis=1), resid, scale


def nested_block_traces(
    h0: np.ndarray,
    diagonals: np.ndarray,
    z,
    block_sites: Sequence[int],
    prefix_sizes: Sequence[int],
) -> np.ndarray:
    """tr(P (h[:n, :n] - z)^{-1}) per lane for each leading size n of prefix_sizes.

    Lane i is h = h0 + diag(diagonals[i]); the result is (lanes, len(sizes)).
    P projects onto block_sites, which must lie inside the smallest prefix.
    One LU factorization of h - z without pivoting serves every prefix: the
    leading n x n block of L U is L_n U_n, and the leading blocks of the
    triangular inverses are the inverses of the leading blocks, so

        (h_n - z)^{-1}_{ii} = sum_{j < n} (U^{-1})_{ij} (L^{-1})_{ji}

    and each trace is one entry of a cumulative sum over j.  No pivot can
    vanish: every leading block and Schur complement of h - z has imaginary
    part <= -Im z, so every pivot has modulus >= Im z.  The factors of every
    lane are checked, max |L U - (h - z)| <= 1e-10 * (||h||_inf + |z|), which
    bounds the backward error of every prefix at once.

    With b the bandwidth of h0 on the largest prefix m, all lanes share one
    band sweep when (b + 1)^2 <= m (every chain, ordered 0, +1, -1, ..., has
    b = 2); otherwise each lane takes a dense blocked LU.
    """
    zc = _as_z(z)
    h0, n, diags = _lane_stack(h0, diagonals)
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
    rhs = np.zeros((m, sites.size), dtype=np.complex128)
    rhs[sites, np.arange(sites.size)] = 1.0
    rows, cols = np.nonzero(h0[:m, :m])
    b = int(np.max(np.abs(rows - cols), initial=0))
    if (b + 1) ** 2 <= m:
        tr, resid, scale = _band_prefix_traces(h0, diags, zc, rhs, m, b)
    else:
        lanes = [_dense_prefix_traces(h0, d, zc, rhs, m) for d in diags]
        tr, resid, scale = (np.array(v) for v in zip(*lanes))
    _check_residual(resid, scale)
    return tr[:, sizes - 1]


def _path_order(h0: np.ndarray):
    """Sites in path order if the coupling graph of h0 is one simple path, else None.

    n - 1 couplings and no degree above 2 make one path plus cycles; the walk
    from a least-degree site covers every site only if there is no cycle.
    """
    off = h0 != 0
    np.fill_diagonal(off, False)
    deg = off.sum(axis=1)
    if off.sum() != 2 * (len(h0) - 1) or deg.max(initial=0) > 2:
        return None
    order = [int(np.argmin(deg))]
    for _ in range(len(h0) - 1):
        step = [j for j in np.flatnonzero(off[order[-1]]) if order[-2:-1] != [j]]
        if not step:
            return None
        order.append(int(step[0]))
    return np.array(order)


def _schur_pivots(ar, t2, z, res2):
    """Yield the pivots s_k = a_k - t2[k-1] / s_{k-1}, a_k = ar[k] - z, in order.

    ar is the (n, lanes) real diagonal in sweep order and t2 the n - 1
    couplings |h_{k-1,k}|^2.  Each s_k is a (Re, Im) pair of (z, lanes)
    arrays in real arithmetic, so every (z, lane) value is computed on its
    own; |s_k + t2[k-1] / s_{k-1} - a_k|^2 is folded into res2.
    """
    er, ay = z.real[:, None], -z.imag[:, None]
    gx = gy = 0.0
    for k in range(len(ar)):
        ax, t = ar[k] - er, t2[k - 1] if k else 0.0
        u, v = t * gx, t * gy
        sx, sy = ax - u, ay + v
        np.maximum(res2, (sx + u - ax) ** 2 + (sy - v - ay) ** 2, out=res2)
        yield sx, sy
        r2 = sx * sx + sy * sy
        gx, gy = sx / r2, sy / r2


def block_resolvent_traces(
    h0: np.ndarray, diagonals: np.ndarray, zs, block_sites: Sequence[int]
) -> np.ndarray:
    """(lanes, zs.size) tr(P (h - z)^{-1}), h = h0 + diag(diagonals[lane]).

    z runs over zs flattened; P projects onto block_sites.  When the coupling
    graph of h0 is one simple path (every 1-d box and prefix of one, any
    block rank and phase), a left Schur recursion along it up to the last
    block site, s_k = a_k - |h_{k-1,k}|^2 / s_{k-1} with a_k = h_kk - z, and
    its mirror from the right end down to the first serve all lanes and z of
    a pass; block site p takes the twisted pivot 1/G_pp = sL_p + sR_p - a_p.
    Every pivot has imaginary part <= -Im z, so none vanishes.  The diagonal
    of L D U - (h - z), rebuilt from each pivot, is checked against
    1e-10 * (||h||_inf + |z|) per lane and z.  Other volumes take
    eigen_weights per lane.
    """
    h0, n, diags = _lane_stack(h0, diagonals)
    z = np.array([_as_z(v) for v in np.ravel(zs)])
    sites = np.asarray(block_sites, dtype=np.int64)
    if sites.size == 0 or sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"block sites must be non-empty and lie in [0, {n})")
    path = _path_order(h0)
    out = np.zeros((len(diags), z.size), dtype=np.complex128)
    if path is None:
        for lane, d in zip(out, diags):
            h = h0.copy()
            h[np.arange(n), np.arange(n)] += d
            lane[:] = _weighted_resolvent_power(*eigen_weights(h, sites), z, 1)
        return out
    pos = sorted(np.argsort(path)[sites].tolist())
    off = np.abs(h0).sum(axis=1) - np.abs(np.diagonal(h0))
    ar = np.diagonal(h0).real + diags
    scale = np.max(off + np.abs(ar), axis=1)[:, None] + np.abs(z)
    ar, t2 = ar.T[path], (h0[path[:-1], path[1:]] * h0[path[1:], path[:-1]]).real
    er, ay = z.real[:, None], -z.imag[:, None]
    step = max(1, _RECURSION_CELLS // z.size)
    for i in range(0, len(diags), step):
        a, tr = ar[:, i : i + step], out[i : i + step].T
        res2 = np.zeros(tr.shape)
        left = _schur_pivots(a, t2, z, res2)
        sl = {k: s for k, s in zip(range(pos[-1] + 1), left) if k in pos}
        right = _schur_pivots(a[::-1], t2[::-1], z, res2)
        sr = {k: s for k, s in zip(range(n - 1, pos[0] - 1, -1), right) if k in pos}
        for p in pos:
            (lx, ly), (rx, ry), ax = sl[p], sr[p], a[p] - er
            sx, sy = lx + rx - ax, ly + ry - ay
            dx, dy = sx - lx - rx + ax, sy - ly - ry + ay
            np.maximum(res2, dx * dx + dy * dy, out=res2)
            r2 = sx * sx + sy * sy
            tr.real += sx / r2
            tr.imag -= sy / r2
        _check_residual(np.sqrt(res2).T.ravel(), scale[i : i + step].ravel())
    return out


def eigen_weights(h: np.ndarray, block_sites: Sequence[int]):
    """(eigenvalues, tr(P psi psi*) weights) for the block projection P.

    Shared workhorse: traces of functions of h against P are then plain
    weighted sums over the spectrum.
    """
    evals, evecs = np.linalg.eigh(np.asarray(h))
    idx = np.asarray(block_sites, dtype=np.int64)
    weights = np.sum(np.abs(evecs[idx, :]) ** 2, axis=0)
    return evals, weights


def _weighted_resolvent_power(evals, weights, zs, power: int):
    """sum_j w_j / (lambda_j - z)^power for each z of zs, flattened.

    Each z is summed pairwise along its own contiguous row, so its bytes do
    not depend on how many other z share the call.
    """
    terms = weights[:, None] / (evals[:, None] - zs.reshape(1, -1)) ** power
    return np.ascontiguousarray(terms.T).sum(axis=1)
