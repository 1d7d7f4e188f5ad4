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

    Built once from (rows, cols, vals) entries, duplicates summed.  The
    fill-reducing order of the factorization depends on the pattern alone,
    so it is computed here, once: SuperLU's minimum-degree order on the
    pattern of A^T + A.  The pattern and data are stored in that order, as
    P a P^T, with site i in position _position[i].  data[diag[i]] is the
    diagonal entry of site i, so a shift or a disorder draw touches only the
    entries data[diag].
    """

    def __init__(self, rows, cols, vals, n: int):
        import scipy.sparse as sp
        from scipy.sparse.linalg import spilu

        ar = np.arange(n)
        rows, cols = np.concatenate([rows, ar]), np.concatenate([cols, ar])
        vals = np.concatenate([vals, np.zeros(n)])

        def csc(row_pos, col_pos):
            a = sp.csc_array((vals, (row_pos, col_pos)), shape=(n, n))
            a.sum_duplicates()
            diag = np.flatnonzero(a.indices == np.repeat(ar, np.diff(a.indptr)))
            return a, diag

        # any matrix with this pattern yields the order; a diagonally
        # dominant one factors without breakdown, and an incomplete factor,
        # which runs the same ordering step, costs a third of a complete one
        a, diag = csc(rows, cols)
        a.data[:] = 1.0
        a.data[diag] = np.diff(a.indptr) + 1.0
        lu = spilu(
            a,
            drop_tol=0.9,
            fill_factor=1.0,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # perm_c[k] is the position of site k
        self._position = lu.perm_c
        del a, diag, lu
        a, diag = csc(self._position[rows], self._position[cols])
        self.indptr, self.indices, self.data = a.indptr, a.indices, a.data
        self.diag = diag[self._position]
        # one complex matrix whose data each factorization overwrites
        self._shifted = sp.csc_array(
            (np.zeros(a.nnz, dtype=np.complex128), a.indices, a.indptr), shape=(n, n)
        )

    def resolvent_columns(self, data: np.ndarray, z, columns) -> np.ndarray:
        """Columns of (a - z)^{-1}, a the Hermitian matrix with this pattern and data.

        One SuperLU factorization of P (a - z) P^T, in the stored order and
        with pivots on the diagonal, serves every column.  No pivot can
        vanish: every leading block of P (a - z) P^T has imaginary part
        <= -Im z, so every pivot has modulus >= Im z.  Each column is checked
        against ||(a - z) x - e|| <= 1e-10 * (||a||_inf + |z|), which a failed
        factorization or solve fails too.
        """
        from scipy.sparse.linalg import splu

        zc, n = _as_z(z), len(self.diag)
        cols = np.asarray(columns, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index outside the matrix")
        scale = np.bincount(self.indices, np.abs(data), n).max(initial=0.0) + abs(zc)
        a = self._shifted
        a.data[:] = data
        a.data[self.diag] -= zc
        # right-hand sides and solutions in the stored order
        rhs = np.zeros((n, cols.size), dtype=np.complex128)
        rhs[self._position[cols], np.arange(cols.size)] = 1.0
        try:
            opts = {"SymmetricMode": True}
            lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=opts)
            y = lu.solve(rhs)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            y = np.full_like(rhs, np.nan)
        resid = np.linalg.norm(a @ y - rhs, axis=0)
        _check_residual(resid, np.full(resid.shape, scale), "resolvent solve")
        return y[self._position]


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


def _check_residual(resid: np.ndarray, scale: np.ndarray, what: str = "LU") -> None:
    """Raise unless every lane meets resid <= 1e-10 * scale; NaN fails."""
    bad = np.flatnonzero(~(resid <= _RESIDUAL_REL_TOL * scale))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"{what} residual {resid[i]:.3e} exceeds "
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

    With b the bandwidth of h0 on the largest prefix, all lanes share one
    band sweep when b <= 2 (every chain and prefix of one, ordered 0, +1,
    -1, ...); otherwise (the 2-d and 3-d boxes) each lane takes a dense
    blocked LU.
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
    if b <= 2:
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
    # work arrays reused across steps; only the yielded pivots are new
    gx, gy = np.zeros(res2.shape), np.zeros(res2.shape)
    ax, u, v, r2 = (np.empty(res2.shape) for _ in range(4))
    for k in range(len(ar)):
        t = t2[k - 1] if k else 0.0
        np.subtract(ar[k], er, out=ax)
        np.multiply(gx, t, out=u)
        np.multiply(gy, t, out=v)
        sx, sy = ax - u, ay + v
        # (sx + u - ax)^2 + (sy - v - ay)^2, in the buffers of u and v
        u += sx
        u -= ax
        u *= u
        np.subtract(sy, v, out=v)
        v -= ay
        v *= v
        u += v
        np.maximum(res2, u, out=res2)
        yield sx, sy
        np.multiply(sx, sx, out=r2)
        np.multiply(sy, sy, out=v)
        r2 += v
        np.divide(sx, r2, out=gx)
        np.divide(sy, r2, out=gy)


def block_coupling_poles(
    h0: np.ndarray, diagonals: np.ndarray, zs, block_sites: Sequence[int]
) -> np.ndarray:
    """(lanes, zs.size, r) eigenvalues mu_k of W(z) for the probe block B of r sites.

    Lane i is h = h0 + diag(diagonals[i]), whose diagonal takes one value d
    on B: the block's coupling.  By the Schur complement
    P_B (h - z)^{-1} P_B = (d - W)^{-1} with W = z - h0[B, B] + Sigma(z), and
    Sigma does not depend on d, so tr(P_B (h - z)^{-1}) = sum_k 1/(d - mu_k)
    at every d.  The numerical range of W lies in Im >= Im z, and so does
    every mu_k.  z runs over zs flattened.

    When the coupling graph of h0 is one simple path that visits B's sites
    in a row (every 1-d box and prefix of one, any block rank and phase), a
    left Schur recursion s_k = a_k - |h_{k-1,k}|^2 / s_{k-1}, a_k = h_kk - z,
    up to the last block site and its mirror from the right end down to the
    first serve all lanes and z of a pass.  W is then h0's r x r segment
    with |t|^2 / s added from the pivot just before B and from the one just
    after it; for r = 1 it is the scalar z - h0_pp + Sigma_L + Sigma_R, so
    zero hopping gives mu = z.  Every pivot has imaginary part <= -Im z, so
    none vanishes, and the diagonal of L D U - (h - z) rebuilt from each
    pivot is checked against 1e-10 * (||h||_inf + |z|) per lane and z.
    Other volumes take one eigh per lane: mu_k = d - 1/g_k, g_k the
    eigenvalues of P_B (h - z)^{-1} P_B.

    Guard: sum_k 1/(d - mu_k) must match tr(P_B (h - z)^{-1}), from the
    twisted pivots 1/G_pp = sL_p + sR_p - a_p or from the eigen-sum, within
    1e-10 * (||h||_inf + |z|) * r / Im(z)^2: the most a backward error at the
    residual scale can move a trace whose resolvent has norm <= 1 / Im z.
    NaN fails both checks.
    """
    h0, n, diags = _lane_stack(h0, diagonals)
    z = np.array([_as_z(v) for v in np.ravel(zs)])
    sites = np.asarray(block_sites, dtype=np.int64)
    if sites.size == 0 or sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"block sites must be non-empty and lie in [0, {n})")
    d = diags[:, sites[0]]
    if np.any(diags[:, sites] != d[:, None]):
        raise ValueError("each lane's diagonal must take one value on the block sites")
    off = np.abs(h0).sum(axis=1) - np.abs(np.diagonal(h0))
    ar = np.diagonal(h0).real + diags
    scale = np.max(off + np.abs(ar), axis=1)[:, None] + np.abs(z)
    path = _path_order(h0)
    pos = None if path is None else np.sort(np.argsort(path)[sites])
    if pos is None or pos[-1] - pos[0] != sites.size - 1:
        mu, tr = _eigen_poles(h0, diags, z, sites, d)
    else:
        mu, tr = _schur_poles(h0, ar, z, path, int(pos[0]), int(pos[-1]), scale)
    gap = np.abs(np.sum(1.0 / (d[:, None, None] - mu), axis=-1) - tr)
    _check_residual(
        (gap * z.imag**2 / sites.size).ravel(), scale.ravel(), "block trace"
    )
    return mu


def _schur_poles(h0, ar, z, path, p0, p1, scale):
    """mu and tr(P_B G) per lane and z by the two-sided Schur recursion.

    ar is the (lanes, n) real diagonal of h; B sits at path positions p0..p1.
    """
    n, r, lanes = len(path), p1 - p0 + 1, len(ar)
    ar, t2 = ar.T[path], (h0[path[:-1], path[1:]] * h0[path[1:], path[:-1]]).real
    seg = h0[np.ix_(path[p0 : p1 + 1], path[p0 : p1 + 1])]
    er, ay = z.real[:, None], -z.imag[:, None]
    mu = np.empty((lanes, z.size, r), dtype=np.complex128)
    tr = np.empty((lanes, z.size), dtype=np.complex128)
    step = max(1, _RECURSION_CELLS // z.size)
    for i in range(0, lanes, step):
        a = ar[:, i : i + step]
        res2 = np.zeros((z.size, a.shape[1]))
        left = _schur_pivots(a[: p1 + 1], t2, z, res2)
        sl = {k: s for k, s in enumerate(left) if k >= p0 - 1}
        right = _schur_pivots(a[::-1][: n - p0], t2[::-1], z, res2)
        sr = {n - 1 - j: s for j, s in enumerate(right) if n - 1 - j <= p1 + 1}
        trace = np.zeros((2, *res2.shape))
        for p in range(p0, p1 + 1):
            (lx, ly), (rx, ry), ax = sl[p], sr[p], a[p] - er
            sx, sy = lx + rx - ax, ly + ry - ay
            dx, dy = sx - lx - rx + ax, sy - ly - ry + ay
            np.maximum(res2, dx * dx + dy * dy, out=res2)
            r2 = sx * sx + sy * sy
            trace[0] += sx / r2
            trace[1] -= sy / r2
        _check_residual(np.sqrt(res2).T.ravel(), scale[i : i + step].ravel())
        # W = z - h0[B, B] plus |t|^2 / s from the pivots on either side of B
        sig_l = t2[p0 - 1] / (sl[p0 - 1][0] + 1j * sl[p0 - 1][1]) if p0 else 0.0
        sig_r = t2[p1] / (sr[p1 + 1][0] + 1j * sr[p1 + 1][1]) if p1 < n - 1 else 0.0
        if r == 1:
            w = (z[:, None] - seg[0, 0] + sig_l + sig_r)[..., None]
        else:
            w = np.empty((*res2.shape, r, r), dtype=np.complex128)
            w[...] = z[:, None, None, None] * np.eye(r) - seg
            w[..., 0, 0] += sig_l
            w[..., -1, -1] += sig_r
            w = np.linalg.eigvals(w)
        mu[i : i + step] = w.transpose(1, 0, 2)
        tr[i : i + step].real = trace[0].T
        tr[i : i + step].imag = trace[1].T
    return mu, tr


def _eigen_poles(h0, diags, z, sites, d):
    """mu and tr(P_B G) per lane and z from one eigendecomposition per lane."""
    n = len(h0)
    mu = np.empty((len(diags), z.size, sites.size), dtype=np.complex128)
    tr = np.empty((len(diags), z.size), dtype=np.complex128)
    for lane, dl in enumerate(diags):
        h = h0.copy()
        h[np.arange(n), np.arange(n)] += dl
        evals, vecs = np.linalg.eigh(h)
        vb = vecs[sites]
        # P_B G P_B = V_B diag(1 / (E - z)) V_B^*, one r x r matrix per z;
        # each entry is summed along its own contiguous row, so its bytes do
        # not depend on how many z share the call
        outer = vb[:, None, :] * vb.conj()[None, :, :]
        g = np.sum(outer * (1.0 / (evals - z[:, None]))[:, None, None, :], axis=-1)
        tr[lane] = np.trace(g, axis1=1, axis2=2)
        g = g[..., 0] if sites.size == 1 else np.linalg.eigvals(g)
        mu[lane] = d[lane] - 1.0 / g
    return mu, tr


def eigen_weights(h: np.ndarray, block_sites: Sequence[int]):
    """(eigenvalues, tr(P psi psi*) weights) for the block projection P.

    Shared workhorse: traces of functions of h against P are then plain
    weighted sums over the spectrum.
    """
    evals, evecs = np.linalg.eigh(np.asarray(h))
    idx = np.asarray(block_sites, dtype=np.int64)
    weights = np.sum(np.abs(evecs[idx, :]) ** 2, axis=0)
    return evals, weights
