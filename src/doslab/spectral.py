"""Sparse resolvent columns, nested-prefix resolvent traces, probe-block
coupling poles and spectral weights.

Everything here is exact linear algebra at desk scale (dimension a few
thousand at most); statistical estimation lives in `montecarlo`.  On a chain
the nested-prefix traces (outward bordering) and the coupling poles (a
two-sided Schur recursion) take O(n) sweeps over all lanes of a chunk; one
test, chain_plan, decides for both whether a volume is a chain, and zero
hopping is one.  Every LU factorization here is SuperLU's, through _gstrf.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Sequence

import numpy as np

_DENSE_DIMENSION_CAP = 4096
_RESIDUAL_REL_TOL = 1e-10
# most lanes x z values per pass of the two-sided Schur recursion: a chunk
# of 256 samples at up to 64 z values is one pass, whose (z, lanes) arrays
# take at most 128 KB each and of which about 15 are live at the peak
_RECURSION_CELLS = 1 << 14


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


def off_diagonal_row_sums(h0) -> np.ndarray:
    """sum_j |h0_ij| - |h0_ii| for each row i: h0's share of every lane's
    ||h||_inf, in O(n^2)."""
    return np.abs(h0).sum(axis=1) - np.abs(np.diagonal(h0))


def _inf_norms(h0, diagonals, row_sums=None):
    """||h||_inf of each lane h = h0 off its diagonal, with diagonals[lane] on
    it; row_sums, if given, is off_diagonal_row_sums(h0)."""
    off = off_diagonal_row_sums(h0) if row_sums is None else row_sums
    return np.max(off + np.abs(diagonals), axis=1)


def _as_z(z) -> complex:
    zc = complex(z)
    if not zc.imag > 0.0:
        raise ValueError(f"spectral parameter needs positive imaginary part, got {zc}")
    return zc


def _superlu():
    """scipy's SuperLU extension, loaded by file without the scipy.sparse package,
    whose imports would dominate start-up; scipy.sparse.linalg reuses it."""
    import scipy

    name = "scipy.sparse.linalg._dsolve._superlu"
    if name in sys.modules:
        return sys.modules[name]
    where = f"{scipy.__path__[0]}/sparse/linalg/_dsolve"
    spec = PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no _superlu extension in {where}")
    sys.modules[name] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gstrf(data, indices, indptr, ilu: bool, construct=None, **options):
    # diagonal pivots as splu and spilu pass them; .L and .U only from construct
    opts = {"DiagPivotThresh": 0.0, "SymmetricMode": True, **options}
    return _superlu().gstrf(len(indptr) - 1, len(data), data, indices, indptr,
                            csc_construct_func=construct, ilu=ilu, options=opts)


def _csc_product(csc, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """M v, or M^T v if transpose, for the CSC matrix M = (data, indices,
    indptr), no column of which is empty, and the (n, k) array v; entries
    past indptr[-1] are not read, and each sum runs in entry order."""
    data, indices, indptr = csc
    data, indices = data[: indptr[-1]], indices[: indptr[-1]]
    if transpose:
        return np.add.reduceat(data[:, None] * v[indices], indptr[:-1], axis=0)
    column = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    out = np.zeros(v.shape, dtype=np.complex128, order="F")
    for j in range(v.shape[1]):
        np.add.at(out[:, j], indices, data * v[column, j])
    return out


def _csc(rows, cols, vals, n: int):
    """indptr, indices, data of the n x n matrix with these entries, duplicates
    summed, and the index of each column's diagonal entry, which must exist."""
    key = cols * n + rows
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    key = key[order][first]
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(np.intc)
    diag = np.searchsorted(key, np.arange(n) * (n + 1))
    return indptr, (key % n).astype(np.intc), np.add.reduceat(vals[order], first), diag


class CscPattern:
    """Compressed-column pattern of an n x n matrix, every diagonal entry stored.

    Built once from (rows, cols, vals) entries, duplicates summed.  The
    fill-reducing order of the factorization depends on the pattern alone,
    so it is computed here, once: SuperLU's minimum-degree order on the
    pattern of A^T + A, from an incomplete gstrf.  The pattern and data,
    rows sorted in each column, are stored in that order, as P a P^T, with
    site i in position _position[i].  data[diag[i]] is the diagonal entry of
    site i, so a shift or a disorder draw touches only the entries data[diag].

    A pattern serves one caller at a time: resolvent_columns writes every
    factorization's input into the one shared array _shifted, so two
    threads on one pattern corrupt each other's solves (the residual check
    then fails).  A forked process holds its own copy and may use it freely.
    """

    def __init__(self, rows, cols, vals, n: int):
        ar = np.arange(n)
        rows, cols = np.concatenate([rows, ar]), np.concatenate([cols, ar])
        vals = np.concatenate([vals, np.zeros(n)])
        # any matrix with this pattern yields the order; a diagonally
        # dominant one factors without breakdown, and an incomplete factor,
        # which runs the same ordering step, costs a third of a complete one
        indptr, indices, _, diag = _csc(rows, cols, vals, n)
        ones = np.ones(len(indices))
        ones[diag] = np.diff(indptr) + 1.0
        lu = _gstrf(ones, indices, indptr, True, ILU_DropTol=0.9, ILU_FillFactor=1.0,
                    ColPerm="MMD_AT_PLUS_A")
        # perm_c[k] is the position of site k
        pos = self._position = lu.perm_c
        self.indptr, self.indices, self.data, diag = _csc(pos[rows], pos[cols], vals, n)
        self.diag = diag[pos]
        # the complex data that each factorization overwrites
        self._shifted = np.zeros(len(self.data), dtype=np.complex128)

    def resolvent_columns(self, data: np.ndarray, z, columns) -> np.ndarray:
        """Columns of (a - z)^{-1}, a the Hermitian matrix with this pattern and data.

        One SuperLU factorization of P (a - z) P^T, in the stored order and
        with pivots on the diagonal, serves every column.  No pivot can
        vanish: every leading block of P (a - z) P^T has imaginary part
        <= -Im z, so every pivot has modulus >= Im z.  Each column is checked
        against ||(a - z) x - e|| <= 1e-10 * (||a||_inf + |z|), which a failed
        factorization or solve fails too.
        """
        zc, n = _as_z(z), len(self.diag)
        cols = np.asarray(columns, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("column index outside the matrix")
        scale = np.bincount(self.indices, np.abs(data), n).max(initial=0.0) + abs(zc)
        a = self._shifted
        a[:] = data
        a[self.diag] -= zc
        # right-hand sides and solutions in the stored order
        rhs = np.zeros((n, cols.size), dtype=np.complex128)
        rhs[self._position[cols], np.arange(cols.size)] = 1.0
        try:
            y = _gstrf(a, self.indices, self.indptr, False, ColPerm="NATURAL").solve(rhs)
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            y = np.full_like(rhs, np.nan)
        res = _csc_product((a, self.indices, self.indptr), y) - rhs
        resid = np.linalg.norm(res, axis=0)
        _check_residual(resid, np.full(resid.shape, scale), "resolvent solve")
        return y[self._position]


def _check_residual(resid: np.ndarray, scale: np.ndarray, what: str = "LU") -> None:
    """Raise unless every lane meets resid <= 1e-10 * scale; NaN fails."""
    bad = np.flatnonzero(~(resid <= _RESIDUAL_REL_TOL * scale))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"{what} residual {resid[i]:.3e} exceeds "
            f"{_RESIDUAL_REL_TOL:.0e} * {scale[i]:.3e}"
        )


def _natural_lu_prefix_traces(h0, diags, zc, sites, m):
    """tr(P G_n) for n = 1..m and each lane, from one SuperLU factorization
    A = L U of the lane's A = h[:m, :m] - z in natural order, and its residual.

    With x = A^-1 e and y = A^-T e for the block sites' unit columns e,
    L^-1 e = U x and U^-T e = L^T y.  The residuals are those of A x = e and
    of the triangular L (U x) = e and U^T (L^T y) = e, which bound every
    leading block's at once.
    """
    ar = np.arange(m)
    rows, cols = np.nonzero((h0[:m, :m] != 0) | np.eye(m, dtype=bool))
    indptr, indices, data, diag = _csc(rows, cols, h0[rows, cols], m)
    e = np.zeros((m, sites.size), dtype=np.complex128)
    e[sites, np.arange(sites.size)] = 1.0
    tr = np.full((len(diags), m), np.nan, dtype=np.complex128)
    resid = np.full(len(diags), np.nan)
    a = np.empty(len(data), dtype=np.complex128)
    for lane, d in enumerate(diags):
        a[:] = data
        a[diag] += d[:m] - zc
        try:
            lu = _gstrf(a, indices, indptr, False, lambda csc, shape: csc, ColPerm="NATURAL")
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            continue
        # SymmetricMode skips SuperLU's postorder of the elimination tree
        if not (np.array_equal(lu.perm_c, ar) and np.array_equal(lu.perm_r, ar)):
            raise RuntimeError("SuperLU reordered a natural-order factorization")
        lower, upper = lu.L, lu.U
        x, y = lu.solve(e), lu.solve(e, trans="T")
        l_inv, u_inv = _csc_product(upper, x), _csc_product(lower, y, transpose=True)
        res = np.hstack([_csc_product((a, indices, indptr), x), _csc_product(lower, l_inv),
                         _csc_product(upper, u_inv, transpose=True)]) - np.tile(e, 3)
        resid[lane] = np.linalg.norm(res, axis=0).max()
        tr[lane] = np.cumsum(np.sum(u_inv * l_inv, axis=1))
    return tr, resid


def chain_plan(h0: np.ndarray, m: int | None = None):
    """The outward sweep of the leading m sites of h0 (all of them by default),
    or None where h0 is not a chain there.

    h0 is a chain when each site couples to at most one earlier site, a
    current end of the volume: the ends start at site 0, and site q replaces
    the end e = ends[j] it attaches to (the first one if none).  Every chain
    in shell order (0, +1, -1, ...), every prefix of one, and zero hopping
    qualify.  The plan is (j, |h_qe|) for q = 1..m-1; the sites attached to
    each end form its arm, so the volume is one path, its arms meeting at 0.
    This one test decides both chain routes: the outward sweep of
    nested_block_traces and the Schur recursion of block_coupling_poles.
    """
    h0 = np.asarray(h0)
    m = len(h0) if m is None else m
    off = h0[:m, :m] != 0
    later, earlier = np.nonzero(np.tril(off | off.T, -1))
    hop = np.abs(h0[later, earlier]).tolist()
    attach = dict(zip(later.tolist(), zip(earlier.tolist(), hop)))
    if len(attach) < later.size:
        return None
    plan, ends = [], [0, 0]
    for q in range(1, m):
        e, t = attach.get(q, (ends[0], 0.0))
        if e not in ends:
            return None
        j = ends.index(e)
        plan.append((j, t))
        ends[j] = q
    return plan


def _outward_prefix_traces(h0, plan, diags, zc, sites):
    """tr(P G_n) for n = 1..m and every lane by the outward sweep of plan,
    the chain_plan of the leading m sites.

    On a chain (chain_plan) the coupling graph is a path, so a diagonal
    unitary gauge makes every coupling |h_xy| and leaves the diagonal of G
    alone: the sweep runs on the real symmetric |h0|, where G is complex
    symmetric.  Site q, attached to end e with t = |h_qe|, borders the
    volume by a rank-one Schur step with pivot s = (h_qq - z) - t^2 G(e, e):

        G'(x, y) = G(x, y) + t^2 G(x, e) G(e, y) / s,
        G'(x, q) = -t G(x, e) / s,  G'(q, q) = 1 / s,

    so only G between P and the ends, and between the ends, is carried, and
    tr(P G) gains t^2 sum_{x in P} G(x, e)^2 / s, plus 1 / s if q is in P.
    A lane's residual is its largest |s + t^2 G(e, e) - (h_qq - z)|.
    """
    m = len(plan) + 1
    lanes, r = len(diags), sites.size
    slot = {p: k for k, p in enumerate(sites.tolist())}
    az = np.add(np.diagonal(h0)[:m, None], diags[:, :m].T, order="C") - zc
    piv, tg = az.copy(), np.zeros_like(az)
    # inc[q, k] is P_k's share of what site q adds to the trace
    inc = np.zeros((m, r, lanes), dtype=np.complex128)
    # col[j][k] = G(P_k, e_j), diag[j] = G(e_j, e_j), cross = G(e_0, e_1): one
    # flat array of lanes each, so every product takes the same loop
    # whatever the number of lanes, and a lane's bytes do not depend on it
    inv = 1.0 / az[0]
    col = [[np.zeros(lanes, dtype=np.complex128)] * r for _ in range(2)]
    diag, cross = [inv, inv], inv
    if 0 in slot:
        col[0][slot[0]] = col[1][slot[0]] = inc[0, slot[0]] = inv
    for q, (j, t) in enumerate(plan, start=1):
        o, t2 = 1 - j, t * t
        np.multiply(diag[j], t2, out=tg[q])
        inv = 1.0 / np.subtract(az[q], tg[q], out=piv[q])
        f = t2 * inv
        for x, out in zip(col[j], inc[q]):
            np.multiply(np.square(x), f, out=out)
        c = f * cross
        col[o] = [x + y * c for x, y in zip(col[o], col[j])]
        diag[o] = diag[o] + cross * c
        scale_j = -t * inv
        col[j] = [x * scale_j for x in col[j]]
        cross, diag[j] = cross * scale_j, inv
        if q in slot:
            k = slot[q]
            col[j][k], col[o][k], inc[q, k] = inv, cross, inv
    # one running sum, term by term: no reduction whose order could depend
    # on the number of lanes
    running = inc.reshape(-1, lanes)
    tr = np.cumsum(running, axis=0, out=running)[r - 1 :: r].T
    return tr, np.abs(piv + tg - az).max(axis=0)


def nested_block_traces(
    h0: np.ndarray,
    diagonals: np.ndarray,
    z,
    block_sites: Sequence[int],
    prefix_sizes: Sequence[int],
    *, _plan=None, _row_sums=None,
) -> np.ndarray:
    """tr(P (h[:n, :n] - z)^{-1}) per lane for each leading size n of prefix_sizes.

    Lane i is h = h0 + diag(diagonals[i]); the result is (lanes, len(sizes)).
    P projects onto block_sites, which must lie inside the smallest prefix.
    One pass over the largest prefix serves every smaller one.  _plan, if
    given, is chain_plan(h0) of a chain that the caller keeps, found once,
    and _row_sums, if given, off_diagonal_row_sums(h0).

    On a chain (chain_plan: every chain and prefix of one, ordered 0, +1,
    -1, ..., any block rank, phase or zero hopping), all lanes share one
    outward bordering sweep in O(n) (_outward_prefix_traces), whose pivots
    are checked.  Otherwise (the 2-d and 3-d boxes) each lane takes one
    SuperLU factorization of h - z in natural order with diagonal pivots
    (_natural_lu_prefix_traces): the leading n x n block of L U is L_n U_n,
    and the leading blocks of the triangular inverses are the inverses of
    the leading blocks, so

        (h_n - z)^{-1}_{ii} = sum_{j < n} (U^{-1})_{ij} (L^{-1})_{ji}

    and each trace is one entry of a cumulative sum over j; the residuals of
    its solves and triangular systems are checked.  No pivot of either route
    can vanish: every leading block and Schur complement of h - z has
    imaginary part <= -Im z, so every pivot has modulus >= Im z.  Each
    lane's residual must be <= 1e-10 * (||h||_inf + |z|); NaN fails.
    """
    zc = _as_z(z)
    h0, n, diags = _lane_stack(h0, diagonals)
    sizes = np.asarray(prefix_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.max() > n:
        raise ValueError(f"prefix sizes must be a non-empty list in [1, {n}]")
    sites = np.asarray(block_sites, dtype=np.int64)
    distinct = len(set(sites.tolist())) == sites.size
    if sites.size == 0 or not distinct or sites.min() < 0 or sites.max() >= sizes.min():
        raise ValueError(
            "block sites must be non-empty, distinct and lie inside the smallest "
            f"prefix of {sizes.min()} sites"
        )
    m = int(sizes.max())
    plan = _plan or chain_plan(h0, m)
    if plan is not None:
        tr, resid = _outward_prefix_traces(h0, plan, diags, zc, sites)
    else:
        tr, resid = _natural_lu_prefix_traces(h0, diags, zc, sites, m)
    _check_residual(
        resid, _inf_norms(h0, np.diagonal(h0) + diags, _row_sums) + abs(zc)
    )
    return tr[:, sizes - 1]


def _schur_pivots(ar, t2, z, res2):
    """Yield the pivots s_k = a_k - t2[k-1] / s_{k-1}, a_k = ar[k] - z, in order.

    ar is the (n, lanes) real diagonal in sweep order and t2 the n - 1
    couplings |h_{k-1,k}|^2.  Each s_k is a (Re, Im) pair of (z, lanes)
    arrays in real arithmetic, so every (z, lane) value is computed on its
    own; |s_k + t2[k-1] / s_{k-1} - a_k|^2 is folded into res2.
    """
    er, ay = z.real[:, None], -z.imag[:, None]
    # three work arrays reused across steps, only the yielded pivots are new:
    # u, v hold (Re, -Im) 1 / s_{k-1}, then times t2[k-1]; w Re a_k, then |s_k|^2
    u, v, w = np.zeros(res2.shape), np.zeros(res2.shape), np.empty(res2.shape)
    for k in range(len(ar)):
        t = t2[k - 1] if k else 0.0
        u *= t
        v *= t
        np.subtract(ar[k], er, out=w)
        sx, sy = w - u, ay + v
        # (sx + u - Re a_k)^2 + (sy - v - ay)^2, in the buffers of u and v
        u += sx
        u -= w
        u *= u
        np.subtract(sy, v, out=v)
        v -= ay
        v *= v
        u += v
        np.maximum(res2, u, out=res2)
        yield sx, sy
        np.multiply(sx, sx, out=w)
        np.multiply(sy, sy, out=v)
        w += v
        np.divide(sx, w, out=u)
        np.divide(sy, w, out=v)


def block_coupling_poles(
    h0: np.ndarray,
    diagonals: np.ndarray,
    zs,
    block_sites: Sequence[int],
    *, _plan=None, _row_sums=None,
) -> np.ndarray:
    """(lanes, zs.size, r) eigenvalues mu_k of W(z) for the probe block B of r sites.

    Lane i is h = h0 + diag(diagonals[i]), whose diagonal takes one value d
    on B: the block's coupling.  By the Schur complement
    P_B (h - z)^{-1} P_B = (d - W)^{-1} with W = z - h0[B, B] + Sigma(z), and
    Sigma does not depend on d, so tr(P_B (h - z)^{-1}) = sum_k 1/(d - mu_k)
    at every d.  The numerical range of W lies in Im >= Im z, and so does
    every mu_k.  z runs over zs flattened.  _plan, if given, is
    chain_plan(h0) of a chain that the caller keeps, found once, and
    _row_sums, if given, off_diagonal_row_sums(h0).

    When h0 is a chain (chain_plan) that visits B's sites in a row (every
    1-d box and prefix of one, any block rank and phase, and zero hopping in
    any dimension), a left Schur recursion s_k = a_k - |h_{k-1,k}|^2 / s_{k-1},
    a_k = h_kk - z, along its path up to the last block site and its mirror
    from the right end down to the first serve all lanes and z of a pass.  W
    is then h0's r x r segment with |t|^2 / s added from the pivot just
    before B and from the one just after it; for r = 1 it is the scalar
    z - h0_pp + Sigma_L + Sigma_R, so zero hopping gives mu = z exactly.
    Every pivot has imaginary part <= -Im z, so none vanishes, and the
    diagonal of L D U - (h - z) rebuilt from each pivot is checked against
    1e-10 * (||h||_inf + |z|) per lane and z.
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
    distinct = len(set(sites.tolist())) == sites.size
    if sites.size == 0 or not distinct or sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"block sites must be non-empty, distinct and lie in [0, {n})")
    d = diags[:, sites[0]]
    if np.any(diags[:, sites] != d[:, None]):
        raise ValueError("each lane's diagonal must take one value on the block sites")
    ar = np.diagonal(h0).real + diags
    scale = _inf_norms(h0, ar, _row_sums)[:, None] + np.abs(z)
    segment = _schur_segment(_plan or chain_plan(h0), sites)
    if segment is None:
        mu, tr = _eigen_poles(h0, diags, z, sites, d)
    else:
        mu, tr = _schur_poles(h0, ar, z, *segment, scale)
    gap = np.abs(np.sum(1.0 / (d[:, None, None] - mu), axis=-1) - tr)
    _check_residual(
        (gap * z.imag**2 / sites.size).ravel(), scale.ravel(), "block trace"
    )
    return mu


def _schur_segment(plan, sites):
    """(path, p0, p1): the sites of a chain in path order, with the block at
    path positions p0..p1, or None unless plan, the chain's chain_plan, is
    one and runs through the block's sites in a row.

    The path runs from the tip of one arm in to site 0 and out along the
    other, from the arm whose tip has the lower index (an empty arm's tip is
    site 0).  A block in the prefix of the enumeration is a run of it.
    """
    if plan is None:
        return None
    arms = ([], [])
    for q, (j, _) in enumerate(plan, start=1):
        arms[j].append(q)
    first, other = sorted(arms, key=lambda arm: arm[-1] if arm else 0)
    path = np.array(first[::-1] + [0] + other)
    pos = np.sort(np.argsort(path)[sites])
    if pos[-1] - pos[0] != sites.size - 1:
        return None
    return path, int(pos[0]), int(pos[-1])


def _schur_poles(h0, ar, z, path, p0, p1, scale):
    """mu and tr(P_B G) per lane and z by the two-sided Schur recursion.

    ar is the (lanes, n) real diagonal of h; B sits at path positions p0..p1.
    """
    n, r, lanes = len(path), p1 - p0 + 1, len(ar)
    ar, t2 = ar.T[path], (h0[path[:-1], path[1:]] * h0[path[1:], path[:-1]]).real
    seg = h0[np.ix_(path[p0 : p1 + 1], path[p0 : p1 + 1])]
    er, ay = z.real[:, None], -z.imag[:, None]
    mu = np.empty((lanes, z.size, r), dtype=np.complex128)
    tr = np.zeros((lanes, z.size), dtype=np.complex128)
    step = max(1, _RECURSION_CELLS // z.size)
    for i in range(0, lanes, step):
        a = ar[:, i : i + step]
        res2 = np.zeros((z.size, a.shape[1]))
        left = _schur_pivots(a[: p1 + 1], t2, z, res2)
        sl = {k: s for k, s in enumerate(left) if k >= p0 - 1}
        right = _schur_pivots(a[::-1][: n - p0], t2[::-1], z, res2)
        sr = {n - 1 - j: s for j, s in enumerate(right) if n - 1 - j <= p1 + 1}
        # (z, lanes) views of this pass's traces and poles
        trace, w = tr[i : i + step].T, mu[i : i + step].transpose(1, 0, 2)
        for p in range(p0, p1 + 1):
            (lx, ly), (rx, ry), ax = sl.pop(p), sr.pop(p), a[p] - er
            sx, sy = lx + rx - ax, ly + ry - ay
            np.maximum(res2, (sx - lx - rx + ax) ** 2 + (sy - ly - ry + ay) ** 2,
                       out=res2)
            r2 = sx * sx + sy * sy
            trace.real += sx / r2
            trace.imag -= sy / r2
        # the loop's (z, lanes) arrays go before W's
        del lx, ly, rx, ry, ax, sx, sy, r2
        _check_residual(np.sqrt(res2).T.ravel(), scale[i : i + step].ravel())
        # W = z - h0[B, B] plus |t|^2 / s from the pivots on either side of B
        sig_l = t2[p0 - 1] / (sl[p0 - 1][0] + 1j * sl[p0 - 1][1]) if p0 else 0.0
        sig_r = t2[p1] / (sr[p1 + 1][0] + 1j * sr[p1 + 1][1]) if p1 < n - 1 else 0.0
        wb = np.empty((*res2.shape, r, r), dtype=np.complex128)
        wb[...] = z[:, None, None, None] * np.eye(r) - seg
        wb[..., 0, 0] += sig_l
        wb[..., -1, -1] += sig_r
        w[...] = wb[..., 0] if r == 1 else np.linalg.eigvals(wb)
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
