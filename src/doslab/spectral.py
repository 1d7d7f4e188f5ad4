"""Sparse resolvent columns, nested-prefix resolvent traces, probe-block
coupling poles and spectral weights.

Everything here is exact linear algebra at desk scale (dimension a few
thousand at most); statistical estimation lives in `montecarlo`.  h0 comes
as its hopping entries (rows, cols, vals), each with its conjugate mirror,
as FreeOperatorSpec.entries returns them; n is the lanes' width.  On a chain
the nested-prefix traces (outward bordering) and the coupling poles (a
two-sided Schur recursion) take O(n) sweeps over all lanes of a chunk; one
test, chain_plan, decides for both in O(nnz) whether a volume is a chain,
and zero hopping is one.  Every LU factorization here is SuperLU's, through
_gstrf; only the eigh route assembles a dense h0, once per call.
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


def _lane_stack(hopping, diagonals):
    """h0's hopping entries, checked to lie off the diagonal and in [0, n),
    the lanes' width n, and diagonals as (lanes, n) floats."""
    diags = np.asarray(diagonals, dtype=float)
    if diags.ndim != 2:
        raise ValueError(f"diagonals must be a (lanes, n) stack, got shape {diags.shape}")
    n = diags.shape[1]
    if n > _DENSE_DIMENSION_CAP:
        raise ValueError(f"dimension {n} above the dense cap {_DENSE_DIMENSION_CAP}")
    rows, cols, vals = (np.asarray(a) for a in hopping)
    ends = np.concatenate([rows, cols])
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise ValueError(f"hopping entry outside [0, {n})")
    if np.any(rows == cols):
        raise ValueError("hopping entry on the diagonal: it belongs to the diagonals")
    return (rows, cols, vals), n, diags


def _block_sites(block_sites, n: int, where: str) -> np.ndarray:
    """block_sites as an array, or ValueError unless non-empty, distinct and in [0, n)."""
    sites = np.asarray(block_sites, dtype=np.int64)
    distinct = len(set(sites.tolist())) == sites.size
    if sites.size == 0 or not distinct or sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"block sites must be non-empty, distinct and lie {where.format(n)}")
    return sites


def _inf_norms(hopping, diags):
    """||h||_inf of each lane h = h0 + diag(diags[lane]), in O(nnz)."""
    rows, _, vals = hopping
    return np.max(np.bincount(rows, np.abs(vals), diags.shape[1]) + np.abs(diags), axis=1)


def _as_zs(zs) -> np.ndarray:
    """zs flattened to complex, or ValueError unless every Im z > 0."""
    z = np.ravel(np.asarray(zs, dtype=complex))
    if not np.all(z.imag > 0.0):
        raise ValueError(f"spectral parameters need a positive imaginary part, got {z}")
    return z


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
    """indptr, indices, data of the n x n matrix with these entries and a zero
    on every diagonal cell, duplicates summed, and the index of each column's
    diagonal entry."""
    ar = np.arange(n)
    rows, cols = np.concatenate([rows, ar]), np.concatenate([cols, ar])
    vals = np.concatenate([vals, np.zeros(n)])
    key = cols * n + rows
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    key = key[order][first]
    indptr = np.searchsorted(key, np.arange(n + 1) * n).astype(np.intc)
    diag = np.searchsorted(key, np.arange(n) * (n + 1))
    return indptr, (key % n).astype(np.intc), np.add.reduceat(vals[order], first), diag


def _fill_order(hopping, n: int) -> np.ndarray:
    """SuperLU's minimum-degree order on the pattern of A^T + A, A h0's
    entries plus every diagonal cell, from an incomplete gstrf: entry k is
    the position of site k.

    The order depends on the pattern alone, so any matrix with it yields the
    order; a diagonally dominant one factors without breakdown, and an
    incomplete factor, which runs the same ordering step, costs a third of a
    complete one.
    """
    indptr, indices, _, diag = _csc(*hopping, n)
    ones = np.ones(len(indices))
    ones[diag] = np.diff(indptr) + 1.0
    lu = _gstrf(ones, indices, indptr, True, ILU_DropTol=0.9, ILU_FillFactor=1.0,
                ColPerm="MMD_AT_PLUS_A")
    return lu.perm_c


def resolvent_columns(hopping, diagonals: np.ndarray, zs, columns, rows) -> np.ndarray:
    """(lanes, zs.size, len(rows), len(columns)) entries G(rows, columns) of
    G = (h - z)^{-1}, for each lane h = h0 + diag(diagonals[lane]), h0 given
    by its hopping entries, and each z of zs flattened.

    The fill-reducing order is computed once per call (_fill_order); each
    lane and z takes one SuperLU factorization of P (h - z) P^T in that
    order, with pivots on the diagonal, which serves every column.  No pivot
    can vanish: every leading block of P (h - z) P^T has imaginary part
    <= -Im z, so every pivot has modulus >= Im z.  Each column is checked
    against ||(h - z) x - e|| <= 1e-10 * (||h||_inf + |z|), which a failed
    factorization or solve fails too.
    """
    hopping, n, diags = _lane_stack(hopping, diagonals)
    z = _as_zs(zs)
    cols, rows = (np.asarray(a, dtype=np.int64) for a in (columns, rows))
    if any(a.size and (a.min() < 0 or a.max() >= n) for a in (cols, rows)):
        raise ValueError(f"row or column outside [0, {n})")
    pos = _fill_order(hopping, n)
    i, j, vals = hopping
    indptr, indices, data, diag = _csc(pos[i], pos[j], vals, n)
    diag = diag[pos]
    scale = _inf_norms(hopping, diags)[:, None] + np.abs(z)
    # right-hand sides and solutions in the factored order
    rhs = np.zeros((n, cols.size), dtype=np.complex128)
    rhs[pos[cols], np.arange(cols.size)] = 1.0
    out = np.empty((len(diags), z.size, rows.size, cols.size), dtype=np.complex128)
    a = np.empty(len(data), dtype=np.complex128)
    for lane, d in enumerate(diags):
        for k, zc in enumerate(z):
            a[:] = data
            a[diag] = d - zc
            try:
                y = _gstrf(a, indices, indptr, False, ColPerm="NATURAL").solve(rhs)
            except RuntimeError:  # SuperLU: "Factor is exactly singular"
                y = np.full_like(rhs, np.nan)
            resid = np.linalg.norm(_csc_product((a, indices, indptr), y) - rhs, axis=0)
            _check_residual(resid, np.full(resid.shape, scale[lane, k]), "resolvent solve")
            out[lane, k] = y[pos[rows]]
    return out


def _check_residual(resid: np.ndarray, scale: np.ndarray, what: str = "LU") -> None:
    """Raise unless every lane meets resid <= 1e-10 * scale; NaN fails."""
    bad = np.flatnonzero(~(resid <= _RESIDUAL_REL_TOL * scale))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"{what} residual {resid[i]:.3e} exceeds "
            f"{_RESIDUAL_REL_TOL:.0e} * {scale[i]:.3e}"
        )


def _natural_lu_prefix_traces(hopping, diags, zc, sites, m):
    """tr(P G_n) for n = 1..m and each lane, from one SuperLU factorization
    A = L U of the lane's A = h[:m, :m] - z in natural order, and its residual.

    With x = A^-1 e and y = A^-T e for the block sites' unit columns e,
    L^-1 e = U x and U^-T e = L^T y.  The residuals are those of A x = e and
    of the triangular L (U x) = e and U^T (L^T y) = e, which bound every
    leading block's at once.
    """
    ar = np.arange(m)
    rows, cols, vals = hopping
    inside = (rows < m) & (cols < m)
    indptr, indices, data, diag = _csc(rows[inside], cols[inside], vals[inside], m)
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


def chain_plan(hopping, m: int):
    """The outward sweep of the leading m sites of h0, or None where h0 is not
    a chain there; hopping is h0's (rows, cols, vals) entries, read in O(nnz).

    h0 is a chain when each site couples to at most one earlier site, a
    current end of the volume: the ends start at site 0, and site q replaces
    the end e = ends[j] it attaches to (the first one if none).  Every chain
    in shell order (0, +1, -1, ...), every prefix of one, and zero hopping
    qualify.  The plan is (j, |h_qe|) for q = 1..m-1; the sites attached to
    each end form its arm, so the volume is one path, its arms meeting at 0.
    This one test decides both chain routes: the outward sweep of
    nested_block_traces and the Schur recursion of block_coupling_poles.
    """
    rows, cols, vals = hopping
    lower = (rows > cols) & (rows < m) & (vals != 0)
    later = rows[lower]
    if np.bincount(later, minlength=1).max() > 1:
        return None
    hop = np.abs(vals[lower]).tolist()
    attach = dict(zip(later.tolist(), zip(cols[lower].tolist(), hop)))
    plan, ends = [], [0, 0]
    for q in range(1, m):
        e, t = attach.get(q, (ends[0], 0.0))
        if e not in ends:
            return None
        j = ends.index(e)
        plan.append((j, t))
        ends[j] = q
    return plan


def _outward_prefix_traces(plan, diags, zc, sites):
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
    lanes = len(diags)
    slot = {p: k for k, p in enumerate(sites.tolist())}
    az = diags[:, 0] - zc
    # col[j][k] = G(P_k, e_j), diag[j] = G(e_j, e_j), cross = G(e_0, e_1): one
    # flat array of lanes each, so every product takes the same loop
    # whatever the number of lanes, and a lane's bytes do not depend on it
    inv, zero = 1.0 / az, np.zeros(lanes, dtype=np.complex128)
    col = [[zero] * sites.size for _ in range(2)]
    diag, cross = [inv, inv], inv
    # the trace as one running sum, term by term in (site, P_k) order: no
    # reduction whose order could depend on the number of lanes
    tr = np.empty((m, lanes), dtype=np.complex128)
    tr[0] = running = inv if 0 in slot else zero
    if 0 in slot:
        col[0][slot[0]] = col[1][slot[0]] = inv
    # site 0's pivot is h_00 - z itself: residual 0, or NaN
    resid = np.abs(az - az)
    for q, (j, t) in enumerate(plan, start=1):
        o, t2 = 1 - j, t * t
        az, tg = diags[:, q] - zc, diag[j] * t2
        piv = az - tg
        inv = 1.0 / piv
        np.maximum(resid, np.abs(piv + tg - az), out=resid)
        f = t2 * inv
        # P_k's share of what site q adds to the trace
        for k, x in enumerate(col[j]):
            running = running + (inv if slot.get(q) == k else np.square(x) * f)
        tr[q] = running
        c = f * cross
        col[o] = [x + y * c for x, y in zip(col[o], col[j])]
        diag[o] = diag[o] + cross * c
        scale_j = -t * inv
        col[j] = [x * scale_j for x in col[j]]
        cross, diag[j] = cross * scale_j, inv
        if q in slot:
            k = slot[q]
            col[j][k], col[o][k] = inv, cross
    return tr.T, resid


def nested_block_traces(
    hopping,
    diagonals: np.ndarray,
    z,
    block_sites: Sequence[int],
    prefix_sizes: Sequence[int],
) -> np.ndarray:
    """tr(P (h[:n, :n] - z)^{-1}) per lane for each leading size n of prefix_sizes.

    Lane i is h = h0 + diag(diagonals[i]), h0 given by its hopping entries;
    the result is (lanes, len(sizes)).  P projects onto block_sites, which
    must lie inside the smallest prefix.  One pass over the largest prefix
    serves every smaller one.

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
    (zc,) = _as_zs(z)
    hopping, n, diags = _lane_stack(hopping, diagonals)
    sizes = np.asarray(prefix_sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.max() > n:
        raise ValueError(f"prefix sizes must be a non-empty list in [1, {n}]")
    sites = _block_sites(block_sites, sizes.min(), "inside the smallest prefix of {} sites")
    m = int(sizes.max())
    plan = chain_plan(hopping, m)
    if plan is not None:
        tr, resid = _outward_prefix_traces(plan, diags, zc, sites)
    else:
        tr, resid = _natural_lu_prefix_traces(hopping, diags, zc, sites, m)
    _check_residual(resid, _inf_norms(hopping, diags) + abs(zc))
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
    hopping,
    diagonals: np.ndarray,
    zs,
    block_sites: Sequence[int],
) -> np.ndarray:
    """(lanes, zs.size, r) eigenvalues mu_k of W(z) for the probe block B of r sites.

    Lane i is h = h0 + diag(diagonals[i]), h0 given by its hopping entries,
    whose diagonal takes one value d on B: the block's coupling.  By the
    Schur complement P_B (h - z)^{-1} P_B = (d - W)^{-1} with
    W = z - h0[B, B] + Sigma(z), and Sigma does not depend on d, so
    tr(P_B (h - z)^{-1}) = sum_k 1/(d - mu_k) at every d.  The numerical
    range of W lies in Im >= Im z, and so does every mu_k.  z runs over zs
    flattened.

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
    hopping, n, diags = _lane_stack(hopping, diagonals)
    z = _as_zs(zs)
    sites = _block_sites(block_sites, n, "in [0, {})")
    d = diags[:, sites[0]]
    if np.any(diags[:, sites] != d[:, None]):
        raise ValueError("each lane's diagonal must take one value on the block sites")
    scale = _inf_norms(hopping, diags)[:, None] + np.abs(z)
    segment = _schur_segment(chain_plan(hopping, n), sites)
    if segment is None:
        mu, tr = _eigen_poles(hopping, diags, z, sites, d)
    else:
        mu, tr = _schur_poles(hopping, diags, z, *segment, scale)
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


def _schur_poles(hopping, ar, z, path, p0, p1, scale):
    """mu and tr(P_B G) per lane and z by the two-sided Schur recursion.

    ar is the (lanes, n) real diagonal of h; B sits at path positions p0..p1.
    """
    n, r, lanes = len(path), p1 - p0 + 1, len(ar)
    rows, cols, vals = hopping
    at = np.argsort(path)  # each site's position on the path
    pr, pc = at[rows], at[cols]
    # h0[path[k], path[k + 1]]; a chain couples path neighbours only
    fwd = pc == pr + 1
    ahead = np.zeros(n - 1, dtype=vals.dtype)
    ahead[pr[fwd]] = vals[fwd]
    ar, t2 = ar.T[path], (ahead * ahead.conj()).real
    # h0[B, B] in path order
    seg = np.zeros((r, r), dtype=vals.dtype)
    inside = (np.minimum(pr, pc) >= p0) & (np.maximum(pr, pc) <= p1)
    seg[pr[inside] - p0, pc[inside] - p0] = vals[inside]
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


def _lane_eigh(hopping, diags, sites):
    """Each lane's eigenvalues and block-site eigenvector rows, from one dense h0."""
    rows, cols, vals = hopping
    n = diags.shape[1]
    h0 = np.zeros((n, n), dtype=vals.dtype)
    h0[rows, cols] = vals
    for d in diags:
        h = h0.copy()
        h[np.arange(n), np.arange(n)] += d
        evals, vecs = np.linalg.eigh(h)
        yield evals, vecs[sites]


def _eigen_poles(hopping, diags, z, sites, d):
    """mu and tr(P_B G) per lane and z from one eigendecomposition per lane."""
    mu = np.empty((len(diags), z.size, sites.size), dtype=np.complex128)
    tr = np.empty((len(diags), z.size), dtype=np.complex128)
    for lane, (evals, vb) in enumerate(_lane_eigh(hopping, diags, sites)):
        # P_B G P_B = V_B diag(1 / (E - z)) V_B^*, one r x r matrix per z;
        # each entry is summed along its own contiguous row, so its bytes do
        # not depend on how many z share the call
        outer = vb[:, None, :] * vb.conj()[None, :, :]
        g = np.sum(outer * (1.0 / (evals - z[:, None]))[:, None, None, :], axis=-1)
        tr[lane] = np.trace(g, axis1=1, axis2=2)
        g = g[..., 0] if sites.size == 1 else np.linalg.eigvals(g)
        mu[lane] = d[lane] - 1.0 / g
    return mu, tr


def block_spectral_weights(hopping, diagonals: np.ndarray, block_sites: Sequence[int]):
    """(eigenvalues, tr(P psi psi*) weights) of each lane h = h0 + diag(diagonals[lane])
    for the block projection P, h0 given by its hopping entries; traces of
    functions of h against P are then plain weighted sums over a lane's
    spectrum.  One lane's eigenvectors are held at a time."""
    hopping, n, diags = _lane_stack(hopping, diagonals)
    sites = _block_sites(block_sites, n, "in [0, {})")
    lanes = _lane_eigh(hopping, diags, sites)
    return [(evals, np.sum(np.abs(vb) ** 2, axis=0)) for evals, vb in lanes]
