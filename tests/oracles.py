"""Reference implementations the tests hold the program against.

No `doslab run` command reaches any of these: each is a slower or more
literal route to a quantity the program computes another way (dense
assembly, a closed-form law, an exact per-sample derivative), kept here so a
test can compare two computations that share no kernel.  Import them as
`from oracles import ...`.
"""

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from doslab import montecarlo
from doslab.disorder import score_weights
from doslab.montecarlo import Estimate
from doslab.quadrature import panel_rule
from doslab.spectral import eigen_weights


def assemble_hamiltonian(model, omega: np.ndarray, n_prefix_sites: int) -> np.ndarray:
    """Dense finite-volume Hamiltonian on the leading n_prefix_sites sites.

    omega holds one coupling per block of the prefix; the prefix must align
    with block boundaries.  Entries must lie in the closed support [0, 1] of
    the single-site laws.
    """
    n_all = len(model.site_space)
    if not 1 <= n_prefix_sites <= n_all:
        raise ValueError(f"prefix size {n_prefix_sites} outside [1, {n_all}]")
    n_blocks = model.projections.blocks_for_prefix(n_prefix_sites)
    om = np.asarray(omega, dtype=float)
    if om.shape != (n_blocks,):
        raise ValueError(
            f"expected {n_blocks} block couplings for a {n_prefix_sites}-site prefix, "
            f"got shape {om.shape}"
        )
    if om.size and (om.min() < 0.0 or om.max() > 1.0):
        raise ValueError("disorder values must lie in the support [0, 1]")
    h = model.free.matrix(n_prefix_sites)
    sizes = model.projections.block_sizes()[:n_blocks]
    diag = np.repeat(om, sizes) * model.coupling
    h[np.arange(n_prefix_sites), np.arange(n_prefix_sites)] += diag
    return h


def site_distance(space, i: int, j: int) -> int:
    """Sup metric between two sites of a SiteSpace, by enumeration index."""
    return int(np.max(np.abs(space.coords[i] - space.coords[j])))


def cdf(rho, x):
    """Exact distribution function of rho_p = c_p x^p (1-x)^p, clamped to
    [0, 1] outside the support."""
    density = rho.normalization * npoly.polypow([0.0, 1.0, -1.0], rho.p)
    anti = npoly.polyint(density)  # vanishes at 0 by construction
    return npoly.polyval(np.clip(np.asarray(x, dtype=float), 0.0, 1.0), anti)


def variance(rho) -> float:
    """Variance of rho_p, the symmetric Beta(p+1, p+1) law."""
    return 1.0 / (4.0 * (2.0 * rho.p + 3.0))


def agrees(a: Estimate, b: Estimate, n_sigma: float = 4.0) -> bool:
    """Two-sample comparison at n_sigma combined standard errors."""
    gap = abs(complex(a.mean) - complex(b.mean))
    return gap <= n_sigma * math.hypot(a.stderr, b.stderr)


def taylor_score_weight(rho, x, ell: int):
    """ell! [t^ell] prod_b rho(x_b + t) / prod_b rho(x_b) for x of shape (..., K).

    The order-ell score weight of the product law at x, from the product of
    the blocks' Taylor polynomials truncated at t^ell.  Each comes from rho's
    factored form, rho(x + t) / rho(x) = (1 + t / x)^p (1 - t / (1 - x))^p,
    whose t^k coefficient is a sum of binomial terms: none of the
    log-derivatives or the Bell recursion of the program's score route enter.
    """
    x = np.asarray(x, dtype=float)
    p = rho.p
    prod = np.zeros((ell + 1, *x.shape[:-1]))
    prod[0] = 1.0
    for b in range(x.shape[-1]):
        u, v = 1.0 / x[..., b], -1.0 / (1.0 - x[..., b])
        taylor = [
            sum(math.comb(p, i) * math.comb(p, k - i) * u**i * v ** (k - i)
                for i in range(k + 1))
            for k in range(ell + 1)
        ]
        prod = np.array(
            [sum(prod[i] * taylor[n - i] for i in range(n + 1)) for n in range(ell + 1)]
        )
    return math.factorial(ell) * prod[ell]


def weighted_resolvent_power(evals, weights, zs, power: int):
    """sum_j w_j / (lambda_j - z)^power for each z of zs, flattened.

    Each z is summed pairwise along its own contiguous row, so its bytes do
    not depend on how many other z share the call.
    """
    terms = weights[:, None] / (evals[:, None] - zs.reshape(1, -1)) ** power
    return np.ascontiguousarray(terms.T).sum(axis=1)


def resolvent_power_curve(model, n_prefix_sites, energies, eps, ell, mc):
    """ell! E[tr(P_0 (h - E - i eps)^{-(ell+1)})] on an energy grid.

    The ell-th E-derivative of E[tr(P_0 (h - E - i eps)^{-1})] taken exactly
    per sample, from one eigendecomposition of the densely assembled h, with
    every coupling sampled (omega_0 included): the independent reference for
    the score route of dos_derivative_curve.  Samples, grid order and
    reduction are those of the program's estimators.
    """
    zs = montecarlo._spectral_parameters(energies, eps)
    vol = montecarlo._Volume(model, n_prefix_sites)
    fac = float(math.factorial(ell))

    def row(om):
        h = assemble_hamiltonian(model, om, vol.n_sites)
        evals, w = eigen_weights(h, vol.block0)
        return fac * weighted_resolvent_power(evals, w, zs, ell + 1)

    return montecarlo._estimate(
        vol, mc, zs.size, montecarlo._each(row), shared_sweep=False
    )


def source_averaged_fractional_moments(
    model, n_prefix_sites, z, source_block, target_blocks, s, mc
):
    """E[||P_t (h - z)^(-1) P_src||^s] with the source coupling integrated by quadrature.

    Each sample keeps its other couplings; omega_src runs over a composite
    Gauss rule of 64 panels x 8 nodes on [0, 1] against the single-site law,
    with one dense solve of the densely assembled h - z per node.  The
    reference for the source-conditioned rows of fractional_moment_profile:
    the integrand's peak has width at least Im z / coupling, so panels of
    width 1/64 resolve it for the models the tests use.
    """
    vol = montecarlo._Volume(model, n_prefix_sites)
    x, w = panel_rule(0.0, 1.0, 8, 64)
    w = w * model.density.eval(x)
    n = vol.n_sites
    src = model.projections.sites_of_block(source_block)
    tgts = [model.projections.sites_of_block(t) for t in target_blocks]

    def row(om):
        oms = np.repeat(om[None, :], len(x), axis=0)
        oms[:, source_block] = x
        h = np.array([assemble_hamiltonian(model, o, n) for o in oms])
        g = np.linalg.solve(h - z * np.eye(n), np.eye(n)[:, src])
        norms = [np.linalg.norm(g[:, t], 2, axis=(1, 2)) for t in tgts]
        return np.array([np.sum(w * v**s) for v in norms])

    return montecarlo._estimate(
        vol, mc, len(tgts), montecarlo._each(row), shared_sweep=False, dtype=np.float64
    )


def averaged_imag_quadrature(a, b, phi, mu, energies, eps):
    """integral mu(t) Im <phi, (A + t B - E - i eps)^(-1) phi> dt for each E.

    Composite Gauss in t on panels a few times narrower than the width-eps
    resonances, with one eigh of A + t B per node, so any symmetric B works:
    the reference for the closed-form B = I transform of
    verify_spectral_averaging.
    """
    n_panels = max(16, int(math.ceil(2.0 / eps)))
    t, wt = panel_rule(0.0, 1.0, 8, n_panels)
    evals, evecs = np.linalg.eigh(a[None, :, :] + t[:, None, None] * b[None, :, :])
    coef = np.abs(np.einsum("tij,i->tj", evecs.conj(), phi)) ** 2  # (T, d)
    out = np.empty(len(energies))
    for start in range(0, len(energies), 50):
        sl = slice(start, start + 50)
        kernel = eps / ((evals[:, :, None] - energies[None, None, sl]) ** 2 + eps**2)
        out[sl] = np.einsum("t,tj,tjz->z", wt * mu.eval(t), coef, kernel, optimize=True)
    return out


def whole_grid_finite_smooth_curves(
    free, coupling, density, eps, ell, energies, blocks, n_nodes, fd_step
):
    """verify._finite_smooth_curves as a whole-grid pass: the tensor grid's
    points, weights and scores formed at once, and each 65536-node chunk's
    Hamiltonians, eigenvalues and (chunk, n_sites, 5 E) resolvent terms in
    one piece.  The streamed version must return the same bits."""
    n_sites = free.shape[0]
    pts_1d, w_1d = panel_rule(0.0, 1.0, n_nodes, 1)
    n_blocks = len(blocks)
    grids = np.meshgrid(*([pts_1d] * n_blocks), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # (M, K)
    wgrids = np.meshgrid(*([w_1d] * n_blocks), indexing="ij")
    weights = np.prod(wgrids, axis=0).ravel() * density.eval(pts).prod(axis=1)
    scores = score_weights(density.log_derivatives(pts, ell).sum(axis=-1))[ell]

    # 5-point central stencil for the ell-th derivative of the plain trace
    stencil = np.array(
        [[0, 0, 12, 0, 0], [1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]][ell]
    ) / 12.0
    offsets = np.arange(-2, 3) * fd_step
    zs = energies[:, None] + offsets[None, :] + 1j * eps  # (E, 5)
    zflat = zs.ravel()

    h_vals = np.zeros(zs.size, dtype=complex)
    form = np.zeros(len(energies), dtype=complex)
    idx = np.arange(n_sites)
    center = slice(2, zs.size, 5)
    for start in range(0, pts.shape[0], 65536):
        stop = min(start + 65536, pts.shape[0])
        chunk = pts[start:stop]
        diag = np.zeros((chunk.shape[0], n_sites))
        for k, block in enumerate(blocks):
            diag[:, block] = chunk[:, k : k + 1]
        ham = np.broadcast_to(
            free, (chunk.shape[0], n_sites, n_sites)
        ).copy()
        ham[:, idx, idx] += coupling * diag
        evals = np.linalg.eigvalsh(ham)  # (m, N)
        traces = np.sum(
            1.0 / (evals[:, :, None] - zflat[None, None, :]), axis=1
        )  # (m, E*5)
        # fixed-order sums, not BLAS, whose order moves with its thread count
        h_vals += np.einsum("m,mk->k", weights[start:stop], traces)
        form += np.einsum(
            "m,mk->k", weights[start:stop] * scores[start:stop], traces[:, center]
        )
    h_vals = h_vals.reshape(zs.shape)
    fd = np.einsum("ek,k->e", h_vals, stencil) / fd_step**ell
    return fd, form / coupling**ell
