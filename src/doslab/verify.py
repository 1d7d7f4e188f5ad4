"""Randomized numerical certification of the operator identities behind the
estimators.

Each ``verify_*`` function checks one analytic statement on a deterministic
random corpus and returns a :class:`CheckReport`: an explicit pass/fail with
the tolerances used, summary statistics, and a serialized witness for the
worst instance.  Inequality checks always carry an additive slack
(DEFAULT_SLACK = 1e-10) so that honest floating-point noise cannot flip a true
statement to "failed".

The checks:

* :func:`verify_finite_smooth` - the smoothed trace of the resolvent equals
  its disorder-space integration-by-parts form, derivative order by order.
* :func:`verify_resolvent_average_bound` - a two-sided bound: the norm of a
  disorder-averaged resolvent difference is controlled by the average of a
  fractional power of the same difference over a shifted window, on LHS
  rules sized from the strip where their integrand is analytic.
* :func:`verify_semigroup_hoelder` - Hoelder continuity of the contraction
  semigroup map ``X -> exp(itX)`` in the generator.
* :func:`verify_resolvent_semigroup_identity` - the averaged resolvent of a
  strictly dissipative matrix equals a truncated oscillatory time integral.
* :func:`verify_spectral_averaging` - averaging a spectral measure over a
  coupling with bounded density produces a measure with bounded density.
* :func:`verify_boundary_derivatives` - boundary values of the smoothed
  density and its derivatives stay uniformly bounded as the smoothing width
  shrinks, and converge at first order.

The desk-scale inputs no caller varies (exponents, spectral parameters,
densities, cutoffs, energy grids) are the module constants below.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
# np.quantile loads numpy.ma on first use; loading it here keeps that cost
# out of the run
import numpy.ma  # noqa: F401

from . import cpu_affinity, fork_map
from .disorder import SingleSiteDensity, stieltjes_transform
from .quadrature import panel_rule

DEFAULT_SLACK = 1e-10

# the single-site law rho_3 on (0, 1): both densities of the two-sided bound,
# the shifted g of the time-integral check and the coupling law of spectral
# averaging
_DENSITY = SingleSiteDensity(3)

# stencil step of the finite-difference route in verify_finite_smooth
_FD_STEP = 0.005
# verify_resolvent_average_bound: the fractional exponent s, the spectral
# parameters; the check rule's LHS error target, least node count and the
# Im z above which it resolves no finer (so all of _BOUND_Z share one grid),
# its RHS nodes per panel and panels, and the nodes the reported rule adds
# per direction and panel; the drift between the rules that counts as
# converged, the perturbation sizes B = A + delta C of the Hoelder slope fit
# and how many instances it takes; the RHS window and the transition width
# of its smooth cutoff, which with the two rho_3 densities makes up the
# bound's bump pair
_BOUND_S = 0.4
_BOUND_Z = (-1.0 + 0.2j, 0.5j, 1.0 + 0.2j, 0.5 + 1.0j)
_LHS_TARGET = 5e-3
_LHS_MIN_NODES = 8
_LHS_RULE_IM = min(z.imag for z in _BOUND_Z)
_RHS_NODES = 16
_RHS_PANELS = 2
_REPORTED_EXTRA_NODES = 4
_BOUND_CONVERGENCE_TOL = 0.02
_SLOPE_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
_N_SLOPE_INSTANCES = 5
_CUTOFF_SUPPORT = (-3.5, -0.5)
_CUTOFF_TRANSITION = 0.1
# verify_semigroup_hoelder: the exponents s and the times t
_HOELDER_S = (0.3, 0.5, 0.7)
_HOELDER_T = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
# verify_resolvent_semigroup_identity: quadrature error allowed on top of the
# tail bound, Gauss nodes per lambda panel, and the width of a time panel
_QUAD_BUDGET = 1e-7
_LAMBDA_NODES = 16
_T_PANEL_WIDTH = 0.5
# verify_spectral_averaging: the smoothing widths, and the largest relative
# drift of the sup between consecutive widths
_AVERAGING_EPS = (0.006, 0.003, 0.001)
_STABILITY_TOL = 0.02
# verify_boundary_derivatives: the energy grid (lo, hi, count), how far inside
# the support (0, 1) a grid point must sit to count as interior, points at
# least 1 outside the support, and the least log-log slope of the boundary
# error in eps
_BOUNDARY_GRID = (-0.5, 1.5, 201)
_INTERIOR_MARGIN = 0.1
_EXTERIOR_POINTS = (-1.0, -2.0, 2.0, 3.0)
_MIN_CONVERGENCE_SLOPE = 0.9
# Corpus.matrix: the floor of the dissipative part
_MIN_IMAG = 0.5

# eig-reconstruction of exp(itX) is accurate while the eigenvector basis is
# well conditioned; past this we pay for scipy's scaling-and-squaring instead
_EIG_COND_LIMIT = 1e4

_STRUCTURE_TOL = 1e-12


# ---------------------------------------------------------------------------
# reports


def _sanitize(obj):
    """Make a value JSON-serializable: arrays to lists, complex to re/im."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return repr(obj)


@dataclass
class CheckReport:
    """Outcome of one verification check.

    statistics holds the summary numbers the pass/fail decision was based
    on; witness serializes the worst offending instance (or the extremal
    one when the check passed) so a failure is reproducible by eye.
    """

    name: str
    passed: bool
    slack: float
    statistics: dict = field(default_factory=dict)
    witness: dict | None = None

    def to_dict(self) -> dict:
        """The report as JSON-ready builtins."""
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "slack": float(self.slack),
            "statistics": _sanitize(self.statistics),
            "witness": _sanitize(self.witness),
        }


# ---------------------------------------------------------------------------
# corpora


@dataclass(frozen=True)
class Corpus:
    """Deterministic family of random test matrices.

    Every instance is generated from ``default_rng((seed, index))`` so the
    corpus is reproducible bit for bit and instances can be materialized in
    any order.  ``matrix`` draws strictly dissipative matrices (Im part >=
    0.5) and ``pair`` dissipative ones (Im part >= 0), the generators of
    the two semigroup checks.  ``bound_instance`` draws the Hermitian pairs
    of the two-sided bound; ``delta > 0`` makes its B the perturbation
    ``A + delta * C`` of A, with ``C`` Hermitian of unit spectral norm.
    """

    n_instances: int
    dim_min: int = 2
    dim_max: int = 6
    seed: int = 0
    delta: float = 0.0

    def __post_init__(self):
        if self.n_instances < 1:
            raise ValueError("corpus needs at least one instance")
        if not 1 <= self.dim_min <= self.dim_max:
            raise ValueError(
                f"bad dimension range [{self.dim_min}, {self.dim_max}]"
            )
        if self.delta < 0:
            raise ValueError(f"perturbation scale must be >= 0, got {self.delta}")

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, index))

    def _rng_and_dim(self, index: int) -> tuple[np.random.Generator, int]:
        """The instance's generator and its dimension, drawn from it first
        unless the range is a single value."""
        rng = self.rng(index)
        if self.dim_min == self.dim_max:
            return rng, self.dim_min
        return rng, int(rng.integers(self.dim_min, self.dim_max + 1))

    def _hermitian(self, rng, d: int) -> np.ndarray:
        g = rng.standard_normal((d, d))
        return (g + g.T) / 2.0

    def _psd(self, rng, d: int) -> np.ndarray:
        m = rng.standard_normal((d, d))
        return m @ m.T / d

    def _check_structure(self, a: np.ndarray) -> None:
        herm = np.max(np.abs(a - a.conj().T))
        if herm > _STRUCTURE_TOL:
            raise AssertionError(f"generated matrix not Hermitian: defect {herm}")

    def matrix(self, index: int) -> np.ndarray:
        """One strictly dissipative matrix H + iQ, Q >= 0.5."""
        rng, d = self._rng_and_dim(index)
        h = self._hermitian(rng, d)
        self._check_structure(h)
        q = _MIN_IMAG * np.eye(d) + self._psd(rng, d)
        self._check_structure(q)
        lo = float(np.linalg.eigvalsh((q + q.T) / 2.0)[0])
        if lo < _MIN_IMAG - _STRUCTURE_TOL:
            raise AssertionError(f"dissipative part below floor: {lo}")
        return h + 1j * q

    def pair(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Two independent dissipative matrices H + iQ of equal shape, Q >= 0."""
        rng, d = self._rng_and_dim(index)
        ha = self._hermitian(rng, d)
        hb = self._hermitian(rng, d)
        a = ha + 1j * self._psd(rng, d)
        b = hb + 1j * self._psd(rng, d)
        for m in (a, b):
            self._check_structure(m.real + 0.0)
            im = (m - m.conj().T) / 2j
            lo = float(np.linalg.eigvalsh(im)[0])
            if lo < -_STRUCTURE_TOL:
                raise AssertionError(f"dissipative part not PSD: {lo}")
        return a, b

    def bound_instance(self, index: int):
        """(A, B, F1, F2, z) for the averaged-resolvent bound: Hermitian pair,
        two PSD weights, and a spectral parameter in the upper half plane."""
        rng, d = self._rng_and_dim(index)
        a = self._hermitian(rng, d)
        b = self._hermitian(rng, d)
        if self.delta > 0:
            c = self._hermitian(rng, d)
            c = c / np.linalg.norm(c, 2)
            b = a + self.delta * c
        f1 = self._psd(rng, d)
        f2 = self._psd(rng, d)
        energy = float(rng.uniform(-2.0, 2.0))
        eta = float(rng.uniform(0.1, 1.0))
        return a, b, f1, f2, complex(energy, eta)


# ---------------------------------------------------------------------------
# the smooth cutoff of the two-sided bound


def smoothstep(t):
    """C-infinity step: exactly 0 for t <= 0, exactly 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    rising = np.zeros_like(t)
    falling = np.zeros_like(t)
    up = t > 0.0
    down = t < 1.0
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        rising[up] = np.exp(-1.0 / t[up])
        falling[down] = np.exp(-1.0 / (1.0 - t[down]))
    out = np.where(up, rising / np.where(up, rising + falling, 1.0), 0.0)
    return out if out.ndim else float(out)


def _cutoff(x):
    """Smooth cutoff of the two-sided bound's RHS window (-3.5, -0.5): a
    smooth indicator of (0, 3) with transition width 0.1, shifted left by
    3.5, so exactly one on [-3.4, -0.6] and exactly zero outside the window."""
    y = np.asarray(x, dtype=float) + 3.5
    return smoothstep(y / _CUTOFF_TRANSITION) * smoothstep(
        (3.0 - y) / _CUTOFF_TRANSITION
    )


# ---------------------------------------------------------------------------
# fanning independent calls out over the CPUs


def _ordered_map(calls: list[tuple]) -> list:
    """[fn(*args) for fn, *args in calls], in the order of calls.

    The calls are dealt round-robin to min(cpu_affinity(), len(calls))
    processes, run by fork_map: process k runs calls k, k + workers, ...,
    process 0 is this one, and one process runs them all inline.  A call
    computes in a child exactly what it computes inline, so results do not
    depend on the process count.  A call's exception reaches the caller,
    the first of the lowest share that raised one, and every child has
    exited when this returns.
    """
    workers = min(cpu_affinity(), len(calls))
    shares = fork_map(
        lambda k: [fn(*args) for fn, *args in calls[k::workers]], range(workers)
    )
    results = [None] * len(calls)
    for k, share in enumerate(shares):
        results[k::workers] = share
    return results


# ---------------------------------------------------------------------------
# batched linear algebra helpers


def _batched_expi(x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(i t X) for every t, via one eigendecomposition of X.

    Falls back to scipy's expm when the eigenvector basis is ill
    conditioned (defective or nearly so)."""
    w, v = np.linalg.eig(x)
    if np.linalg.cond(v) > _EIG_COND_LIMIT:
        from scipy.linalg import expm

        return np.stack([expm(1j * t * x) for t in ts])
    vinv = np.linalg.inv(v)
    phases = np.exp(1j * np.multiply.outer(ts, w))  # (T, d)
    return np.einsum("ij,tj,jk->tik", v, phases, vinv, optimize=True)


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix, as the root of the top
    eigenvalue of D^H D (faster than svd on small stacked matrices)."""
    gram = stack.conj().swapaxes(-1, -2) @ stack
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


# ---------------------------------------------------------------------------
# smoothed trace versus its disorder-space derivative forms


def _finite_smooth_curves(
    free, coupling, density, eps, ell, energies, blocks, n_nodes, fd_step
):
    """Both derivative routes on the energy grid, from one eigenvalue pass.

    Processes the tensor quadrature grid in node chunks so memory stays flat
    even at five sites with a refined rule."""
    n_sites = free.shape[0]
    pts_1d, w_1d = panel_rule(0.0, 1.0, n_nodes, 1)
    n_blocks = len(blocks)
    grids = np.meshgrid(*([pts_1d] * n_blocks), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)  # (M, K)
    wgrids = np.meshgrid(*([w_1d] * n_blocks), indexing="ij")
    weights = np.prod(wgrids, axis=0).ravel() * density.eval(pts).prod(axis=1)
    scores = density.score_factor(pts, ell)

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


def verify_finite_smooth(
    free,
    coupling: float = 1.0,
    density: SingleSiteDensity | None = None,
    eps: float = 0.3,
    ell: int = 1,
    energies=None,
    blocks=None,
    n_nodes: int = 12,
) -> CheckReport:
    """Check the two routes to d^ell/dE^ell of the smoothed trace agree.

    Route one integrates the plain trace of the resolvent against the
    product density by tensor Gauss quadrature and differentiates the curve
    in E with a five-point stencil.  Route two moves all E-derivatives onto
    the disorder coordinates (their directional sum matches an E-shift
    exactly when the coordinate projections sum to the identity) and then
    onto the density by parts, leaving a score-weighted quadrature at the
    bare energy.  Both routes share one eigenvalue decomposition per
    quadrature node.

    The report carries a refinement certificate: doubling quadrature nodes
    and halving the stencil step must cut the discrepancy at least in half
    unless it already sits at the accuracy floor.
    """
    free = np.asarray(free, dtype=float)
    if free.ndim != 2 or free.shape[0] != free.shape[1]:
        raise ValueError(f"free part must be square, got shape {free.shape}")
    n_sites = free.shape[0]
    if n_sites > 5:
        raise ValueError(
            f"tensor quadrature is exponential in sites: {n_sites} > 5"
        )
    if np.max(np.abs(free - free.T)) > _STRUCTURE_TOL:
        raise ValueError("free part must be symmetric")
    if coupling <= 0:
        raise ValueError(f"coupling must be positive, got {coupling}")
    if eps <= 0:
        raise ValueError(f"smoothing width must be positive, got {eps}")
    if density is None:
        density = SingleSiteDensity(2)
    if not 0 <= ell <= 2:
        raise ValueError(f"derivative order {ell} outside [0, 2]")
    if ell > density.continuity_order:
        raise ValueError(
            f"order {ell} needs continuity order >= {ell}, "
            f"density has {density.continuity_order}"
        )
    if blocks is None:
        blocks = [[i] for i in range(n_sites)]
    covered = sorted(site for block in blocks for site in block)
    if covered != list(range(n_sites)):
        raise ValueError(
            "disorder projections must form a complete covering: every site "
            f"in exactly one block, got {blocks} for {n_sites} sites"
        )
    if energies is None:
        bound = np.linalg.norm(free, 2) + coupling
        energies = np.linspace(-bound, bound + coupling, 9)
    energies = np.asarray(energies, dtype=float)

    fd, form = _finite_smooth_curves(
        free, coupling, density, eps, ell, energies, blocks, n_nodes, _FD_STEP
    )
    scale = float(np.max(np.abs(fd)))
    disc = float(np.max(np.abs(form - fd))) / max(scale, 1e-300)

    fd2, form2 = _finite_smooth_curves(
        free, coupling, density, eps, ell, energies, blocks,
        n_nodes + n_nodes // 2, _FD_STEP / 2.0,
    )
    scale2 = float(np.max(np.abs(fd2)))
    disc2 = float(np.max(np.abs(form2 - fd2))) / max(scale2, 1e-300)

    floor = 1e-10
    refined_ok = disc2 <= disc / 2.0 or disc2 <= floor
    worst = int(np.argmax(np.abs(form - fd)))
    return CheckReport(
        name="finite_smooth_derivative_forms",
        passed=bool(refined_ok),
        slack=DEFAULT_SLACK,
        statistics={
            "ell": ell,
            "n_sites": n_sites,
            "n_blocks": len(blocks),
            "max_rel_discrepancy": disc,
            "refined_rel_discrepancy": disc2,
            "refinement_ok": refined_ok,
            "curve_scale": scale,
        },
        witness={
            "energy": float(energies[worst]),
            "fd_value": complex(fd[worst]),
            "form_value": complex(form[worst]),
        },
    )


# ---------------------------------------------------------------------------
# two-sided averaged-resolvent bound


def _difference_stacks(a, b, f1, f2, x1, x2, zs):
    """Yield F^(1/2) ((A + h - z)^(-1) - (B + h - z)^(-1)) F^(1/2) on the
    tensor grid h = x1_i F1 + x2_j F2, one (n1, n2, d, d) stack per z of zs.

    F = F1 + F2.  A + h and B + h are Hermitian and do not depend on z, so
    one eigh per node, M = V diag(lam) V^H, serves every z:
    F^(1/2) (M - z)^(-1) F^(1/2) = W diag(1/(lam - z)) W^H with W = F^(1/2) V.
    The two terms are formed apart, so the difference is exactly zero when
    A = B.
    """
    for name, m in (("A", a), ("B", b), ("F1", f1), ("F2", f2)):
        if np.max(np.abs(m - m.conj().T)) > _STRUCTURE_TOL:
            raise ValueError(f"{name} must be Hermitian for the eigen route")
    fw, fv = np.linalg.eigh(f1 + f2)
    fh = (fv * np.sqrt(np.maximum(fw, 0.0))) @ fv.conj().T
    h = x1[:, None, None, None] * f1 + x2[None, :, None, None] * f2
    factors = []
    for m in (a, b):
        lam, v = np.linalg.eigh(m + h)
        w = fh @ v
        factors.append((lam, w, w.conj().swapaxes(-1, -2)))
    for z in zs.ravel():
        term_a, term_b = (
            (w * (1.0 / (lam - z))[..., None, :]) @ wh for lam, w, wh in factors
        )
        yield term_a - term_b


def _lhs_nodes(f1, f2, z, check: bool = False) -> tuple[int, int]:
    """Gauss nodes on [0, 1] of z's LHS rule in x1 and x2.  The integrand is
    analytic for |Im x_j| < Im z / ||F_j||, where one Gauss-Legendre panel
    of n nodes errs like rho^(-2n), rho = exp(asinh(2 Im z / ||F_j||)); the
    check rule takes the least n >= _LHS_MIN_NODES that brings rho^(-2n) to
    _LHS_TARGET at Im z capped by _LHS_RULE_IM, the reported rule
    _REPORTED_EXTRA_NODES more.  The model drops the Gauss error constant,
    about 1 / (rho^2 - 1), which is large on a narrow strip, so
    _LHS_TARGET is the model's target and not a bound: over seeds 0-11 the
    check rule's LHS error reaches 9.1e-3, 1.8 times it (seed 6, instance
    29, z = -1 + 0.2i)."""
    eta = min(complex(z).imag, _LHS_RULE_IM)
    if eta <= 0:
        raise ValueError(f"z must lie in the upper half plane, got {z}")
    extra = 0 if check else _REPORTED_EXTRA_NODES
    nodes = []
    for f in (f1, f2):
        norm = float(np.linalg.norm(f, 2))
        rate = 2.0 * math.asinh(2.0 * eta / norm) if norm else math.inf
        need = math.ceil(-math.log(_LHS_TARGET) / rate)
        nodes.append(max(_LHS_MIN_NODES, need) + extra)
    return tuple(nodes)


def bound_lhs(a, b, f1, f2, z, check: bool = False):
    """LHS of the two-sided bound for each z (z a value or an array): the
    norm of the difference averaged over x1, x2 drawn from rho_3 on (0, 1),
    by tensor Gauss quadrature on z's rule from _lhs_nodes.  The z that share
    a rule share one eigh per node."""
    zs = np.asarray(z, dtype=complex)
    rules = [_lhs_nodes(f1, f2, v, check) for v in zs.ravel()]
    lhs = np.empty(len(rules))
    for rule in dict.fromkeys(rules):
        picks = [k for k, r in enumerate(rules) if r == rule]
        (x1, w1), (x2, w2) = (panel_rule(0.0, 1.0, n, 1) for n in rule)
        wd1, wd2 = w1 * _DENSITY.eval(x1), w2 * _DENSITY.eval(x2)
        stacks = _difference_stacks(a, b, f1, f2, x1, x2, zs.ravel()[picks])
        for k, diff in zip(picks, stacks):
            lhs[k] = _spectral_norms(np.einsum("i,j,ijkl->kl", wd1, wd2, diff))
    return lhs.reshape(zs.shape)


def average_bound_terms(a, b, f1, f2, z, check: bool = False):
    """(LHS, RHS) of the two-sided bound by tensor quadrature on the check
    or the reported rule, each with the shape of z (a value or an array); a
    z gets the values it would get alone.  The RHS integrand carries an
    s-power of a norm, with kinks where singular values cross; _RHS_PANELS
    Gauss panels localize them."""
    zs = np.asarray(z, dtype=complex)
    lhs = bound_lhs(a, b, f1, f2, zs, check)
    n_rhs = _RHS_NODES + (0 if check else _REPORTED_EXTRA_NODES)
    y, wy = panel_rule(*_CUTOFF_SUPPORT, n_rhs, _RHS_PANELS)
    wc = wy * _cutoff(y)
    rhs = [
        np.einsum("i,j,ij->", wc, wc, _spectral_norms(diff) ** _BOUND_S)
        for diff in _difference_stacks(a, b, f1, f2, y, y, zs)
    ]
    return lhs, np.reshape(rhs, zs.shape)


def _bound_terms(corpus: Corpus, index: int):
    """Instance index's (LHS, RHS) on _BOUND_Z by the reported and by the
    check rule, the reported LHS rule of each z, and the dimension."""
    a, b, f1, f2, _ = corpus.bound_instance(index)
    fine = average_bound_terms(a, b, f1, f2, _BOUND_Z)
    coarse = average_bound_terms(a, b, f1, f2, _BOUND_Z, check=True)
    return fine, coarse, [_lhs_nodes(f1, f2, z) for z in _BOUND_Z], len(a)


def _slope_lhs(corpus: Corpus, index: int) -> list[float]:
    """LHS at instance index's own z for each B = A + delta C of _SLOPE_DELTAS."""
    return [
        float(bound_lhs(*dataclasses.replace(corpus, delta=d).bound_instance(index)))
        for d in _SLOPE_DELTAS
    ]


def verify_resolvent_average_bound(corpus: Corpus) -> CheckReport:
    """Empirical two-sided bound for disorder-averaged resolvent differences.

    For each corpus instance (A, B, F1, F2) and each z of _BOUND_Z: the norm
    of the density-averaged difference of resolvents of A + x1 F1 + x2 F2 and
    its B counterpart (LHS) against the cutoff-weighted average of the s-th
    power (s = 0.4) of the pointwise difference norm over the shifted window
    (RHS).  The bound constant is existential, so the report gives the
    empirical ratio distribution and its max; callers assert stability under
    corpus growth.

    Also fits the log-log slope of LHS against a shrinking perturbation
    B = A + delta C on the first five instances, which must come out at
    least s - 0.05 (Hoelder continuity in the generator).  Each evaluation
    on the reported rule is repeated on the check rule; a relative drift
    above _BOUND_CONVERGENCE_TOL between them fails the check, and nothing
    is refined after the fact.

    The instances are evaluated by _ordered_map, each one a call, and so
    are the slope fit's; the report is gathered in instance order from
    what they return, so it does not depend on the process count.
    """
    n_slope = min(_N_SLOPE_INSTANCES, corpus.n_instances)
    results = _ordered_map(
        [(_bound_terms, corpus, i) for i in range(corpus.n_instances)]
        + [(_slope_lhs, corpus, i) for i in range(n_slope)]
    )
    ratios = []
    unconverged = []
    max_lhs_nodes = 0
    worst = None
    for index, (fine, coarse, rules, dim) in enumerate(results[: corpus.n_instances]):
        for z, nodes, lhs, rhs, lhs_c, rhs_c in zip(_BOUND_Z, rules, *fine, *coarse):
            max_lhs_nodes = max(max_lhs_nodes, *nodes)
            scale = max(abs(rhs), abs(lhs), 1e-300)
            drift = max(abs(lhs - lhs_c), abs(rhs - rhs_c)) / scale
            if drift > _BOUND_CONVERGENCE_TOL:
                unconverged.append(
                    {"index": index, "z": z, "drift": drift, "lhs_nodes": nodes}
                )
            ratio = lhs / max(rhs, 1e-300)
            ratios.append(ratio)
            if worst is None or ratio > worst["ratio"]:
                worst = dict(index=index, z=z, ratio=ratio, lhs=lhs, rhs=rhs, dim=dim)
    ratios = np.asarray(ratios)

    slopes = [
        float(np.polyfit(np.log(_SLOPE_DELTAS), np.log(lhs_by_delta), 1)[0])
        for lhs_by_delta in results[corpus.n_instances :]
    ]
    min_slope = float(min(slopes))

    passed = (
        bool(np.all(np.isfinite(ratios)))
        and min_slope >= _BOUND_S - 0.05
        and not unconverged
    )
    return CheckReport(
        name="resolvent_average_two_sided_bound",
        passed=passed,
        slack=DEFAULT_SLACK,
        statistics={
            "s": _BOUND_S,
            "n_instances": corpus.n_instances,
            "n_evaluations": int(ratios.size),
            "max_ratio": float(ratios.max()),
            "mean_ratio": float(ratios.mean()),
            "quantile_95": float(np.quantile(ratios, 0.95)),
            "min_slope": min_slope,
            "slopes": slopes,
            "max_lhs_nodes": max_lhs_nodes,
            "n_unconverged": len(unconverged),
        },
        witness=worst if passed else {"worst": worst, "unconverged": unconverged},
    )


# ---------------------------------------------------------------------------
# semigroup Hoelder continuity in the generator


def _hoelder_margins(corpus: Corpus, index: int):
    """LHS - RHS of the Hoelder bound for pair index, over (s, t) of
    _HOELDER_S x _HOELDER_T, with the generator distance and the dimension."""
    s_arr, t_arr = np.asarray(_HOELDER_S), np.asarray(_HOELDER_T)
    x, y = corpus.pair(index)
    delta = float(np.linalg.norm(x - y, 2))
    ex = _batched_expi(x, t_arr)
    ey = _batched_expi(y, t_arr)
    lhs = _spectral_norms(ex - ey)  # (T,)
    rhs = 2.0 ** (1.0 - s_arr[:, None]) * np.power(
        t_arr[None, :], s_arr[:, None]
    ) * delta ** s_arr[:, None]
    return lhs[None, :] - rhs, delta, x.shape[0]  # (S, T)


def verify_semigroup_hoelder(corpus: Corpus) -> CheckReport:
    """Hoelder bound for contraction semigroups generated by iX, Im X >= 0:

        norm(exp(itX) - exp(itY)) <= 2^(1-s) t^s norm(X - Y)^s + slack

    for every corpus pair, every s of _HOELDER_S, every t of _HOELDER_T.  Any
    violation beyond the slack fails the check with the offending pair
    serialized in the witness.  The pairs are evaluated by _ordered_map.
    """
    worst = {"margin": -np.inf}
    n_violations = 0
    results = _ordered_map(
        [(_hoelder_margins, corpus, i) for i in range(corpus.n_instances)]
    )
    for index, (margins, delta, dim) in enumerate(results):
        peak = float(margins.max())
        if peak > worst["margin"]:
            si, ti = np.unravel_index(np.argmax(margins), margins.shape)
            worst = {
                "margin": peak,
                "index": index,
                "s": _HOELDER_S[si],
                "t": _HOELDER_T[ti],
                "generator_distance": delta,
                "dim": dim,
            }
        n_violations += int(np.count_nonzero(margins > DEFAULT_SLACK))
    passed = n_violations == 0
    if not passed:
        worst["x"], worst["y"] = corpus.pair(worst["index"])
    return CheckReport(
        name="semigroup_hoelder_in_generator",
        passed=passed,
        slack=DEFAULT_SLACK,
        statistics={
            "n_instances": corpus.n_instances,
            "n_checks": corpus.n_instances * len(_HOELDER_S) * len(_HOELDER_T),
            "n_violations": n_violations,
            "worst_margin": worst["margin"],
        },
        witness=worst,
    )


# ---------------------------------------------------------------------------
# averaged resolvent as a truncated oscillatory time integral


def verify_resolvent_semigroup_identity(
    instances: list[np.ndarray], t_max: float = 1e3
) -> CheckReport:
    """Averaged resolvent of each strictly dissipative matrix A of instances
    as a time integral:

        integral g(lam) (A + lam)^(-1) dlam
            = -i * integral_0^inf exp(itA) ghat(t) dt,
        ghat(t) = integral g(lam) exp(it lam) dlam,

    with g the density rho_3 shifted to (1, 2), valid because exp(itA)
    decays like exp(-q t) when Im A >= q > 0.  The time integral is
    truncated where the decay makes the tail negligible (never beyond
    t_max), and the check demands the operator-norm discrepancy stay below
    the rigorous tail bound exp(-q T)/q plus a fixed quadrature budget.
    Doubling t_max can only shrink the discrepancy.
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    # one lambda rule for every instance: g's weights serve the averaged
    # resolvent and its Fourier factor ghat alike
    lam, w = panel_rule(1.0, 2.0, _LAMBDA_NODES, 8)
    wg = w * _DENSITY.eval(lam - 1.0)

    discrepancies = []
    tail_bounds = []
    worst = None
    for a in instances:
        a = np.asarray(a, dtype=complex)
        im_part = (a - a.conj().T) / 2j
        q = float(np.linalg.eigvalsh(im_part)[0])
        if q <= 0:
            raise ValueError(
                f"matrix must be strictly dissipative, Im part floor {q}"
            )
        d = a.shape[0]
        eye = np.eye(d)

        stack = np.linalg.inv(
            a[None, :, :] + lam[:, None, None] * eye[None, :, :]
        )
        resolvent_norms = _spectral_norms(stack)
        lhs = np.einsum("i,ijk->jk", wg, stack)

        t_eff = float(min(t_max, 46.0 / q))
        n_panels = max(4, int(math.ceil(t_eff / _T_PANEL_WIDTH)))
        ts, wt = panel_rule(0.0, t_eff, 8, n_panels)
        ghat = np.exp(1j * np.multiply.outer(ts, lam)) @ wg  # (T,)
        semigroup = _batched_expi(a, ts)
        rhs = -1j * np.einsum("t,tjk->jk", wt * ghat, semigroup)

        disc = float(np.linalg.norm(lhs - rhs, 2))
        tail = math.exp(-q * t_eff) / q
        discrepancies.append(disc)
        tail_bounds.append(tail)
        if worst is None or disc > worst["discrepancy"]:
            worst = {
                "discrepancy": disc,
                "dim": d,
                "im_floor": q,
                "t_eff": t_eff,
                "max_resolvent_norm": float(resolvent_norms.max()),
            }
    tol = float(max(tail_bounds)) + _QUAD_BUDGET
    max_disc = float(max(discrepancies))
    passed = max_disc <= tol + DEFAULT_SLACK
    return CheckReport(
        name="resolvent_as_time_integral",
        passed=passed,
        slack=DEFAULT_SLACK,
        statistics={
            "n_instances": len(discrepancies),
            "max_discrepancy": max_disc,
            "tolerance": tol,
            "max_tail_bound": float(max(tail_bounds)),
            "quad_budget": _QUAD_BUDGET,
            "t_max": t_max,
        },
        witness=worst,
    )


# ---------------------------------------------------------------------------
# spectral averaging


def _averaged_imag_exact(a, phi, zs):
    """F(z) via the exact transform: sum over eigenpairs of A of
    |<v, phi>|^2 times Im of the density transform shifted by the
    eigenvalue.  No quadrature anywhere."""
    evals, evecs = np.linalg.eigh(a)
    coef = np.abs(evecs.conj().T @ phi) ** 2
    out = np.zeros(len(zs))
    for lam, wgt in zip(evals, coef):
        out += wgt * np.imag(stieltjes_transform(_DENSITY, 0, np.asarray(zs) - lam))
    return out


def verify_spectral_averaging(a, phi) -> CheckReport:
    """Averaging the spectral measure over a coupling with bounded density
    yields a measure with bounded density.

    Evaluates F(z) = integral of Im <phi, (A + t - z)^(-1) phi> against the
    coupling density rho_3 in closed form, through the exact density
    transform, on a 200-point energy grid from 0.5 below the spectrum of A to
    1.5 above it, for each smoothing width eps of _AVERAGING_EPS.  It passes
    when every sup over the grid is finite, each relative drift of the sup
    from one eps to the next is at most 2%, and each drift is at most 1.25
    times the one before it (plus 1e-9).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=complex))
    d = a.shape[0]
    if a.shape != (d, d) or phi.shape != (d,):
        raise ValueError("shape mismatch between A and phi")
    if np.max(np.abs(a - a.T)) > _STRUCTURE_TOL:
        raise ValueError("A must be symmetric")
    phi_norm = float(np.linalg.norm(phi))
    if phi_norm == 0.0:
        raise ValueError("phi must be nonzero")

    aw = np.linalg.eigvalsh(a)
    energies = np.linspace(float(aw[0]) - 0.5, float(aw[-1]) + 1.5, 200)
    sup_values = [
        float(np.max(_averaged_imag_exact(a, phi, energies + 1j * eps)))
        for eps in _AVERAGING_EPS
    ]
    sup_arr = np.asarray(sup_values)
    drifts = np.abs(np.diff(sup_arr)) / sup_arr[:-1]
    passed = (
        bool(np.all(np.isfinite(sup_arr)))
        and bool(np.all(drifts <= _STABILITY_TOL))
        and bool(np.all(np.diff(drifts) <= 0.25 * drifts[:-1] + 1e-9))
    )
    return CheckReport(
        name="spectral_averaging_bounded_density",
        passed=passed,
        slack=DEFAULT_SLACK,
        statistics={
            "eps_list": list(_AVERAGING_EPS),
            "sup_values": sup_values,
            "drifts": drifts.tolist(),
            "poisson_cap": math.pi * _DENSITY.sup_derivative(0) * phi_norm**2,
        },
        witness=None if passed else {"sup_values": sup_values, "drifts": drifts},
    )


def averaging_corpus(
    n_instances: int, dim: int = 6, seed: int = 7
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(A, phi) pairs with random symmetric A and random unit phi."""
    out = []
    for index in range(n_instances):
        rng = np.random.default_rng((seed, index))
        g = rng.standard_normal((dim, dim))
        a = (g + g.T) / 2.0
        phi = rng.standard_normal(dim)
        phi = phi / np.linalg.norm(phi)
        out.append((a, phi))
    return out


# ---------------------------------------------------------------------------
# boundary values of the smoothed density


def verify_boundary_derivatives(
    rho: SingleSiteDensity | None = None, eps_list=(0.1, 0.01, 0.001)
) -> CheckReport:
    """Uniform boundedness as the strip shrinks, plus first-order boundary
    convergence, for the smoothed density and its derivatives.

    With F(z) the density transform, the j-th E-derivative of Im F(E + i eps)
    is pi times the width-eps Poisson smoothing of rho^(j), so its strip sup
    can never exceed pi * sup|rho^(j)|; the check asserts exactly that, with
    additive slack, for every j up to the continuity order and every eps in
    the list.  (The sup itself grows toward the cap as eps shrinks, so a cap
    pinned to the largest eps would be wrong; the smoothing cap is the
    uniform bound that actually holds.)

    Boundary convergence: max over the grid points at least 0.1 inside the
    support of |Im F(E + i eps)/pi - rho(E)| must shrink at first order in
    eps, certified by a log-log slope fit; the empirical constant is
    reported.  At points at least 1 outside the support, Im F <= eps / dist^2.
    """
    if rho is None:
        rho = SingleSiteDensity(2)
    eps_arr = np.asarray(eps_list, dtype=float)
    if np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) >= 0):
        raise ValueError("eps_list must be positive and strictly decreasing")
    energies = np.linspace(*_BOUNDARY_GRID)
    interior = (energies >= _INTERIOR_MARGIN) & (energies <= 1.0 - _INTERIOR_MARGIN)

    m = rho.continuity_order
    sup_table = np.empty((m + 1, len(eps_arr)))
    caps = np.empty(m + 1)
    for j in range(m + 1):
        caps[j] = math.pi * rho.sup_derivative(j)
        for k, eps in enumerate(eps_arr):
            values = np.imag(stieltjes_transform(rho, j, energies + 1j * eps))
            sup_table[j, k] = float(np.max(np.abs(values)))
    bounded = np.all(sup_table <= caps[:, None] + DEFAULT_SLACK)

    errors = np.empty(len(eps_arr))
    target = rho.eval(energies[interior])
    for k, eps in enumerate(eps_arr):
        smoothed = (
            np.imag(stieltjes_transform(rho, 0, energies[interior] + 1j * eps))
            / math.pi
        )
        errors[k] = float(np.max(np.abs(smoothed - target)))
    slope = float(np.polyfit(np.log(eps_arr), np.log(errors), 1)[0])
    rate_constant = float(np.max(errors / eps_arr))

    exterior_worst = 0.0
    for e in _EXTERIOR_POINTS:
        dist = max(0.0 - e, e - 1.0)
        for eps in eps_arr:
            val = float(np.imag(stieltjes_transform(rho, 0, complex(e, eps))))
            exterior_worst = max(exterior_worst, val - eps / dist**2)
    exterior_ok = exterior_worst <= DEFAULT_SLACK

    passed = bool(bounded) and slope >= _MIN_CONVERGENCE_SLOPE and exterior_ok
    ji, ki = np.unravel_index(
        np.argmax(sup_table - caps[:, None]), sup_table.shape
    )
    return CheckReport(
        name="boundary_derivative_bounds",
        passed=passed,
        slack=DEFAULT_SLACK,
        statistics={
            "max_order": m,
            "eps_list": eps_arr.tolist(),
            "sup_table": sup_table.tolist(),
            "smoothing_caps": caps.tolist(),
            "uniformly_bounded": bool(bounded),
            "convergence_errors": errors.tolist(),
            "convergence_slope": slope,
            "rate_constant": rate_constant,
            "exterior_worst_excess": exterior_worst,
        },
        witness={
            "tightest_order": int(ji),
            "tightest_eps": float(eps_arr[ki]),
            "sup": float(sup_table[ji, ki]),
            "cap": float(caps[ji]),
        },
    )


# ---------------------------------------------------------------------------
# bundled run for the CLI


def run_default_verification(seed: int = 0) -> list[CheckReport]:
    """All six checks at a desk scale small enough for interactive use."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3))
    free = (g + g.T) / 2.0
    identity_corpus = Corpus(30, dim_min=2, dim_max=6, seed=seed + 2)

    reports = [
        verify_finite_smooth(np.zeros((1, 1)), ell=0),
        verify_finite_smooth(free, coupling=1.5, eps=0.3, ell=1),
        verify_resolvent_average_bound(
            Corpus(40, dim_min=2, dim_max=5, seed=seed)
        ),
        verify_semigroup_hoelder(
            Corpus(300, dim_min=2, dim_max=6, seed=seed + 1)
        ),
        verify_resolvent_semigroup_identity(
            [identity_corpus.matrix(i) for i in range(identity_corpus.n_instances)]
        ),
        verify_boundary_derivatives(),
    ]
    for a, phi in averaging_corpus(2, dim=6, seed=seed + 3):
        reports.append(verify_spectral_averaging(a, phi))
    return reports
