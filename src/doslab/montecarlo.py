"""Monte Carlo estimators over i.i.d. block disorder.

Determinism contract: sample i of a run draws the full-length disorder
vector of the model from np.random.default_rng((master_seed, i)), its seed
hashed with those of its chunk (draw_disorder), so the couplings seen by
sample i depend neither on the volume under study, nor on the chunk, nor on
any other estimator sharing the seed.  Values are stored per sample and
reduced in index order, which makes every estimate bit-reproducible and lets
coupled quantities (telescoping differences, cross-volume comparisons) share
their randomness exactly.

Every estimator is one row function of a chunk of samples' couplings
handed to one driver, `_estimate`: it draws a chunk, slices the draws to
the volume, averages the rows with their antithetic mirrors where the route
asks for it, fills a (n_samples, width) table and reduces it to one Estimate
per column.  There is one entry point per quantity, on a grid of points; a
single point is a one-point grid.  The samples are split into contiguous
spans, one per CPU of the process's affinity set, run by the package's one
fork map (doslab.fork_map), and sized by the route the volume takes, which
_Volume.chain decides once (see _estimate).  Rows that loop over a chunk's
samples through LU or eigh run every loaded OpenBLAS on one thread: two
processes then do not share two cores four ways, and the bytes, which depend
on the BLAS thread count, are those of a one-CPU run.  A row depends on its
sample alone, so the table and every CSV are the same at any CPU count;
`taskset -c 0` pins a run to one CPU.

`dos` and `dos-deriv` integrate the probe block's own coupling exactly:
tr(P_0 G) = sum_k 1/(lambda omega_0 - mu_k), where the mu_k
(block_coupling_poles) do not depend on omega_0, so a sample's row is
E[row | the other couplings], one Stieltjes transform of the single-site law
per mu_k.  Each `dos` row is then at most rank * sup rho / lambda (a Wegner
bound), whatever eps.  `fracmom` does the same for a one-site source block,
by the rank-one resolvent identity (see fractional_moment_profile).

Energy derivatives of E[tr(P_0 (h - E - i eps)^{-1})] take one route, the
score route: every E-derivative moves onto the couplings and, by parts, onto
the single-site law, so a sample is reweighted by the logarithmic
derivatives of its couplings' density.  The tests hold it against
l! E[tr(P_0 G^{l+1})], the same derivative taken exactly per sample from one
eigendecomposition, a kernel the score route does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from . import _one_blas_thread, cpu_affinity, fork_map
from .disorder import fractional_inverse_moment, score_weights, stieltjes_transform
from .lattice import ModelSpec
from .spectral import CscPattern, block_coupling_poles, chain_plan, eigen_weights
from .spectral import _superlu, nested_block_traces, off_diagonal_row_sums

# samples per rows() call; bounds the memory of a chunk's lane stack
_CHUNK_SAMPLES = 256


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with a standard error and its provenance."""

    mean: complex | float
    stderr: float
    n_samples: int
    seed: int

    @classmethod
    def from_samples(cls, values: np.ndarray, seed: int) -> list["Estimate"]:
        """One Estimate per column of the (n_samples, width) table values, each
        reduced along its own row of the contiguous transpose: the bytes of a
        reduction of that column alone."""
        rows = np.ascontiguousarray(np.asarray(values).T)
        n, cast = rows.shape[1], complex if np.iscomplexobj(rows) else float
        parts = (rows.real, rows.imag) if cast is complex else (rows,)
        var = sum(p.var(axis=1, ddof=1) for p in parts) if n > 1 else np.zeros(len(rows))
        stderr = np.sqrt(var / n)
        return [cls(cast(m), float(e), n, seed) for m, e in zip(rows.mean(axis=1), stderr)]


@dataclass(frozen=True)
class McConfig:
    """Sampling plan shared by the estimators."""

    n_samples: int
    master_seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay fit: log(mean) = log_prefactor - rate * distance."""

    rate: float
    log_prefactor: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class TelescopeReport:
    """Per-volume boundary terms of a telescoped finite-volume expectation."""

    k_values: tuple[int, ...]
    terms: tuple[Estimate, ...]
    base: Estimate
    direct: Estimate
    partial_sums: np.ndarray
    fit: DecayFit | None
    summability_supported: bool


# -- sampling plumbing ---------------------------------------------------------


# the constants of numpy's SeedSequence hash, frozen by NEP 19
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _WORD = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _seed_states(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """SeedSequence((master_seed, i)).generate_state(4, np.uint64) for each i, all
    hashed at once: each i < 2**32 is one entropy word, so all take one path."""
    m = int(master_seed)
    if m < 0 or indices.min() < 0 or indices.max() >= 2**32:
        raise ValueError("seeds must be non-negative and sample indices in [0, 2**32)")
    i32 = indices.astype(np.uint32)
    words = [(m >> s) & _WORD for s in range(0, max(m.bit_length(), 1), 32)]
    entropy = [np.full_like(i32, w) for w in words] + [i32]

    def hasher(const, mult):
        def hash_word(v):
            nonlocal const
            v, const = v ^ const, const * mult & _WORD
            v = v * const
            return v ^ (v >> 16)
        return hash_word

    hashmix, draw = hasher(_INIT_A, _MULT_A), hasher(_INIT_B, _MULT_B)
    pool = [hashmix(v) for v in (entropy + [0 * i32] * 4)[:4]]
    # each pool word into the others, then the entropy past the pool into all
    mixes = [*permutations(range(4), 2), *product(range(4, len(entropy)), range(4))]
    for s, d in mixes:
        v = _MIX_L * pool[d] - _MIX_R * hashmix(pool[s] if s < 4 else entropy[s])
        pool[d] = v ^ (v >> 16)
    state = np.array([draw(pool[k % 4]) for k in range(8)]).T
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 state words are already generated."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def draw_disorder(model: ModelSpec, master_seed: int, index) -> np.ndarray:
    """Full-length block disorder of sample index, or one row per index of an
    array of them: sample i draws from np.random.default_rng((master_seed, i)),
    its seed hashed with the others' (_seed_states).  Always the full model,
    never a prefix: volume restrictions slice the row, so a block's coupling
    is the same in every volume that contains it."""
    idx = np.asarray(index)
    rows = [model.density.sample(Generator(PCG64(_SeedState(s))), model.n_blocks)
            for s in _seed_states(master_seed, idx.ravel())]
    return np.reshape(rows, (*idx.shape, model.n_blocks))


class _Volume:
    """Cached assembly pieces for one prefix volume of a model."""

    def __init__(self, model: ModelSpec, n_prefix_sites: int):
        self.model = model
        self.n_sites = int(n_prefix_sites)
        self.n_blocks = model.projections.blocks_for_prefix(self.n_sites)
        self.sizes = model.projections.block_sizes()[: self.n_blocks]
        self.block0 = model.projections.sites_of_block(0)
        self._diag = np.arange(self.n_sites)

    @cached_property
    def h0(self) -> np.ndarray:
        return self.model.free.matrix(self.n_sites)

    @cached_property
    def plan(self):
        """spectral.chain_plan of h0, found once as it costs O(n^2): on a chain
        dos, dos-deriv and the telescope serve a chunk by one sweep of its lanes."""
        return chain_plan(self.h0)

    @cached_property
    def row_sums(self) -> np.ndarray:
        """spectral.off_diagonal_row_sums of h0, found once as it costs O(n^2):
        every chunk's residual scale takes it."""
        return off_diagonal_row_sums(self.h0)

    @property
    def chain(self) -> bool:
        return self.plan is not None

    def hamiltonian(self, om_prefix: np.ndarray) -> np.ndarray:
        h = self.h0.copy()
        h[self._diag, self._diag] += self.model.coupling * np.repeat(
            om_prefix, self.sizes
        )
        return h

    def diagonals(self, oms: np.ndarray) -> np.ndarray:
        """(S, n_sites) coupled diagonals of a chunk of S samples' couplings."""
        return self.model.coupling * np.repeat(oms, self.sizes, axis=1)

    def coupling_transforms(self, oms: np.ndarray, zs: np.ndarray, ell: int):
        """T_j = E[tr(P_0 (h - z)^{-1}) rho^(j)(omega_0) / rho(omega_0) | omega_rest].

        One (S, zs.size) array per j = 0..ell for a chunk of S samples:
        T_j = lambda^{-1} sum_k S_{rho^(j)}(mu_k / lambda), with S the
        Stieltjes transform and mu_k the block's coupling poles.  T_0 is the
        conditional mean of the trace itself.
        """
        lam = self.model.coupling
        u = block_coupling_poles(self.h0, self.diagonals(oms), zs, self.block0,
                                 _plan=self.plan, _row_sums=self.row_sums) / lam
        return [
            stieltjes_transform(self.model.density, j, u).sum(axis=-1) / lam
            for j in range(ell + 1)
        ]


def _estimate(
    vol: _Volume, mc: McConfig, width: int, rows, *, shared_sweep: bool,
    antithetic=False, dtype=np.complex128,
) -> list[Estimate]:
    """One Estimate per column of rows(omega) over the samples of mc.

    Sample i draws the full disorder vector of the model from its own
    generator, seeded a chunk at a time (draw_disorder); rows takes the
    (S, n_blocks) couplings of vol's blocks for a chunk of S samples and
    returns (S, width) values, one row per sample and independent of the
    others.  With antithetic a sample's row is 0.5 * (row(omega) +
    row(1 - omega)), unbiased because the bump laws are symmetric about 1/2;
    the mirrors join their chunk's stack.

    shared_sweep is the route of vol: true when rows serves a chunk by one
    sweep over all its lanes, which calls no BLAS and costs mostly per call
    (min_span = _CHUNK_SAMPLES); false when rows loops over the lanes
    through LU or eigh, whose cost grows per sample (min_span = 1) and whose
    bytes can depend on the BLAS thread count.  The samples split into
    min(cpu_affinity(), ceil(n / min_span)) spans, run by fork_map, each in
    chunks of _CHUNK_SAMPLES from its first sample.  Unless a shared sweep
    runs as one span, and so inline with no BLAS lookup, every OpenBLAS
    loaded at entry runs one thread throughout: a caller whose rows first
    load a BLAS must load it before the call.  The table depends neither on
    the chunk size nor on the span count, so reductions over it are
    bit-stable.
    """
    n = mc.n_samples
    values = np.empty((n, width), dtype=dtype)

    def fill(span: tuple[int, int]) -> np.ndarray:
        s0, s1 = span
        for c0 in range(s0, s1, _CHUNK_SAMPLES):
            c1 = min(c0 + _CHUNK_SAMPLES, s1)
            om = draw_disorder(vol.model, mc.master_seed, np.arange(c0, c1))
            om = om[:, : vol.n_blocks]
            if antithetic:
                both = rows(np.concatenate([om, 1.0 - om]))
                values[c0:c1] = 0.5 * (both[: c1 - c0] + both[c1 - c0 :])
            else:
                values[c0:c1] = rows(om)
        return values[s0:s1]

    workers = min(cpu_affinity(), -(-n // (_CHUNK_SAMPLES if shared_sweep else 1)))
    if workers == 1 and shared_sweep:
        fill((0, n))
    else:
        spans = [(n * k // workers, n * (k + 1) // workers) for k in range(workers)]
        with _one_blas_thread():
            rows = fork_map(fill, spans)
        # span 0 ran here and filled values in place
        for (s0, s1), span_rows in zip(spans[1:], rows[1:]):
            values[s0:s1] = span_rows
    return Estimate.from_samples(values, mc.master_seed)


def _each(row):
    """Rows of a chunk from a function of one sample's couplings."""
    return lambda oms: np.array([row(om) for om in oms])


def _spectral_parameters(energies, eps) -> np.ndarray:
    """E + i*eps with eps a scalar or an array broadcast against energies."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0.0):
        raise ValueError("imaginary shifts must be positive")
    return np.asarray(energies, dtype=float) + 1j * eps


# -- density of states ----------------------------------------------------------


def smoothed_dos_curve(
    model: ModelSpec,
    n_prefix_sites: int,
    energies: Sequence[float],
    eps: float | np.ndarray,
    mc: McConfig,
) -> list[Estimate]:
    """(1/pi) E[Im tr(P_0 (h - E - i eps)^{-1})] on an energy grid.

    eps is a scalar or an array that broadcasts against energies, e.g. a
    column of eps values against a row of energies; estimates come in the
    flattened (C) order of the broadcast grid.  Each chunk of samples takes
    one block_coupling_poles call for the whole grid (a Schur recursion on
    a chain, one eigh per sample elsewhere), and a sample's row is the
    conditional mean over the probe block's coupling,
    sum_k Im S_rho(mu_k / lambda) / (pi lambda).  Each grid point gets the
    bytes a call with that point alone would give.  Every eps must be
    positive.
    """
    zs = _spectral_parameters(energies, eps)
    vol = _Volume(model, n_prefix_sites)

    def rows(oms):
        return np.imag(vol.coupling_transforms(oms, zs, 0)[0]) / np.pi

    return _estimate(vol, mc, zs.size, rows, shared_sweep=vol.chain, dtype=np.float64)


def ids_curve(
    model: ModelSpec,
    n_prefix_sites: int,
    energies: Sequence[float],
    mc: McConfig,
) -> list[Estimate]:
    """E[tr(P_0 E_h((-inf, E]))] on an energy grid; ties at E are counted."""
    vol = _Volume(model, n_prefix_sites)
    es = np.asarray(energies, dtype=float)

    def row(om):
        evals, w = eigen_weights(vol.hamiltonian(om), vol.block0)
        return np.sum(w[:, None] * (evals[:, None] <= es[None, :]), axis=0)

    return _estimate(vol, mc, es.size, _each(row), shared_sweep=False, dtype=np.float64)


def dos_derivative_curve(
    model: ModelSpec,
    n_prefix_sites: int,
    energies: Sequence[float],
    eps: float | np.ndarray,
    ell: int,
    mc: McConfig,
) -> list[Estimate]:
    """d^ell/dE^ell E[tr(P_0 (h - E - i eps)^{-1})] on an energy grid.

    eps is a scalar or an array that broadcasts against energies, as in
    smoothed_dos_curve: all (E, eps) elements share each sample's draw,
    traces and score weight.

    Samples are reweighted by the log-density weights of the product law,
    with the probe block's coupling integrated exactly: the weight
    B_ell(S_1, ..., S_ell) is a complete Bell polynomial of the score sums,
    and since rho B_j(log-derivatives of rho) = rho^(j), its conditional mean
    over omega_0 is sum_j C(ell, j) B_(ell-j)(sums over the other blocks) T_j
    (see _Volume.coupling_transforms), with every B_(ell-j) from one
    score_weights call, at any ell that check_score_order accepts.  The other
    blocks' antithetic mirrors omega -> 1 - omega cancel their weight's odd part.
    """
    zs = _spectral_parameters(energies, eps)
    model.density.check_score_order(ell)
    vol = _Volume(model, n_prefix_sites)
    lam_pow = model.coupling ** (-ell)

    def rows(oms):
        ts = vol.coupling_transforms(oms, zs, ell)
        # B_0 .. B_ell of the other blocks' score sums
        sums = model.density.log_derivatives(oms[:, 1:], ell).sum(axis=-1)
        bell = score_weights(sums)[:, :, None]
        return lam_pow * sum(
            math.comb(ell, j) * bell[ell - j] * t for j, t in enumerate(ts)
        )

    return _estimate(vol, mc, zs.size, rows, shared_sweep=vol.chain, antithetic=ell > 0)


# -- fractional moments ----------------------------------------------------------


def fractional_moment_profile(
    model: ModelSpec,
    n_prefix_sites: int,
    z,
    source_block: int,
    target_blocks: Sequence[int],
    s: float,
    mc: McConfig,
) -> list[Estimate]:
    """E[ ||P_t (h - z)^{-1} P_src||^s ] for each target block t.

    One sparse factorization per sample serves every target, so the
    per-distance estimates share their disorder realizations.  The pattern of
    h0 plus the diagonal and its fill-reducing order are built once; a sample
    only rewrites the diagonal entries of a copy of its data, so no dense
    matrix is assembled.

    A source block of one site a has its coupling integrated exactly: with
    G^ the resolvent at omega_src = 0 and g = G^(a, a), the rank-one
    resolvent identity gives G(., a) = G^(., a) / (1 + lambda omega_src g),
    so a sample factors h - z at omega_src = 0 and its row is
    ||P_t G^ P_a||^s J with J = integral rho(x) |1 + lambda x g|^(-s) dx,
    one scalar shared by every target (fractional_inverse_moment, at the
    peak c = -1 / (lambda g), whose Im c >= Im z / lambda).  A source block
    of rank r > 1 keeps the sampled omega_src: the 2-norm of an r x r block
    has kinks in omega_src, which no fixed rule integrates exactly.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional exponent s={s} outside (0, 1)")
    vol = _Volume(model, n_prefix_sites)
    targets = [int(t) for t in target_blocks]
    for t in [source_block, *targets]:
        if not 0 <= t < vol.n_blocks:
            raise ValueError(f"block {t} outside the prefix volume")
    src_sites = model.projections.sites_of_block(source_block)
    tgt_sites = [model.projections.sites_of_block(t) for t in targets]
    pattern = CscPattern(*model.free.entries(vol.n_sites), vol.n_sites)
    rank_one = len(src_sites) == 1
    lam = model.coupling
    min_imag = complex(z).imag / lam  # a lower bound on Im c, c below

    def rows(oms):
        if rank_one:
            oms = oms.copy()
            oms[:, source_block] = 0.0
        norms = np.empty((len(oms), len(targets)))
        g = np.empty(len(oms), dtype=np.complex128)
        for i, om in enumerate(oms):
            data = pattern.data.copy()
            data[pattern.diag] += lam * np.repeat(om, vol.sizes)
            cols = pattern.resolvent_columns(data, z, src_sites)
            g[i] = cols[src_sites[0], 0]
            for j, idx in enumerate(tgt_sites):
                block = cols[idx, :]
                if block.shape == (1, 1):
                    norms[i, j] = abs(block[0, 0])
                else:
                    norms[i, j] = np.linalg.norm(block, 2)
        out = norms**s
        if rank_one:
            c = -1.0 / (lam * g)
            moment = fractional_inverse_moment(model.density, s, c, min_imag)
            out *= (np.abs(c) ** s * moment)[:, None]
        return out

    return _estimate(vol, mc, len(targets), rows, shared_sweep=False, dtype=np.float64)


def fit_decay(pairs: Sequence[tuple[float, Estimate]]) -> DecayFit:
    """Least-squares exponential decay fit through (distance, estimate) pairs.

    Only strictly positive means are usable on the log scale; points whose
    mean is within two standard errors of zero are dropped as noise floor.
    At least three points must survive.
    """
    pts = []
    any_positive = False
    for dist, est in pairs:
        m = est.mean.real if isinstance(est.mean, complex) else float(est.mean)
        if m > 0.0:
            any_positive = True
        if m <= 0.0 or m <= 2.0 * est.stderr:
            continue
        pts.append((float(dist), math.log(m)))
    if not any_positive:
        raise ValueError("all means are zero: inputs look exactly decoupled")
    if len(pts) < 3:
        raise ValueError(f"need at least 3 usable points, have {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(-slope),
        log_prefactor=float(intercept),
        r_squared=float(r2),
        n_points=len(pts),
    )


# -- telescoping over growing volumes ---------------------------------------------


def telescope_series_diagnostic(
    model: ModelSpec,
    k_range,
    ell: int,
    energy: float,
    eps: float,
    mc: McConfig,
) -> TelescopeReport:
    """Boundary terms T_K for K in k_range, their decay fit, and partial sums.

    All terms, the base-volume estimate, and the direct estimate on the
    largest volume come from one pass over shared samples.  Each chunk of
    samples, antithetic mirrors included at ell >= 1, takes one
    nested_block_traces call, which yields the trace of every nested volume
    from one pass over the largest volume (one O(n) outward bordering sweep
    for all lanes on a chain, one SuperLU factorization in natural order per
    lane on a box), and one cumulative sum of score weights over the blocks.
    """
    ks = [int(k) for k in k_range]
    if not ks or ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError("k_range must be a non-empty contiguous ascending range")
    if ks[0] < 1 or ks[-1] + 1 > model.n_blocks:
        raise ValueError(
            f"k_range {ks[0]}..{ks[-1]} needs volumes of {ks[-1] + 1} blocks, "
            f"model has {model.n_blocks}"
        )
    model.density.check_score_order(ell)
    z = complex(energy, eps)
    sites_of = model.projections.prefix_sites
    vol = _Volume(model, sites_of(ks[-1] + 1))
    prefix_sizes = [sites_of(k) for k in range(ks[0], ks[-1] + 2)]
    lam_pow = model.coupling ** (-ell)
    n_terms = len(ks)

    def rows(oms):
        # tr[:, j] and weight[:, j] belong to the volume of ks[0] + j blocks
        diagonals = vol.diagonals(oms)
        tr = nested_block_traces(vol.h0, diagonals, z, vol.block0, prefix_sizes,
                                 _plan=vol.plan, _row_sums=vol.row_sums)
        sums = np.cumsum(model.density.log_derivatives(oms, ell), axis=-1)
        weight = score_weights(sums)[ell][:, ks[0] - 1 :] * lam_pow
        out = np.empty((len(oms), n_terms + 2), dtype=np.complex128)
        out[:, :n_terms] = (tr[:, 1:] - tr[:, :-1]) * weight[:, 1:]
        out[:, n_terms] = tr[:, 0] * weight[:, 0]
        out[:, n_terms + 1] = tr[:, -1] * weight[:, -1]
        return out

    if not vol.chain:
        # a box factors on SuperLU, whose OpenBLAS is scipy's: loaded here,
        # it is pinned with numpy's while the samples run
        _superlu()
    *terms, base, direct = _estimate(
        vol, mc, n_terms + 2, rows, shared_sweep=vol.chain, antithetic=ell > 0
    )
    partial = complex(base.mean) + np.cumsum([complex(t.mean) for t in terms])
    abs_pairs = [
        (float(k), Estimate(abs(complex(t.mean)), t.stderr, t.n_samples, t.seed))
        for k, t in zip(ks, terms)
    ]
    try:
        fit = fit_decay(abs_pairs)
    except ValueError:
        fit = None
    supported = fit is not None and fit.rate > 0.0 and fit.r_squared >= 0.9
    return TelescopeReport(
        k_values=tuple(ks),
        terms=tuple(terms),
        base=base,
        direct=direct,
        partial_sums=partial,
        fit=fit,
        summability_supported=supported,
    )
