"""Estimator tests: exact identities, quadrature oracles, and route agreement.

Every stochastic assertion uses a pinned master seed and a 4-sigma band, so
the suite is deterministic.  Oracles are independent quadratures against the
single-site law or the reference routes of oracles.py, never a second call
into the code under test.
"""

import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import doslab
from doslab.disorder import SingleSiteDensity
from doslab.lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    build_box_enumeration,
)
from doslab.montecarlo import (
    DecayFit,
    Estimate,
    McConfig,
    draw_disorder,
    dos_derivative_curve,
    fit_decay,
    fractional_moment_profile,
    ids_curve,
    smoothed_dos_curve,
    telescope_series_diagnostic,
)
from doslab.quadrature import panel_rule
from forks import assert_no_child_left
from oracles import (
    agrees,
    assemble_hamiltonian,
    cdf,
    resolvent_power_curve,
    source_averaged_fractional_moments,
)


def chain_model(half_width, coupling, p=2, hopping=1.0):
    space = build_box_enumeration(1, half_width)
    free = (
        FreeOperatorSpec.nearest_neighbor(space, amplitude=hopping)
        if hopping
        else FreeOperatorSpec.zero(space)
    )
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space)),
        free=free,
        coupling=coupling,
        density=SingleSiteDensity(p),
    )


def density_quadrature(rho, f):
    x, w = panel_rule(0.0, 1.0, n_nodes=40, n_panels=40)
    return np.sum(w * rho.eval(x) * f(x))


# -- Estimate and config ---------------------------------------------------------


def test_estimate_from_real_samples():
    v = np.array([1.0, 2.0, 4.0, 5.0])
    [est] = Estimate.from_samples(v[:, None], seed=0)
    assert est.mean == v.mean()
    assert est.stderr == pytest.approx(v.std(ddof=1) / 2.0, rel=1e-14)
    assert est.n_samples == 4


def test_estimate_from_complex_samples():
    v = np.array([1 + 1j, 2 - 1j, 0 + 0j, 3 + 2j])
    [est] = Estimate.from_samples(v[:, None], seed=1)
    want = math.sqrt(v.real.var(ddof=1) + v.imag.var(ddof=1)) / 2.0
    assert est.mean == v.mean()
    assert est.stderr == pytest.approx(want, rel=1e-14)


def test_estimate_single_sample_has_zero_stderr():
    [est] = Estimate.from_samples(np.array([[3.5]]), seed=0)
    assert est.stderr == 0.0


@pytest.mark.parametrize("shape", [(500, 44), (100, 41), (20, 5), (7, 3), (1, 4)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_estimate_table_matches_each_column_alone(shape, complex_values):
    # one reduction of the whole table gives each column's own bytes
    rng = np.random.default_rng(shape[0])
    table = rng.standard_normal(shape)
    if complex_values:
        table = table + 1j * rng.standard_normal(shape)
    ests = Estimate.from_samples(table, seed=3)
    assert len(ests) == shape[1]
    n = shape[0]
    for col, est in zip(table.T, ests):
        assert est.mean == col.mean() and type(est.mean) is type(col.mean().item())
        assert (est.n_samples, est.seed) == (n, 3)
        if n == 1:
            assert est.stderr == 0.0
        elif complex_values:
            var = col.real.var(ddof=1) + col.imag.var(ddof=1)
            assert est.stderr == float(np.sqrt(var / n))
        else:
            assert est.stderr == float(np.sqrt(col.var(ddof=1) / n))


def test_estimate_agreement_band():
    a = Estimate(1.00, 0.01, 100, 0)
    assert agrees(a, Estimate(1.02, 0.01, 100, 1))
    assert not agrees(a, Estimate(1.20, 0.01, 100, 1))
    assert agrees(a, Estimate(1.20, 0.01, 100, 1), n_sigma=15)


def test_config_validation():
    with pytest.raises(ValueError, match="sample"):
        McConfig(n_samples=0, master_seed=0)


# -- determinism -------------------------------------------------------------------


def test_disorder_draws_are_reproducible_and_full_length():
    model = chain_model(4, coupling=2.0)
    a = draw_disorder(model, master_seed=12, index=7)
    b = draw_disorder(model, master_seed=12, index=7)
    assert np.array_equal(a, b)
    assert a.shape == (model.n_blocks,)
    assert np.all((a > 0) & (a < 1))
    assert not np.array_equal(a, draw_disorder(model, 12, 8))
    assert not np.array_equal(a, draw_disorder(model, 13, 7))


def test_estimates_are_bit_stable_across_reruns():
    # every estimator on the shared sampling driver, run twice
    model = chain_model(3, coupling=1.5)
    kwargs = dict(n_samples=64, master_seed=42)
    routes = {
        "dos": lambda mc: smoothed_dos_curve(model, 7, [0.5], 0.2, mc),
        "ids": lambda mc: ids_curve(model, 7, [-0.5, 0.5, 1.5], mc),
        "score-1": lambda mc: dos_derivative_curve(model, 7, [0.5], 0.2, 1, mc),
        "fracmom": lambda mc: fractional_moment_profile(
            model, 7, 0.5 + 0.2j, 0, [0, 1, 2, 3], 0.5, mc
        ),
        "telescope-1": lambda mc: telescope_series_diagnostic(
            model, range(2, 6), 1, 0.5, 0.2, mc
        ).terms,
    }
    for route, estimator in routes.items():
        one = estimator(McConfig(**kwargs))
        rerun = estimator(McConfig(**kwargs))
        assert [e.mean for e in rerun] == [e.mean for e in one], route
        assert [e.stderr for e in rerun] == [e.stderr for e in one], route


# -- smoothed density and its derivatives -------------------------------------------


def test_smoothed_dos_matches_convolution_oracle():
    # no hopping: the probe block sees only its own coupling, so the mean is
    # the single-site law smoothed by the Cauchy kernel; the coupling is
    # integrated exactly, so every sample gives that value and the stderr
    # vanishes
    model = chain_model(2, coupling=1.0, hopping=0.0)
    mc = McConfig(n_samples=3000, master_seed=5)
    for energy, eps in [(0.2, 0.2), (0.5, 0.05), (0.9, 0.2)]:
        est = smoothed_dos_curve(model, 5, [energy], eps, mc)[0]
        oracle = density_quadrature(
            model.density,
            lambda x: (eps / np.pi) / ((x - energy) ** 2 + eps**2),
        )
        assert abs(est.mean - oracle) <= 1e-9, (energy, eps)
        assert est.stderr <= 1e-12, (energy, eps)


def test_dos_derivative_order_zero_is_the_raw_trace():
    model = chain_model(3, coupling=2.0)
    mc = McConfig(n_samples=300, master_seed=9)
    smooth = smoothed_dos_curve(model, 7, [0.4], 0.3, mc)[0]
    raw = dos_derivative_curve(model, 7, [0.4], 0.3, ell=0, mc=mc)[0]
    assert_allclose(raw.mean.imag / np.pi, smooth.mean, rtol=1e-13)


def test_first_derivative_routes_agree():
    model = chain_model(6, coupling=2.0, p=2)
    mc = McConfig(n_samples=4000, master_seed=31)
    by_score = dos_derivative_curve(model, 13, [0.5], 0.3, ell=1, mc=mc)[0]
    by_power = resolvent_power_curve(model, 13, [0.5], 0.3, ell=1, mc=mc)[0]
    assert agrees(by_score, by_power), (by_score, by_power)


def test_second_derivative_routes_agree():
    model = chain_model(4, coupling=2.0, p=4)
    mc = McConfig(n_samples=6000, master_seed=77)
    by_score = dos_derivative_curve(model, 9, [0.8], 0.4, ell=2, mc=mc)[0]
    by_power = resolvent_power_curve(model, 9, [0.8], 0.4, ell=2, mc=mc)[0]
    assert agrees(by_score, by_power), (by_score, by_power)


def test_resolvent_route_matches_quadrature_oracle():
    # single uncoupled site: E[tr(P0 G^2)] = integral of rho(x)/(cx - z)^2
    model = chain_model(1, coupling=3.0, hopping=0.0)
    mc = McConfig(n_samples=2000, master_seed=13)
    est = resolvent_power_curve(model, 1, [1.5], 0.5, ell=1, mc=mc)[0]
    z = 1.5 + 0.5j
    oracle = density_quadrature(model.density, lambda x: 1.0 / (3.0 * x - z) ** 2)
    assert abs(est.mean - oracle) < 4 * est.stderr


def test_score_route_scales_with_the_coupling():
    # same disorder, couplings 2 and 4: the weight carries a 1/coupling factor,
    # so a mismatch there would show up as a factor-2 bias against the
    # resolvent-power oracle at either coupling
    for lam in (2.0, 4.0):
        model = chain_model(3, coupling=lam, p=3)
        mc = McConfig(n_samples=5000, master_seed=101)
        a = dos_derivative_curve(model, 7, [0.6], 0.5, ell=1, mc=mc)[0]
        b = resolvent_power_curve(model, 7, [0.6], 0.5, ell=1, mc=mc)[0]
        assert agrees(a, b), lam


def test_score_route_preconditions():
    mc = McConfig(n_samples=8, master_seed=0)
    flat = chain_model(2, coupling=1.0, p=1)
    with pytest.raises(ValueError, match="continuity order"):
        dos_derivative_curve(flat, 5, [0.0], 0.5, ell=1, mc=mc)
    model = chain_model(2, coupling=1.0, p=3)
    with pytest.raises(ValueError, match="orders up to"):
        dos_derivative_curve(model, 5, [0.0], 0.5, ell=3, mc=mc)
    with pytest.raises(ValueError, match="imaginary"):
        smoothed_dos_curve(model, 5, [0.0], -0.1, mc)


def test_score_route_variance_guard_boundary():
    # the order-ell weight has a finite second moment only for p >= 2*ell
    mc = McConfig(n_samples=8, master_seed=0)
    p3 = chain_model(2, coupling=1.0, p=3)
    with pytest.raises(ValueError, match=r"p >= 2\*ell = 4"):
        dos_derivative_curve(p3, 5, [0.0], 0.5, ell=2, mc=mc)
    with pytest.raises(ValueError, match=r"p >= 2\*ell = 4"):
        telescope_series_diagnostic(p3, range(2, 4), 2, 0.0, 0.5, mc)
    ok = dos_derivative_curve(p3, 5, [0.0], 0.5, ell=1, mc=mc)[0]
    assert np.isfinite(complex(ok.mean))
    p4 = chain_model(2, coupling=1.0, p=4)
    ok = dos_derivative_curve(p4, 5, [0.0], 0.5, ell=2, mc=mc)[0]
    assert np.isfinite(complex(ok.mean))


EPS_GRID = (0.4, 0.15, 0.05)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("energies", [[-0.7, 0.0, 0.4, 1.1], [0.3]])
@pytest.mark.parametrize("route", ["dos", "score-1", "score-2", "resolvent-1"])
def test_eps_grid_in_one_pass_equals_per_eps_calls(monkeypatch, route, energies, chunk):
    # a column of eps against a row of energies must give, bit for bit, the
    # estimates of one call per eps, at any chunk size; 13 sites, because
    # numpy sums 8 or more terms of a lone column pairwise
    import doslab.montecarlo as montecarlo

    monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
    mc = McConfig(n_samples=24, master_seed=17)
    if route == "dos":
        model = chain_model(6, coupling=2.0)

        def curve(eps):
            return smoothed_dos_curve(model, 13, energies, eps, mc)

    else:
        kind, ell = route.split("-")
        ell = int(ell)
        model = chain_model(6, coupling=2.0, p=2 * ell)
        estimator = resolvent_power_curve if kind == "resolvent" else dos_derivative_curve

        def curve(eps):
            return estimator(model, 13, energies, eps, ell, mc)

    grid = curve(np.array(EPS_GRID)[:, None])
    assert len(grid) == len(EPS_GRID) * len(energies)
    for j, eps in enumerate(EPS_GRID):
        row = grid[j * len(energies) : (j + 1) * len(energies)]
        single = curve(eps)
        assert [e.mean for e in row] == [e.mean for e in single], eps
        assert [e.stderr for e in row] == [e.stderr for e in single], eps
    with pytest.raises(ValueError, match="imaginary"):
        curve(np.array([[0.2], [0.0], [0.1]]))
    with pytest.raises(ValueError, match="imaginary"):
        curve(np.array([[0.2], [-0.1]]))


@pytest.mark.parametrize("route", ["dos", "score-1", "resolvent-1"])
def test_single_energy_equals_the_same_point_of_a_grid(route):
    # each grid point is reduced on its own, so a lone energy and the first
    # of two give the same bytes; 13 sites, so the eigen-sum is pairwise
    model = chain_model(6, coupling=2.0)
    mc = McConfig(n_samples=50, master_seed=21)
    energy, other, eps = 0.3, -1.1, 0.2
    if route == "dos":
        single = smoothed_dos_curve(model, 13, [energy], eps, mc)[0]
        first = smoothed_dos_curve(model, 13, [energy, other], eps, mc)[0]
    else:
        kind, ell = route.split("-")
        estimator = resolvent_power_curve if kind == "resolvent" else dos_derivative_curve
        single = estimator(model, 13, [energy], eps, int(ell), mc)[0]
        first = estimator(model, 13, [energy, other], eps, int(ell), mc)[0]
    assert single.mean == first.mean
    assert single.stderr == first.stderr


# -- the probe block's coupling, integrated exactly -----------------------------------


def block_model(dimension, half_width, rank, phase, p):
    space = build_box_enumeration(dimension, half_width)
    amp = complex(math.cos(phase), math.sin(phase)) if phase else 1.0
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), rank),
        free=FreeOperatorSpec.nearest_neighbor(space, amplitude=amp),
        coupling=2.0,
        density=SingleSiteDensity(p),
    )


# a rank-1 chain and a rank-3 chain with a phase (Schur route), and a rank-5
# 2-d box with a phase (eigh route)
CONDITIONED_CASES = {
    "chain-rank1": (1, 6, 1, 0.0),
    "chain-rank3-phase": (1, 7, 3, 0.4),
    "box2d-rank5-phase": (2, 2, 5, 0.7),
}


def coupling_integral_oracle(model, om, zs, ell):
    """Per-sample row with omega_0 integrated against rho by Gauss-Legendre.

    The integrand rho(x) B_ell(scores of (x, omega_rest)) tr(P_0 (h - z)^{-1})
    has its poles at Im x >= Im z / lambda, so panels of width
    Im z / lambda resolve them; every trace is a dense inverse.
    """
    lam, rho = model.coupling, model.density
    n = model.projections.prefix_sites(len(om))
    block = model.projections.sites_of_block(0)
    n_panels = int(np.ceil(lam / np.min(zs.imag)))
    x, w = panel_rule(0.0, 1.0, n_nodes=16, n_panels=n_panels)
    out = np.zeros(zs.size, dtype=complex)
    for xk, wk in zip(x, w):
        full = np.concatenate([[xk], om[1:]])
        h = assemble_hamiltonian(model, full, n)
        tr = [
            np.trace(np.linalg.inv(h - z * np.eye(n))[np.ix_(block, block)])
            for z in zs
        ]
        weight = wk * rho.eval(xk) * rho.score_factor(full, ell) * lam ** (-ell)
        out += weight * np.array(tr)
    return out


@pytest.mark.parametrize("route", ["dos", "score-1", "score-2"])
@pytest.mark.parametrize(
    "case", [*CONDITIONED_CASES, "chain-rank1-eigh", "chain-rank3-phase-eigh"]
)
def test_conditioned_rows_match_the_dense_coupling_quadrature(monkeypatch, case, route):
    import doslab.spectral as spectral

    if case.endswith("-eigh"):
        # the chains on the eigh route as well: no path, no Schur recursion
        monkeypatch.setattr(spectral, "_path_order", lambda h0: None)
        case = case[: -len("-eigh")]
    dimension, half_width, rank, phase = CONDITIONED_CASES[case]
    ell = 0 if route == "dos" else int(route[-1])
    model = block_model(dimension, half_width, rank, phase, p=max(2, 2 * ell))
    n = len(model.site_space)
    energies, eps = np.array([-0.7, 0.4, 1.9]), 0.1
    zs = energies + 1j * eps
    for seed in (3, 4):
        # one sample: the estimate is that sample's row
        mc = McConfig(n_samples=1, master_seed=seed)
        om = draw_disorder(model, seed, 0)
        if route == "dos":
            got = [e.mean for e in smoothed_dos_curve(model, n, energies, eps, mc)]
            want = coupling_integral_oracle(model, om, zs, 0).imag / np.pi
        else:
            ests = dos_derivative_curve(model, n, energies, eps, ell, mc)
            got = [complex(e.mean) for e in ests]
            # the other blocks' antithetic mirror
            want = 0.5 * (
                coupling_integral_oracle(model, om, zs, ell)
                + coupling_integral_oracle(model, 1.0 - om, zs, ell)
            )
        gap = np.abs(np.array(got) - want)
        assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("case", list(CONDITIONED_CASES))
def test_every_dos_row_obeys_the_wegner_bound(case):
    # Im S_rho(u) <= pi sup rho, so each of the rank poles adds at most
    # sup rho / lambda, at any eps; the sampled trace (1/pi) Im tr(P_0 G)
    # reaches rank / (pi eps) instead
    from doslab.montecarlo import _Volume

    dimension, half_width, rank, phase = CONDITIONED_CASES[case]
    model = block_model(dimension, half_width, rank, phase, p=2)
    vol = _Volume(model, len(model.site_space))
    zs = np.linspace(-4.0, 6.0, 41) + 1e-3j
    oms = np.array([draw_disorder(model, 11, i) for i in range(64)])
    rows = np.imag(vol.coupling_transforms(oms, zs, 0)[0]) / np.pi
    bound = rank * model.density.sup_derivative(0) / model.coupling
    assert np.all(rows >= 0.0)
    assert np.all(rows <= bound * (1.0 + 1e-12))


# -- integrated density of states ----------------------------------------------------


def test_ids_matches_the_single_site_law():
    model = chain_model(2, coupling=2.0, hopping=0.0, p=3)
    mc = McConfig(n_samples=4000, master_seed=3)
    for energy in (0.4, 1.0, 1.6):
        est = ids_curve(model, 5, [energy], mc)[0]
        want = float(cdf(model.density, energy / 2.0))
        assert abs(est.mean - want) < 4 * est.stderr + 1e-12, energy


def test_ids_saturates_above_the_spectrum():
    model = chain_model(3, coupling=1.5)
    mc = McConfig(n_samples=200, master_seed=8)
    est = ids_curve(model, 7, [3.6], mc)[0]  # above ||h0|| + coupling
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.stderr < 1e-13
    below = ids_curve(model, 7, [-3.6], mc)[0]
    assert below.mean == pytest.approx(0.0, abs=1e-12)


def test_ids_curve_is_monotone():
    model = chain_model(3, coupling=2.0)
    mc = McConfig(n_samples=500, master_seed=21)
    ests = ids_curve(model, 7, np.linspace(-3, 5, 17), mc)
    means = np.array([e.mean for e in ests])
    assert np.all(np.diff(means) >= -1e-13)


# -- fractional moments ---------------------------------------------------------------


def test_fractional_moment_decouples_without_hopping():
    model = chain_model(3, coupling=2.0, hopping=0.0)
    mc = McConfig(n_samples=500, master_seed=2)
    profile = fractional_moment_profile(
        model, 7, 1.0 + 0.3j, source_block=0, target_blocks=[1, 2, 3], s=0.5, mc=mc
    )
    for est in profile:
        assert est.mean == 0.0
        assert est.stderr == 0.0


def test_fractional_moment_on_site_matches_quadrature():
    model = chain_model(1, coupling=2.0, hopping=0.0, p=2)
    mc = McConfig(n_samples=4000, master_seed=37)
    z = 1.0 + 0.25j
    s = 1.0 / 3.0
    est = fractional_moment_profile(model, 1, z, 0, [0], s, mc)[0]
    oracle = density_quadrature(model.density, lambda x: np.abs(2.0 * x - z) ** (-s))
    # the source coupling is integrated exactly, so every sample gives the
    # oracle's value and the stderr vanishes
    assert abs(est.mean - oracle) <= 1e-12 * oracle
    assert est.stderr <= 1e-12


def test_fractional_moment_respects_the_shift_bound():
    model = chain_model(4, coupling=1.0)
    mc = McConfig(n_samples=300, master_seed=44)
    s, eps = 0.4, 0.05
    profile = fractional_moment_profile(
        model, 9, 0.5 + eps * 1j, 0, [0, 1, 2, 3, 4], s, mc
    )
    for est in profile:
        assert est.mean <= eps ** (-s) * (1 + 1e-12)


def test_fractional_moment_shrinks_with_stronger_coupling():
    mc = McConfig(n_samples=2000, master_seed=71)
    z = 1.0 + 0.5j
    means = []
    for lam in (2.0, 8.0, 32.0):
        model = chain_model(1, coupling=lam, hopping=0.0)
        est = fractional_moment_profile(model, 1, z, 0, [0], 0.5, mc)[0]
        means.append((est.mean, est.stderr))
    for (m_small, se_small), (m_big, se_big) in zip(means, means[1:]):
        assert m_small - m_big > 2 * math.hypot(se_small, se_big)


def test_fractional_moment_matches_dense_oracle_without_dense_assembly(monkeypatch):
    import doslab.montecarlo as montecarlo

    space = build_box_enumeration(2, 3)
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), rank=7),
        free=FreeOperatorSpec.nearest_neighbor(space, amplitude=complex(0.6, 0.8)),
        coupling=3.0,
        density=SingleSiteDensity(2),
    )
    n, z, s, targets = len(space), 0.4 + 0.1j, 0.5, [0, 1, 3, 6]
    mc = McConfig(n_samples=12, master_seed=5)
    src = model.projections.sites_of_block(0)
    oracle = []
    for i in range(mc.n_samples):
        h = assemble_hamiltonian(model, draw_disorder(model, mc.master_seed, i), n)
        g = np.linalg.solve(h - z * np.eye(n), np.eye(n)[:, src])
        oracle.append(
            [np.linalg.norm(g[model.projections.sites_of_block(t)], 2) ** s for t in targets]
        )

    def refuse(*args, **kwargs):
        raise AssertionError("dense n x n assembly on the fracmom path")

    monkeypatch.setattr(montecarlo._Volume, "hamiltonian", refuse)
    monkeypatch.setattr(FreeOperatorSpec, "matrix", refuse)
    profile = fractional_moment_profile(model, n, z, 0, targets, s, mc)
    for est, want in zip(profile, np.mean(oracle, axis=0)):
        assert abs(est.mean - want) <= 1e-12 * want


@pytest.mark.parametrize(
    "box", [(1, 10, 0.4, 2.0, 0.5 + 0.1j), (2, 2, 0.7, 3.0, 0.4 + 0.2j)],
    ids=["chain-phase", "box2d-phase"],
)
def test_fractional_moment_rank_one_rows_match_source_quadrature(box):
    # a rank-one source has its coupling integrated exactly: every target's
    # mean, the source's own included, matches a brute-force rule in
    # omega_src with one dense solve per node, sample by sample
    dimension, half_width, phase, coupling, z = box
    space = build_box_enumeration(dimension, half_width)
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space)),
        free=FreeOperatorSpec.nearest_neighbor(
            space, amplitude=complex(math.cos(phase), math.sin(phase))
        ),
        coupling=coupling,
        density=SingleSiteDensity(2),
    )
    n, targets, s = len(space), [0, 1, 2, 5, 9], 0.4
    mc = McConfig(n_samples=6, master_seed=19)
    got = fractional_moment_profile(model, n, z, 0, targets, s, mc)
    want = source_averaged_fractional_moments(model, n, z, 0, targets, s, mc)
    for est, ref in zip(got, want):
        assert abs(est.mean - ref.mean) <= 1e-9 * ref.mean
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-9)


def test_fractional_moment_source_rule_carries_its_drift_guard(monkeypatch):
    import doslab.disorder as disorder

    model = chain_model(2, coupling=1.0)
    mc = McConfig(n_samples=2, master_seed=0)
    fractional_moment_profile(model, 5, 0.5 + 0.1j, 0, [1, 2], 0.5, mc)
    monkeypatch.setattr(disorder, "_GRADED_DRIFT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="node doubling"):
        fractional_moment_profile(model, 5, 0.5 + 0.1j, 0, [1, 2], 0.5, mc)


def test_fractional_moment_validation():
    model = chain_model(2, coupling=1.0)
    mc = McConfig(n_samples=8, master_seed=0)
    with pytest.raises(ValueError, match="outside"):
        fractional_moment_profile(model, 3, 1j, 0, [4], 0.5, mc)
    with pytest.raises(ValueError, match="exponent"):
        fractional_moment_profile(model, 3, 1j, 0, [1], 1.2, mc)


def test_fractional_moment_solves_carry_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    model = chain_model(2, coupling=1.0)
    mc = McConfig(n_samples=2, master_seed=0)
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        fractional_moment_profile(model, 5, 0.5 + 0.1j, 0, [1, 2], 0.5, mc)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_prefix_score_factors_match_score_factor(ell):
    # the telescope weights every nested volume from one cumulative sum
    rho = SingleSiteDensity(4)
    om = rho.sample(np.random.default_rng(29), size=41)
    got = rho.prefix_score_factors(om, ell)
    assert got.shape == om.shape
    for k in range(1, om.size + 1):
        want = rho.score_factor(om[:k], ell)
        assert abs(got[k - 1] - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(ValueError, match="ell in 0..2"):
        rho.prefix_score_factors(om, 3)


# -- decay fits -------------------------------------------------------------------------


def synthetic_pairs(rate, prefactor, dists, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for d in dists:
        mean = prefactor * math.exp(-rate * d) * (1.0 + noise * rng.standard_normal())
        out.append((d, Estimate(mean, noise * mean if noise else 1e-12, 100, 0)))
    return out


def test_fit_recovers_exact_exponential():
    fit = fit_decay(synthetic_pairs(2.0, 3.0, range(1, 9)))
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.log_prefactor == pytest.approx(math.log(3.0), abs=1e-11)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 8


def test_fit_on_constant_data_reports_zero_rate():
    pairs = [(d, Estimate(0.7, 1e-9, 10, 0)) for d in range(1, 6)]
    fit = fit_decay(pairs)
    assert abs(fit.rate) < 1e-10
    assert fit.r_squared == 1.0


def test_fit_recovers_noisy_rate_within_five_percent():
    fit = fit_decay(synthetic_pairs(0.8, 3.0, range(1, 12), noise=0.01, seed=6))
    assert abs(fit.rate - 0.8) < 0.05 * 0.8
    assert fit.r_squared > 0.99


def test_fit_window_and_noise_floor():
    pairs = synthetic_pairs(1.0, 1.0, range(1, 8))
    # corrupt the tail, then exclce it by window
    pairs[-1] = (7.0, Estimate(5.0, 1e-12, 100, 0))
    fit = fit_decay(pairs, window=(1.0, 6.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-10)
    assert fit.n_points == 6
    # a mean below two standard errors is dropped as noise
    pairs[2] = (3.0, Estimate(1e-9, 1e-3, 100, 0))
    fit2 = fit_decay(pairs, window=(1.0, 6.0))
    assert fit2.n_points == 5


def test_fit_error_cases():
    zeros = [(d, Estimate(0.0, 0.0, 10, 0)) for d in range(1, 6)]
    with pytest.raises(ValueError, match="decoupled"):
        fit_decay(zeros)
    two = synthetic_pairs(1.0, 1.0, [1, 2])
    with pytest.raises(ValueError, match="at least 3"):
        fit_decay(two)


# -- telescoping over growing volumes -----------------------------------------------


def test_telescope_terms_vanish_without_hopping():
    model = chain_model(4, coupling=2.0, hopping=0.0)
    mc = McConfig(n_samples=100, master_seed=14)
    report = telescope_series_diagnostic(model, range(2, 7), 0, 1.0, 0.3, mc)
    for term in report.terms:
        assert term.mean == 0.0 and term.stderr == 0.0
    assert report.fit is None
    assert not report.summability_supported


def test_telescope_partial_sums_close_exactly_at_order_zero():
    model = chain_model(4, coupling=3.0)
    mc = McConfig(n_samples=400, master_seed=26)
    report = telescope_series_diagnostic(model, range(2, 8), 0, 0.5, 0.4, mc)
    assert report.k_values == tuple(range(2, 8))
    gap = abs(report.partial_sums[-1] - complex(report.direct.mean))
    assert gap < 1e-10 * max(1.0, abs(complex(report.direct.mean)))


def test_telescope_terms_match_independent_volume_estimates():
    # the resolvent-power oracle samples omega_0 like the telescope does
    # (dos-deriv integrates it), so the identity holds draw for draw
    model = chain_model(4, coupling=2.0)
    mc = McConfig(n_samples=300, master_seed=33)
    term = telescope_series_diagnostic(model, range(3, 4), 0, 0.2, 0.5, mc).terms[0]
    small, large = (
        resolvent_power_curve(model, n, [0.2], 0.5, 0, mc)[0] for n in (3, 4)
    )
    assert_allclose(
        complex(term.mean),
        complex(large.mean) - complex(small.mean),
        rtol=1e-10,
        atol=1e-13,
    )


def test_telescope_first_order_terms_decay():
    model = chain_model(5, coupling=2.0)
    mc = McConfig(n_samples=1500, master_seed=48)
    report = telescope_series_diagnostic(model, range(2, 9), 1, 0.0, 0.5, mc)
    mags = [abs(complex(t.mean)) for t in report.terms]
    assert mags[-1] < mags[0]
    assert report.fit is not None and report.fit.rate > 0.0


def test_telescope_traces_carry_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    model = chain_model(3, coupling=1.0)
    mc = McConfig(n_samples=2, master_seed=0)
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        telescope_series_diagnostic(model, range(2, 5), 1, 0.0, 0.5, mc)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_telescope_terms_are_bit_stable_across_chunks_and_workers(monkeypatch, ell):
    import doslab.montecarlo as montecarlo
    import doslab.spectral as spectral

    # 12 sites in the largest volume: the outward sweep, never the dense LU
    def dense(*args):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(spectral, "_dense_prefix_traces", dense)
    model = chain_model(8, coupling=2.0, p=4)
    default = montecarlo._CHUNK_SAMPLES

    def run(chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
        mc = McConfig(n_samples=40, master_seed=61)
        r = telescope_series_diagnostic(model, range(2, 11), ell, 0.5, 0.2, mc)
        ests = (*r.terms, r.base, r.direct)
        return [e.mean for e in ests], [e.stderr for e in ests]

    want = run(default)
    for chunk in (1, 7, default):
        assert run(chunk) == want, chunk


@pytest.mark.parametrize("rank", [1, 7])
def test_fractional_moments_are_bit_stable_across_chunks(monkeypatch, rank):
    import doslab.montecarlo as montecarlo

    # rank 1 takes the source-conditioned rows on a chain, rank 7 the
    # sampled source on a 2-d box with a phase
    if rank == 1:
        model = chain_model(8, coupling=2.0)
        n, z, targets = 17, 0.5 + 0.1j, [0, 1, 3, 8]
    else:
        space = build_box_enumeration(2, 3)
        model = ModelSpec(
            site_space=space,
            projections=ProjectionFamily.contiguous(len(space), rank=7),
            free=FreeOperatorSpec.nearest_neighbor(space, amplitude=complex(0.6, 0.8)),
            coupling=3.0,
            density=SingleSiteDensity(2),
        )
        n, z, targets = len(space), 0.4 + 0.1j, [0, 1, 3, 6]
    default = montecarlo._CHUNK_SAMPLES

    def run(chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
        mc = McConfig(n_samples=20, master_seed=67)
        ests = fractional_moment_profile(model, n, z, 0, targets, 0.5, mc)
        return [e.mean for e in ests], [e.stderr for e in ests]

    want = run(default)
    for chunk in (1, 7, default):
        assert run(chunk) == want, chunk


@pytest.mark.parametrize("route", ["dos", "score-1", "score-2"])
def test_dos_curves_are_bit_stable_across_chunks_and_workers(monkeypatch, route):
    import doslab.montecarlo as montecarlo
    import doslab.spectral as spectral

    # 17 sites of a chain: the Schur recursion, never eigh
    def dense(*args):
        raise AssertionError("eigh route taken")

    monkeypatch.setattr(spectral, "_eigen_poles", dense)
    model = chain_model(8, coupling=2.0, p=4)
    eps = np.array([[0.3], [0.05]])
    default = montecarlo._CHUNK_SAMPLES

    def run(chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
        mc = McConfig(n_samples=40, master_seed=63)
        if route == "dos":
            ests = smoothed_dos_curve(model, 17, [-0.5, 0.4, 1.2], eps, mc)
        else:
            ell = int(route[-1])
            ests = dos_derivative_curve(model, 17, [-0.5, 0.4, 1.2], eps, ell, mc)
        return [e.mean for e in ests], [e.stderr for e in ests]

    want = run(default)
    for chunk in (1, 7, default):
        assert run(chunk) == want, chunk


def test_telescope_validation():
    model = chain_model(3, coupling=1.0)
    mc = McConfig(n_samples=8, master_seed=0)
    with pytest.raises(ValueError, match="contiguous"):
        telescope_series_diagnostic(model, [2, 4], 0, 0.0, 0.5, mc)
    with pytest.raises(ValueError, match="needs volumes"):
        telescope_series_diagnostic(model, range(2, 8), 0, 0.0, 0.5, mc)


# -- sample spans on forked processes ----------------------------------------------


def box_model(half_width, rank=1, amplitude=1.0):
    space = build_box_enumeration(2, half_width)
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), rank=rank),
        free=FreeOperatorSpec.nearest_neighbor(space, amplitude=amplitude),
        coupling=3.0 if rank > 1 else 2.0,
        density=SingleSiteDensity(2),
    )


def spanned_estimate(route):
    """The means and stderrs of one route's estimates."""
    if route.startswith("fracmom"):
        rank = int(route[-1])
        if rank == 1:
            model, n = chain_model(8, coupling=2.0), 17
        else:
            model = box_model(4, rank=rank, amplitude=complex(0.6, 0.8))
            n = len(model.site_space)
        mc = McConfig(n_samples=7, master_seed=71)
        ests = fractional_moment_profile(model, n, 0.4 + 0.1j, 0, [0, 1, 3, 5], 0.5, mc)
    elif route == "ids":
        # 169 sites: eigh's bytes depend on the BLAS thread count here
        model = box_model(6)
        mc = McConfig(n_samples=7, master_seed=73)
        ests = ids_curve(model, len(model.site_space), [-1.0, 0.0, 1.5], mc)
    elif route.endswith("telescope"):
        mc = McConfig(n_samples=300, master_seed=79)
        if route == "box-telescope":
            model, ks = box_model(2), range(2, 8)
        else:
            model, ks = chain_model(8, coupling=2.0, p=4), range(2, 11)
        r = telescope_series_diagnostic(model, ks, 1, 0.5, 0.2, mc)
        ests = (*r.terms, r.base, r.direct)
    elif route == "box-dos-deriv":
        model = box_model(6)
        mc = McConfig(n_samples=12, master_seed=97)
        ests = dos_derivative_curve(model, len(model.site_space), [-1.0, 0.3], 0.1, 1, mc)
    elif route.startswith("box-dos"):
        # the 169-site box again, within one chunk of samples and beyond it
        model = box_model(6)
        mc = McConfig(n_samples=int(route.rsplit("-", 1)[1]), master_seed=89)
        ests = smoothed_dos_curve(model, len(model.site_space), [-1.0, 0.3], 0.1, mc)
    else:
        mc = McConfig(n_samples=300, master_seed=83)
        ests = smoothed_dos_curve(chain_model(8, coupling=2.0), 17, [-0.5, 1.2], 0.1, mc)
    return [e.mean for e in ests], [e.stderr for e in ests]


@pytest.fixture
def blas_threads():
    """Sets every OpenBLAS this process has loaded, scipy's included, to a
    thread count for real; the old counts come back after the test."""
    import scipy.sparse.linalg  # noqa: F401

    from doslab.montecarlo import loaded_openblas

    libs = loaded_openblas()
    before = [lib.get_threads() for lib in libs]

    def put(count):
        for lib in libs:
            lib.set_threads(count)

    yield put
    for lib, count in zip(libs, before):
        lib.set_threads(count)


# span counts on 1, 2 and 3 CPUs (0: inline, with no pin)
SPANS = {
    # rows that loop over the samples: one span per CPU, up to one per
    # sample, and one BLAS thread even inline
    "fracmom-1": {1: 1, 2: 2, 3: 3},
    "fracmom-3": {1: 1, 2: 2, 3: 3},
    "ids": {1: 1, 2: 2, 3: 3},
    "box-dos-12": {1: 1, 2: 2, 3: 3},
    "box-dos-300": {1: 1, 2: 2, 3: 3},
    "box-dos-deriv": {1: 1, 2: 2, 3: 3},
    "box-telescope": {1: 1, 2: 2, 3: 3},
    # one sweep over all lanes of a chunk: spans of at least one chunk, so
    # 300 samples make two
    "telescope": {1: 0, 2: 2, 3: 2},
    "dos": {1: 0, 2: 2, 3: 2},
}


@pytest.mark.parametrize("route", SPANS)
def test_tables_do_not_depend_on_the_cpu_count(monkeypatch, blas_threads, route):
    # The runs on 1, 2 and 3 CPUs have two BLAS threads, and must give the
    # bytes of a run whose BLAS has one: patching cpu_affinity alone leaves
    # OpenBLAS's own thread count where it was.
    import doslab.montecarlo as montecarlo

    blas_threads(1)
    reference = spanned_estimate(route)
    fork_map, seen = montecarlo.fork_map, []

    def recorded(fill, spans):
        # NaN first in the table fill writes into: a span whose rows never
        # arrive cannot pass for a table left in reused memory by the run
        # before
        seen.append(len(spans))
        inspect.getclosurevars(fill).nonlocals["values"].fill(np.nan)
        return fork_map(fill, spans)

    monkeypatch.setattr(montecarlo, "fork_map", recorded)
    blas_threads(2)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "cpu_affinity", lambda cpus=cpus: cpus)
        seen.clear()
        assert spanned_estimate(route) == reference
        assert max(seen, default=0) == SPANS[route][cpus]
        assert_no_child_left()


@pytest.mark.parametrize("route", ["box-telescope", "box-dos", "fracmom", "ids"])
def test_every_blas_a_run_calls_is_loaded_before_the_pin(route):
    # a fresh process that has loaded numpy alone: whatever BLAS the route's
    # rows call must already be mapped when _one_blas_thread looks
    script = (
        "import doslab.montecarlo as mc\n"
        "from doslab.disorder import SingleSiteDensity\n"
        "from doslab.lattice import (FreeOperatorSpec, ModelSpec, ProjectionFamily,\n"
        "    build_box_enumeration)\n"
        "space = build_box_enumeration(2, 2)\n"
        "model = ModelSpec(site_space=space, projections=ProjectionFamily.contiguous(25),\n"
        "    free=FreeOperatorSpec.nearest_neighbor(space), coupling=2.0,\n"
        "    density=SingleSiteDensity(2))\n"
        "find, seen = mc.loaded_openblas, []\n"
        "def recorded():\n"
        "    libs = find()\n"
        "    seen.append(sorted(lib.name for lib in libs))\n"
        "    return libs\n"
        "mc.loaded_openblas = recorded\n"
        "plan = mc.McConfig(3, 5)\n"
        f"route = {route!r}\n"
        "if route == 'box-telescope':\n"
        "    mc.telescope_series_diagnostic(model, range(2, 8), 1, 0.5, 0.2, plan)\n"
        "elif route == 'box-dos':\n"
        "    mc.smoothed_dos_curve(model, 25, [0.3], 0.1, plan)\n"
        "elif route == 'fracmom':\n"
        "    mc.fractional_moment_profile(model, 25, 0.3 + 0.1j, 0, [1, 4], 0.5, plan)\n"
        "else:\n"
        "    mc.ids_curve(model, 25, [0.3], plan)\n"
        "assert seen, 'the rows ran unpinned'\n"
        "after = sorted(lib.name for lib in find())\n"
        "assert seen == [after], (seen, after)\n"
    )
    src = os.path.dirname(os.path.dirname(doslab.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr


def test_a_residual_failure_in_a_child_span_reaches_the_caller(monkeypatch):
    import doslab.montecarlo as montecarlo
    import doslab.spectral as spectral

    model = chain_model(8, coupling=2.0)
    mc = McConfig(n_samples=4, master_seed=5)
    real_draw = montecarlo.draw_disorder

    def draw(model, seed, index):
        # from sample 2 on no solve meets the guard; on 2 CPUs sample 2
        # opens the child's span, so only the child's guard changes
        if index == 2:
            monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
        return real_draw(model, seed, index)

    monkeypatch.setattr(montecarlo, "draw_disorder", draw)
    monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", 2)
    messages = {}
    for cpus in (2, 1):
        monkeypatch.setattr(montecarlo, "cpu_affinity", lambda cpus=cpus: cpus)
        with pytest.raises(RuntimeError, match="resolvent solve residual") as info:
            fractional_moment_profile(model, 17, 0.5 + 0.1j, 0, [1, 3], 0.5, mc)
        assert type(info.value) is RuntimeError
        messages[cpus] = str(info.value)
        if cpus == 2:
            assert spectral._RESIDUAL_REL_TOL == 1e-10
        assert_no_child_left()
    # the child's error is the one sample 2 raises inline
    assert messages[2] == messages[1]


def test_blas_runs_one_thread_in_the_spans_and_gets_its_threads_back(monkeypatch):
    import scipy.sparse.linalg  # noqa: F401

    import doslab.montecarlo as montecarlo
    import doslab.spectral as spectral

    libs = montecarlo.loaded_openblas()
    if not libs:
        pytest.skip("no OpenBLAS loaded")
    before = [lib.get_threads() for lib in libs]
    real_draw, seen = montecarlo.draw_disorder, []

    def draw(model, seed, index):
        # what the parent's span sees; a child's list dies with it
        seen.append([lib.get_threads() for lib in libs])
        return real_draw(model, seed, index)

    monkeypatch.setattr(montecarlo, "draw_disorder", draw)
    monkeypatch.setattr(montecarlo, "cpu_affinity", lambda: 2)
    model, mc = chain_model(8, coupling=2.0), McConfig(n_samples=4, master_seed=5)
    try:
        for lib in libs:
            lib.set_threads(2)
        fractional_moment_profile(model, 17, 0.5 + 0.1j, 0, [1, 3], 0.5, mc)
        assert seen == [[1] * len(libs)] * 2
        assert [lib.get_threads() for lib in libs] == [2] * len(libs)
        monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
        with pytest.raises(RuntimeError, match="residual"):
            fractional_moment_profile(model, 17, 0.5 + 0.1j, 0, [1, 3], 0.5, mc)
        assert [lib.get_threads() for lib in libs] == [2] * len(libs)
    finally:
        for lib, count in zip(libs, before):
            lib.set_threads(count)
    assert_no_child_left()


def test_chain_sweeps_within_one_chunk_stay_inline_with_no_blas_lookup(monkeypatch):
    import doslab.montecarlo as montecarlo

    def refused(*args):
        raise AssertionError("forked or looked up the BLAS")

    monkeypatch.setattr(montecarlo, "cpu_affinity", lambda: 2)
    monkeypatch.setattr(montecarlo, "loaded_openblas", refused)
    monkeypatch.setattr(os, "fork", refused)
    model = chain_model(8, coupling=2.0, p=4)
    mc = McConfig(n_samples=montecarlo._CHUNK_SAMPLES, master_seed=3)
    telescope_series_diagnostic(model, range(2, 11), 1, 0.5, 0.2, mc)
    smoothed_dos_curve(model, 17, [0.3], 0.1, mc)
    dos_derivative_curve(model, 17, [0.3], 0.1, 1, mc)
