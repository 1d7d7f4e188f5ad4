"""Checks for the analytic-identity verification layer.

The verify ops are themselves testers, so most cases here pin their trivial
and small derived examples, their rejection paths, and their determinism;
the full-scale corpora live in the acceptance suite.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from doslab.disorder import SingleSiteDensity, stieltjes_transform
from doslab.verify import (
    _EIG_COND_LIMIT,
    BumpPair,
    CheckReport,
    Corpus,
    _batched_expi,
    average_bound_terms,
    averaging_corpus,
    smoothstep,
    verify_boundary_derivatives,
    verify_finite_smooth,
    verify_resolvent_average_bound,
    verify_resolvent_semigroup_identity,
    verify_semigroup_hoelder,
    verify_spectral_averaging,
)


def random_symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


# -- smooth cutoff machinery ---------------------------------------------------


def test_smoothstep_is_exact_at_the_clamps():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(-3.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(17.0) == 1.0
    inside = smoothstep(np.linspace(0.05, 0.95, 19))
    assert np.all((inside > 0.0) & (inside < 1.0))
    assert np.all(np.diff(inside) > 0)


def test_smoothstep_partition_identity():
    t = np.linspace(-0.5, 1.5, 101)
    assert_allclose(smoothstep(t) + smoothstep(1.0 - t), 1.0, atol=1e-15)


def test_bump_pair_cutoff_support_and_core():
    pair = BumpPair(r=1.0, transition=0.1)
    lo, hi = pair.cutoff_support()
    assert lo == -3.5 and hi == -0.5
    assert pair.cutoff(lo) == 0.0
    assert pair.cutoff(hi) == 0.0
    assert pair.cutoff(lo - 0.7) == 0.0
    assert pair.cutoff(hi + 0.7) == 0.0
    # one on the core, i.e. transition width inside either edge
    core = np.linspace(lo + 0.1, hi - 0.1, 31)
    assert_allclose(pair.cutoff(core), 1.0, atol=0)


def test_bump_pair_densities_normalized_on_scaled_support():
    pair = BumpPair(r=2.0, rho1=SingleSiteDensity(2), rho2=SingleSiteDensity(4))
    x = np.linspace(0.0, 2.0, 20001)
    for dens in (pair.density1, pair.density2):
        mass = np.trapezoid(dens(x), x)
        assert abs(mass - 1.0) < 1e-6
    assert pair.density1(-0.3) == 0.0
    assert pair.density2(2.3) == 0.0


def test_bump_pair_validation():
    with pytest.raises(ValueError, match="radius"):
        BumpPair(r=0.0)
    with pytest.raises(ValueError, match="transition"):
        BumpPair(r=0.5, transition=1.5)
    with pytest.raises(ValueError, match="tau"):
        BumpPair(tau=-1.0)


# -- exact transform of polynomial densities -----------------------------------


def quad_transform(rho, order, z):
    re = quad(lambda x: (rho.eval(x, order) / (x - z)).real, 0, 1, limit=200)[0]
    im = quad(lambda x: (rho.eval(x, order) / (x - z)).imag, 0, 1, limit=200)[0]
    return complex(re, im)


def test_stieltjes_transform_matches_adaptive_quadrature():
    rho = SingleSiteDensity(2)
    for order in range(3):
        for z in (0.4 + 0.05j, -0.3 + 0.7j, 1.2 + 0.01j, 0.5 - 0.2j):
            exact = stieltjes_transform(rho, order, z)
            assert_allclose(exact, quad_transform(rho, order, z), rtol=1e-9)


def test_stieltjes_transform_far_field_decay():
    rho = SingleSiteDensity(3)
    z = 200.0j
    # integral rho/(x - z) ~ -1/z + mean/z^2 for large |z|
    assert abs(stieltjes_transform(rho, 0, z) + 1.0 / z) < 2.0 / abs(z) ** 2


def test_stieltjes_transform_rejects_bad_input():
    rho = SingleSiteDensity(2)
    with pytest.raises(ValueError, match="real axis"):
        stieltjes_transform(rho, 0, 0.5)
    with pytest.raises(ValueError, match="order"):
        stieltjes_transform(rho, 3, 0.5j)


# -- corpora --------------------------------------------------------------------


def test_corpus_is_deterministic_and_nested():
    a1 = Corpus(5, seed=9).matrix(3)
    a2 = Corpus(5, seed=9).matrix(3)
    assert np.array_equal(a1, a2)
    # instance index, not corpus size, keys the draw
    a3 = Corpus(50, seed=9).matrix(3)
    assert np.array_equal(a1, a3)


def test_corpus_structure():
    corpus = Corpus(12, dim_min=2, dim_max=7, seed=1, dissipative=True,
                    min_imag=0.4)
    for i in range(12):
        m = corpus.matrix(i)
        assert 2 <= m.shape[0] <= 7
        im_part = (m - m.conj().T) / 2j
        assert np.linalg.eigvalsh(im_part)[0] >= 0.4 - 1e-12


def test_corpus_pair_perturbation_scale():
    corpus = Corpus(4, dim_min=5, dim_max=5, seed=2, delta=1e-3)
    a, b = corpus.pair(0)
    assert abs(np.linalg.norm(b - a, 2) - 1e-3) < 1e-15


def test_corpus_bound_instance_shapes():
    a, b, f1, f2, z = Corpus(3, dim_min=4, dim_max=4, seed=3).bound_instance(1)
    for f in (f1, f2):
        assert np.linalg.eigvalsh(f)[0] >= -1e-12
    assert z.imag > 0
    assert a.shape == b.shape == f1.shape


def test_corpus_validation():
    with pytest.raises(ValueError, match="instance"):
        Corpus(0)
    with pytest.raises(ValueError, match="dimension"):
        Corpus(3, dim_min=5, dim_max=2)
    with pytest.raises(ValueError, match="perturbation"):
        Corpus(3, delta=-0.1)


# -- smoothed-trace derivative forms --------------------------------------------


def test_finite_smooth_order_zero_is_exact():
    report = verify_finite_smooth(np.zeros((1, 1)), ell=0)
    assert report.passed
    assert report.statistics["max_rel_discrepancy"] <= 1e-12


def test_finite_smooth_single_site_first_derivative():
    # h(E) = integral rho(x)/(x - E - i eps) dx; the two routes must agree
    # to 1e-6 once the rule resolves the pole distance
    report = verify_finite_smooth(
        np.zeros((1, 1)), eps=0.3, ell=1, n_nodes=24
    )
    assert report.passed
    assert report.statistics["max_rel_discrepancy"] <= 1e-6


def test_finite_smooth_second_derivative_route():
    free = random_symmetric(2, seed=8)
    report = verify_finite_smooth(
        free, coupling=1.2, density=SingleSiteDensity(4), eps=0.4, ell=2,
        n_nodes=16,
    )
    assert report.passed
    assert report.statistics["max_rel_discrepancy"] <= 1e-3


def test_finite_smooth_refinement_certificate():
    free = random_symmetric(3, seed=4)
    report = verify_finite_smooth(free, coupling=1.5, eps=0.25, ell=1)
    assert report.statistics["refinement_ok"]
    assert (
        report.statistics["refined_rel_discrepancy"]
        <= report.statistics["max_rel_discrepancy"]
    )


def test_finite_smooth_grouped_projections():
    free = random_symmetric(4, seed=6)
    report = verify_finite_smooth(
        free, coupling=1.4, eps=0.35, ell=1, blocks=[[0, 1], [2, 3]],
        n_nodes=20,
    )
    assert report.passed
    assert report.statistics["max_rel_discrepancy"] <= 1e-4


def test_finite_smooth_rejects_non_covering_projections():
    free = random_symmetric(3, seed=5)
    with pytest.raises(ValueError, match="complete covering"):
        verify_finite_smooth(free, blocks=[[0], [1]])
    with pytest.raises(ValueError, match="complete covering"):
        verify_finite_smooth(free, blocks=[[0, 1], [1, 2]])


def test_finite_smooth_validation():
    with pytest.raises(ValueError, match="5"):
        verify_finite_smooth(np.zeros((6, 6)))
    with pytest.raises(ValueError, match="symmetric"):
        verify_finite_smooth(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="order"):
        verify_finite_smooth(np.zeros((2, 2)), ell=3)
    with pytest.raises(ValueError, match="continuity"):
        verify_finite_smooth(
            np.zeros((2, 2)), ell=2, density=SingleSiteDensity(2)
        )
    with pytest.raises(ValueError, match="coupling"):
        verify_finite_smooth(np.zeros((2, 2)), coupling=0.0)
    with pytest.raises(ValueError, match="smoothing"):
        verify_finite_smooth(np.zeros((2, 2)), eps=-0.1)


# -- averaged-resolvent two-sided bound ------------------------------------------


def test_average_bound_terms_vanish_for_equal_operators():
    a, _, f1, f2, z = Corpus(1, dim_min=4, dim_max=4, seed=12).bound_instance(0)
    lhs, rhs = average_bound_terms(a, a, f1, f2, z, 0.4, BumpPair())
    assert lhs == 0.0
    assert rhs == 0.0


def test_resolvent_average_bound_small_corpus():
    report = verify_resolvent_average_bound(
        Corpus(8, dim_min=2, dim_max=5, seed=21)
    )
    assert report.passed
    assert report.statistics["n_unconverged"] == 0
    assert report.statistics["min_slope"] >= 0.35
    assert np.isfinite(report.statistics["max_ratio"])
    assert report.statistics["max_ratio"] > 0


def test_resolvent_average_bound_is_deterministic():
    kwargs = dict(s=0.4, z_values=(0.3 + 0.4j,), n_slope_instances=2)
    r1 = verify_resolvent_average_bound(Corpus(4, seed=33), **kwargs)
    r2 = verify_resolvent_average_bound(Corpus(4, seed=33), **kwargs)
    assert r1.to_json() == r2.to_json()


def test_resolvent_average_bound_validation():
    corpus = Corpus(2, seed=1)
    with pytest.raises(ValueError, match="tau"):
        verify_resolvent_average_bound(corpus, s=1.0)
    with pytest.raises(ValueError, match="imaginary"):
        verify_resolvent_average_bound(corpus, z_values=(0.5,))


# -- semigroup Hoelder bound ------------------------------------------------------


def test_semigroup_hoelder_corpus_has_no_violations():
    report = verify_semigroup_hoelder(
        Corpus(200, dim_min=2, dim_max=8, seed=17, dissipative=True,
               min_imag=0.0)
    )
    assert report.passed
    assert report.statistics["n_violations"] == 0
    assert report.statistics["worst_margin"] <= report.slack


def test_semigroup_hoelder_validation():
    with pytest.raises(ValueError, match="dissipative"):
        verify_semigroup_hoelder(Corpus(2, seed=1, dissipative=False))
    corpus = Corpus(2, seed=1, dissipative=True)
    with pytest.raises(ValueError, match="exponents"):
        verify_semigroup_hoelder(corpus, s_values=(1.0,))
    with pytest.raises(ValueError, match="forward"):
        verify_semigroup_hoelder(corpus, t_values=(-1.0,))


# -- resolvent as a truncated time integral ----------------------------------------


def test_batched_expi_falls_back_to_expm_on_a_jordan_block():
    # a defective X has no eigenvector basis, so exp(i t X) must come from
    # the expm branch; X = a I + N with N^2 = 0 gives exp(i t a) (I + i t N)
    a = 0.4 + 0.3j
    x = np.array([[a, 1.0], [0.0, a]])
    assert np.linalg.cond(np.linalg.eig(x)[1]) > _EIG_COND_LIMIT
    ts = np.array([0.0, 0.5, 2.0, 7.0])
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    want = [np.exp(1j * t * a) * (np.eye(2) + 1j * t * nil) for t in ts]
    assert_allclose(_batched_expi(x, ts), want, rtol=1e-12, atol=1e-14)


def test_identity_scalar_oracle():
    report = verify_resolvent_semigroup_identity([1j * 0.7 * np.eye(1)])
    assert report.passed
    assert report.statistics["max_discrepancy"] <= 1e-8


def test_identity_corpus_at_full_truncation():
    corpus = Corpus(8, dim_min=2, dim_max=6, seed=18, dissipative=True,
                    min_imag=0.5)
    report = verify_resolvent_semigroup_identity(corpus, t_max=1e3)
    assert report.passed
    assert report.statistics["max_discrepancy"] <= 1e-6


def test_identity_discrepancy_non_increasing_in_t_max():
    a = random_symmetric(4, seed=19) + 1j * (
        0.5 * np.eye(4) + np.eye(4) * 0.0
    )
    discs = [
        verify_resolvent_semigroup_identity([a], t_max=t).statistics[
            "max_discrepancy"
        ]
        for t in (2.0, 4.0, 8.0)
    ]
    assert discs[1] <= discs[0] + 1e-12
    assert discs[2] <= discs[1] + 1e-12


def test_identity_rejects_non_dissipative():
    with pytest.raises(ValueError, match="dissipative"):
        verify_resolvent_semigroup_identity([random_symmetric(3, seed=20)])
    with pytest.raises(ValueError, match="dissipative"):
        verify_resolvent_semigroup_identity(Corpus(2, seed=1))


def test_identity_validation():
    a = [1j * np.eye(2)]
    with pytest.raises(ValueError, match="support"):
        verify_resolvent_semigroup_identity(a, support=(2.0, 1.0))
    with pytest.raises(ValueError, match="positive shifts"):
        verify_resolvent_semigroup_identity(a, support=(-1.0, 1.0))
    with pytest.raises(ValueError, match="t_max"):
        verify_resolvent_semigroup_identity(a, t_max=0.0)


# -- spectral averaging -------------------------------------------------------------


def test_spectral_averaging_degenerate_rank():
    report = verify_spectral_averaging(
        np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2)
    )
    assert report.passed
    assert report.statistics["degenerate"]
    assert all(v == 0.0 for v in report.statistics["sup_values"])


def test_spectral_averaging_rejects_phi_outside_range():
    b = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="range"):
        verify_spectral_averaging(np.zeros((2, 2)), b, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="range"):
        verify_spectral_averaging(
            np.zeros((2, 2)), np.zeros((2, 2)), np.array([1.0, 0.0])
        )


def test_spectral_averaging_scalar_recovers_density_sup():
    mu = SingleSiteDensity(3)
    report = verify_spectral_averaging(
        np.zeros((1, 1)), np.ones((1, 1)), np.ones(1), mu=mu
    )
    assert report.passed
    cap = np.pi * mu.sup_derivative(0)
    finest = report.statistics["sup_values"][-1]
    assert abs(finest - cap) / cap < 0.01
    assert finest <= cap + 1e-10


def test_spectral_averaging_exact_route_matches_quadrature():
    a, b, phi = averaging_corpus(1, dim=6, seed=7)[0]
    exact = verify_spectral_averaging(a, b, phi, eps_list=(0.05, 0.02))
    quadr = verify_spectral_averaging(
        a, b, phi, eps_list=(0.05, 0.02), force_quadrature=True
    )
    assert exact.statistics["exact_route"]
    assert not quadr.statistics["exact_route"]
    assert_allclose(
        exact.statistics["sup_values"],
        quadr.statistics["sup_values"],
        rtol=1e-9,
    )


def test_spectral_averaging_general_coupling_operator():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    b = m @ m.T / 5 + 0.5 * np.eye(5)
    a = random_symmetric(5, seed=31)
    phi = b @ rng.standard_normal(5)
    phi /= np.linalg.norm(phi)
    report = verify_spectral_averaging(a, b, phi, eps_list=(0.02, 0.01, 0.004))
    assert report.passed
    assert not report.statistics["exact_route"]
    assert np.all(np.diff(report.statistics["sup_values"]) > 0)


def test_spectral_averaging_validation():
    eye = np.eye(2)
    phi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="eps_list"):
        verify_spectral_averaging(eye, eye, phi, eps_list=(0.01, 0.1))
    with pytest.raises(ValueError, match="eps_list"):
        verify_spectral_averaging(eye, eye, phi, eps_list=(0.1, -0.01))
    with pytest.raises(ValueError, match="symmetric"):
        verify_spectral_averaging(np.array([[0, 1], [0, 0.0]]), eye, phi)
    with pytest.raises(ValueError, match="semidefinite"):
        verify_spectral_averaging(eye, -eye, phi)
    with pytest.raises(ValueError, match="shape"):
        verify_spectral_averaging(eye, eye, np.ones(3))


# -- boundary values of the smoothed density ------------------------------------------


def test_boundary_derivatives_default_density():
    report = verify_boundary_derivatives()
    assert report.passed
    assert report.statistics["uniformly_bounded"]
    assert report.statistics["convergence_slope"] >= 0.9
    assert report.statistics["exterior_worst_excess"] <= 0.0
    sup = np.asarray(report.statistics["sup_table"])
    caps = np.asarray(report.statistics["smoothing_caps"])
    assert np.all(sup <= caps[:, None] + report.slack)


def test_boundary_derivatives_bound_is_uniform_down_to_tiny_eps():
    report = verify_boundary_derivatives(
        SingleSiteDensity(3), eps_list=(1e-2, 1e-3, 1e-4)
    )
    assert report.statistics["uniformly_bounded"]
    assert report.statistics["max_order"] == 2


def test_boundary_convergence_against_poisson_quadrature():
    rho = SingleSiteDensity(2)
    eps = 0.05
    for energy in (0.3, 0.6):
        oracle = quad(
            lambda x: rho.eval(x) * eps / np.pi / ((x - energy) ** 2 + eps**2),
            0.0,
            1.0,
            limit=200,
        )[0]
        exact = (
            np.imag(stieltjes_transform(rho, 0, complex(energy, eps))) / np.pi
        )
        assert_allclose(exact, oracle, rtol=1e-9)


def test_boundary_derivatives_first_order_rate():
    report = verify_boundary_derivatives(SingleSiteDensity(2))
    errors = np.asarray(report.statistics["convergence_errors"])
    eps = np.asarray(report.statistics["eps_list"])
    c = report.statistics["rate_constant"]
    assert np.all(errors <= c * eps + 1e-15)


def test_boundary_derivatives_validation():
    with pytest.raises(ValueError, match="eps_list"):
        verify_boundary_derivatives(eps_list=(0.001, 0.01))
    with pytest.raises(ValueError, match="margin"):
        verify_boundary_derivatives(interior_margin=0.7)
    with pytest.raises(ValueError, match="interior"):
        verify_boundary_derivatives(energies=np.array([-2.0, 3.0]))
    with pytest.raises(ValueError, match="closer than 1"):
        verify_boundary_derivatives(exterior_points=(1.5,))


# -- reports ---------------------------------------------------------------------------


def test_report_json_round_trip():
    report = CheckReport(
        name="demo",
        passed=True,
        slack=1e-10,
        statistics={"values": np.array([1.0, 2.0]), "z": 1 + 2j},
        witness={"matrix": np.eye(2), "note": None},
    )
    payload = json.loads(report.to_json())
    assert payload["name"] == "demo"
    assert payload["statistics"]["values"] == [1.0, 2.0]
    assert payload["statistics"]["z"] == {"re": 1.0, "im": 2.0}
    assert payload["witness"]["matrix"] == [[1.0, 0.0], [0.0, 1.0]]
