"""Exact-calculus and sampling checks for the bump density family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose
from scipy.integrate import quad

from doslab.disorder import SingleSiteDensity
from doslab.quadrature import panel_rule
from oracles import cdf, variance


def gl_integral(f, n_nodes=100, n_panels=100):
    # 1e4-point composite Gauss-Legendre on (0, 1)
    x, w = panel_rule(0.0, 1.0, n_nodes, n_panels)
    return float(np.sum(f(x) * w))


def test_normalization_is_exact():
    for p in range(1, 7):
        rho = SingleSiteDensity(p)
        assert abs(gl_integral(lambda x: rho.eval(x)) - 1.0) < 1e-12


def test_frozen_point_values():
    rho1 = SingleSiteDensity(1)
    assert rho1.eval(0.5) == pytest.approx(1.5, abs=1e-14)
    rho3 = SingleSiteDensity(3)
    assert rho3.eval(0.5, order=1) == pytest.approx(0.0, abs=1e-12)
    assert rho3.sup_derivative(0) == pytest.approx(140.0 / 64.0, rel=1e-12)


def test_derivative_integrals_vanish():
    # integral of rho^(j) over the support is 1 at j=0 and 0 for 1 <= j <= m
    for p in (2, 3, 4, 5):
        rho = SingleSiteDensity(p)
        for j in range(rho.continuity_order + 1):
            val = gl_integral(lambda x: rho.eval(x, j))
            assert abs(val - (1.0 if j == 0 else 0.0)) < 1e-10, (p, j)


def test_zero_extension_is_continuous():
    rho = SingleSiteDensity(3)
    for j in range(rho.continuity_order + 1):
        assert rho.eval(0.0, j) == 0.0
        assert rho.eval(1.0, j) == 0.0
        assert rho.eval(-0.3, j) == 0.0
        assert rho.eval(1.7, j) == 0.0
    # order p keeps a one-sided value at the edge
    assert rho.eval(0.0, order=3) != 0.0


def test_derivative_matches_finite_difference():
    rho = SingleSiteDensity(4)
    xs = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    for j in range(1, 4):
        fd = (rho.eval(xs + h, j - 1) - rho.eval(xs - h, j - 1)) / (2 * h)
        assert_allclose(rho.eval(xs, j), fd, rtol=1e-5, atol=1e-4)


def test_cdf_exact_and_monotone():
    rho = SingleSiteDensity(2)
    xs = np.linspace(-0.2, 1.2, 57)
    c = cdf(rho, xs)
    assert c[0] == 0.0
    assert c[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.diff(c) >= -1e-15)
    h = 1e-6
    mid = np.linspace(0.1, 0.9, 9)
    assert_allclose((cdf(rho, mid + h) - cdf(rho, mid - h)) / (2 * h),
                    rho.eval(mid), rtol=1e-6)


def test_sup_derivative_dominates_dense_grid():
    rho = SingleSiteDensity(5)
    xs = np.linspace(0.0, 1.0, 100001)
    for j in range(0, 6):
        grid_max = np.max(np.abs(rho.eval(xs, j)))
        sup = rho.sup_derivative(j)
        assert grid_max <= sup + 1e-9
        assert grid_max > 0.999 * sup


@pytest.mark.parametrize("p", range(1, 7))
def test_sampler_moments_and_support(p):
    rho = SingleSiteDensity(p)
    rng = np.random.default_rng(915)
    x = rho.sample(rng, size=20000)
    assert np.all((x > 0.0) & (x < 1.0))
    sigma = math.sqrt(variance(rho))
    assert abs(x.mean() - 0.5) < 4 * sigma / math.sqrt(x.size)
    assert abs(x.var() - variance(rho)) < 4 * variance(rho) / math.sqrt(x.size)


@pytest.mark.parametrize("p", range(1, 7))
def test_sampler_matches_cdf(p):
    # the exact cdf is the oracle for the beta draw
    rho = SingleSiteDensity(p)
    rng = np.random.default_rng(62)
    n = 10000
    x = np.sort(rho.sample(rng, size=n))
    ecdf = np.arange(1, n + 1) / n
    ks = np.max(np.abs(ecdf - cdf(rho, x)))
    assert ks < 1.63 / math.sqrt(n)  # 1% KS band, fixed seed


def test_sampling_is_deterministic():
    rho = SingleSiteDensity(2)
    a = rho.sample(np.random.default_rng(7), size=64)
    b = rho.sample(np.random.default_rng(7), size=64)
    assert np.array_equal(a, b)


def exact_moment_against_derivative(rho, j, k):
    # integral of x^k rho^(j)(x) dx via exact polynomial integration
    poly = rho._derivs[j]
    xk = np.zeros(k + 1)
    xk[k] = 1.0
    prod = npoly.polymul(poly, xk)
    anti = npoly.polyint(prod)
    return float(npoly.polyval(1.0, anti) - npoly.polyval(0.0, anti))


def test_tilted_first_moment_frozen():
    # integrating x against rho' gives -1 for every p
    for p in (2, 3, 4):
        assert exact_moment_against_derivative(SingleSiteDensity(p), 1, 1) == \
            pytest.approx(-1.0, abs=1e-12)


def test_fisher_information_finite_for_p_at_least_two():
    rho = SingleSiteDensity(2)
    val, err = quad(lambda t: rho.eval(t, 1) ** 2 / rho.eval(t), 0.0, 1.0,
                    points=[0.5], limit=200)
    assert err < 1e-8
    assert val == pytest.approx(40.0, rel=1e-9)  # p^2 c_p (B(p-1,p-1) - 4B(p,p)) = 40
    info3, _ = quad(lambda t: SingleSiteDensity(3).eval(t, 1) ** 2
                    / SingleSiteDensity(3).eval(t), 0.0, 1.0, limit=200)
    assert np.isfinite(info3)


def test_log_derivative_identities():
    rho = SingleSiteDensity(3)
    xs = np.linspace(0.07, 0.93, 25)
    assert_allclose(rho.log_derivative(xs), rho.eval(xs, 1) / rho.eval(xs), rtol=1e-10)
    got = rho.log_curvature(xs)
    want = rho.eval(xs, 2) / rho.eval(xs) - (rho.eval(xs, 1) / rho.eval(xs)) ** 2
    assert_allclose(got, want, rtol=1e-9)


def test_invalid_arguments_are_rejected():
    with pytest.raises(ValueError):
        SingleSiteDensity(0)
    with pytest.raises(ValueError):
        SingleSiteDensity(2).eval(0.5, order=3)
    with pytest.raises(ValueError, match="ell"):
        SingleSiteDensity(5).score_factor(np.full(3, 0.5), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=-0.5, max_value=1.5, allow_nan=False))
def test_density_nonnegative_and_bounded(p, x):
    rho = SingleSiteDensity(p)
    v = rho.eval(x, 0)
    assert v >= 0.0
    assert v <= rho.sup_derivative(0) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_density_is_symmetric(p, x):
    rho = SingleSiteDensity(p)
    assert_allclose(rho.eval(x), rho.eval(1.0 - x), rtol=0, atol=1e-9)


def test_score_factor_matches_the_sums_it_replaced():
    rho = SingleSiteDensity(4)
    rng = np.random.default_rng(11)
    vec = rho.sample(rng, size=9)
    pts = rho.sample(rng, size=5 * 3).reshape(5, 3)
    # 1-d: the per-sample weight of the Monte Carlo score route
    s1 = float(rho.log_derivative(vec).sum())
    assert rho.score_factor(vec, 0) == 1.0
    assert rho.score_factor(vec, 1) == s1
    assert rho.score_factor(vec, 2) == s1 * s1 + float(rho.log_curvature(vec).sum())
    # (M, K): one weight per quadrature node, summed over the K coordinates
    s1 = rho.log_derivative(pts).sum(axis=1)
    assert np.array_equal(rho.score_factor(pts, 0), np.ones(5))
    assert np.array_equal(rho.score_factor(pts, 1), s1)
    assert np.array_equal(
        rho.score_factor(pts, 2), s1 * s1 + rho.log_curvature(pts).sum(axis=1)
    )


# -- exact Stieltjes transforms -------------------------------------------------------


def quad_transform(rho, order, u):
    """integral of rho^(order)(x) / (x - u) over (0, 1) by adaptive quadrature.

    Close above the support, where rho^(order) is not small at Re u (away
    from the ends, or at any point for order = p, whose rho^(p) jumps at the
    ends), the pole is subtracted at a = Re u and integral 1/(x - u) =
    log(1 - 1/u) added back in closed form.  Elsewhere the integral is taken
    as order! times that of rho / (x - u)^(order + 1) (integration by parts),
    whose integrand does not cancel the way rho^(order) does.  Breakpoints
    at a +- 4^k dist(u, [0, 1]) hand the adaptive rule the scales of the pole.
    """
    a = min(max(u.real, 0.0), 1.0)
    scales = abs(u - a) * 4.0 ** np.arange(12)
    points = np.concatenate([a - scales, [a], a + scales])
    points = points[(points > 0.0) & (points < 1.0)]
    inner = 0.05 < a < 0.95 or (order == rho.p and 0.0 < a < 1.0)
    if inner and abs(u.imag) <= 0.1:
        qa = rho.eval(a, order)

        def f(x):
            return (rho.eval(x, order) - qa) / (x - u)

        rest = qa * np.log(1.0 - 1.0 / u)
    else:
        fac = math.factorial(order)

        def f(x):
            return fac * rho.eval(x) / (x - u) ** (order + 1)

        rest = 0.0
    value = quad(
        f, 0.0, 1.0, points=points, limit=400, epsabs=0.0, epsrel=1e-13,
        complex_func=True,
    )[0]
    return value + rest


def transform_grid():
    # |u| from 1e-2 to 1e3 in three directions, the ends and the interior
    # of the support at Im u down to 1e-3, and both sides of the switches
    # between the three forms: the ellipse |u| + |u - 1| = 1.0 and the
    # circle |u - 1/2| = 1
    ring = np.geomspace(1e-2, 1e3, 6)[:, None] * np.exp(1j * np.array([0.2, 1.3, 3.0]))
    strip = np.array([x + 1j * y for x in (0.0, 0.3, 0.5, 1.0) for y in (1e-3, 0.05)])
    switches = 0.5 + np.array([0.99, 1.01])[:, None] * np.exp(1j * np.array([0.3, 1.7]))
    ellipse = 0.5 + 0.5 * np.cosh(
        np.array([0.55, 0.57])[:, None] + 1j * np.array([0.4, 1.5])
    )
    return np.concatenate([ring.ravel(), strip, switches.ravel(), ellipse.ravel()])


# epsrel 1e-13 is close to what double precision allows, and QUADPACK warns
# of roundoff where it stops short of it; the 1e-12 comparison is the check
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("p", range(1, 7))
def test_stieltjes_transform_matches_adaptive_quadrature_to_1e12(p):
    from doslab.disorder import stieltjes_transform

    rho = SingleSiteDensity(p)
    us = transform_grid()
    for order in range(p + 1):
        got = stieltjes_transform(rho, order, us)
        want = np.array([quad_transform(rho, order, u) for u in us])
        rel = np.abs(got - want) / np.abs(want)
        worst = int(np.argmax(rel))
        assert rel[worst] <= 1e-12, (order, us[worst], rel[worst])
        # rho is real
        assert np.array_equal(stieltjes_transform(rho, order, us.conj()), got.conj())


@pytest.mark.parametrize("p, order", [(2, 0), (2, 1), (4, 2), (6, 3)])
def test_stieltjes_transform_of_a_point_does_not_depend_on_the_batch(p, order):
    # every form, and long arrays, where numpy's vector loops take over
    rho = SingleSiteDensity(p)
    rng = np.random.default_rng(p + order)
    us = rng.uniform(-2.0, 3.0, 600) + 1j * rng.uniform(1e-3, 1.5, 600)
    from doslab.disorder import stieltjes_transform

    got = stieltjes_transform(rho, order, us)
    assert all(got[i] == stieltjes_transform(rho, order, u) for i, u in enumerate(us))


def quad_inverse_moment(rho, s, c):
    """integral rho(x) |x - c|^(-s) dx by adaptive quadrature, split at Re c."""
    peak = [c.real] if 0.0 < c.real < 1.0 else None
    value, _ = quad(
        lambda x: rho.eval(x) * abs(x - c) ** (-s),
        0.0, 1.0, points=peak, limit=500, epsabs=0.0, epsrel=1e-13,
    )
    return value


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_fractional_inverse_moment_matches_adaptive_quadrature_to_1e12(p):
    from doslab.disorder import fractional_inverse_moment

    rho = SingleSiteDensity(p)
    # peaks inside, at the ends of and outside [0, 1], from width 1e-5 to 3
    cs = np.array(
        [complex(re, im) for re in (-1.5, 0.0, 0.23, 0.5, 0.97, 2.5)
         for im in (1e-5, 1e-2, 0.3, 3.0)]
    )
    for s in (0.1, 0.5, 0.9):
        got = fractional_inverse_moment(rho, s, cs, 1e-5)
        want = np.array([quad_inverse_moment(rho, s, c) for c in cs])
        rel = np.abs(got - want) / want
        worst = int(np.argmax(rel))
        assert rel[worst] <= 1e-12, (s, cs[worst], rel[worst])


def test_fractional_inverse_moment_of_a_point_does_not_depend_on_the_batch():
    from doslab.disorder import fractional_inverse_moment

    rho = SingleSiteDensity(2)
    rng = np.random.default_rng(3)
    cs = rng.uniform(-2.0, 3.0, 300) + 1j * rng.uniform(1e-3, 1.5, 300)
    got = fractional_inverse_moment(rho, 0.4, cs, 1e-3)
    for i in (0, 1, 7, 150, 299):
        assert fractional_inverse_moment(rho, 0.4, cs[i : i + 1], 1e-3)[0] == got[i]


def test_fractional_inverse_moment_rejects_the_real_axis():
    from doslab.disorder import fractional_inverse_moment

    rho = SingleSiteDensity(2)
    with pytest.raises(ValueError, match="Im c"):
        fractional_inverse_moment(rho, 0.5, [0.5 + 0.1j, 0.5], 0.1)
    with pytest.raises(ValueError, match="Im c"):
        fractional_inverse_moment(rho, 0.5, [0.5 + 0.1j], 0.0)
