"""Smooth compactly supported single-site disorder laws.

The family is the symmetric polynomial bump rho_p(x) = c_p x^p (1-x)^p on
(0, 1), normalized to integrate to one.  Extended by zero it is C^{p-1} on
the whole line and its (p-1)-th derivative is Lipschitz, so the Hoelder
exponent of the top continuous derivative is 1.  All derivative bookkeeping
(sup norms, moments) runs on polynomial coefficients.  rho_p is exactly the
Beta(p+1, p+1) law, so sampling is one beta draw and nothing here is fitted.

stieltjes_transform integrates rho^(j)(x) / (x - z) in closed form; it is
the integral over one block's coupling that the dos estimators and the
spectral-averaging checks take exactly.  fractional_inverse_moment
integrates rho(x) |x - c|^(-s) by a graded Gauss rule; it is the one that
the fractional-moment estimator takes over a one-site source.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quadrature import panel_rule


class SingleSiteDensity:
    """Polynomial bump density c_p x^p (1-x)^p on (0, 1).

    p >= 1 is the vanishing order at both endpoints.  continuity_order
    (= p - 1) is the number of globally continuous derivatives of the
    zero-extension; derivatives up to order p exist inside the support.
    """

    def __init__(self, p: int):
        if int(p) != p or p < 1:
            raise ValueError(f"bump exponent must be a positive integer, got {p!r}")
        self.p = int(p)
        self.continuity_order = self.p - 1
        # 1/B(p+1, p+1) without special functions: C(2p, p) * (2p + 1)
        self.normalization = float(math.comb(2 * self.p, self.p) * (2 * self.p + 1))
        base = npoly.polypow(np.array([0.0, 1.0, -1.0]), self.p)  # (x - x^2)^p
        self._derivs = [self.normalization * np.asarray(base, dtype=float)]
        for _ in range(self.p):
            self._derivs.append(npoly.polyder(self._derivs[-1]))
        self._sup_cache: dict[int, float] = {}

    def __repr__(self):
        return f"SingleSiteDensity(p={self.p})"

    # -- pointwise evaluation -------------------------------------------------

    def eval(self, x, order: int = 0):
        """order-th derivative at x, zero outside [0, 1].

        At the endpoints the one-sided value from inside the support is
        returned; for order <= continuity_order the two limits agree (both
        are zero).
        """
        if not 0 <= order <= self.p:
            raise ValueError(f"derivative order {order} outside [0, {self.p}]")
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xv = np.atleast_1d(xa)
        out = np.zeros_like(xv)
        inside = (xv >= 0.0) & (xv <= 1.0)
        if inside.any():
            xi = xv[inside]
            if order == 0:
                # factored form: the expanded polynomial cancels to small
                # negative values near the endpoints
                out[inside] = self.normalization * (xi * (1.0 - xi)) ** self.p
            else:
                out[inside] = npoly.polyval(xi, self._derivs[order])
        return float(out[0]) if scalar else out

    # -- score pieces (used by the derivative estimators) ---------------------

    def log_derivatives(self, x, ell: int) -> np.ndarray:
        """(log rho)^(j)(x) = p (-1)^(j-1) (j-1)! / x^j - p (j-1)! / (1-x)^j for
        j = 1 .. ell on a new leading axis; the caller keeps x inside (0, 1)."""
        xa = np.asarray(x, dtype=float)
        out = np.empty((ell, *xa.shape))
        for j in range(1, ell + 1):
            f = self.p * math.factorial(j - 1)
            out[j - 1] = (-1) ** (j - 1) * f / xa**j - f / (1.0 - xa) ** j
        return out

    def check_score_order(self, ell: int) -> None:
        """Reject an order ell whose score weight this law cannot carry.

        The weight needs ell >= 0, ell continuous derivatives and a finite variance.
        """
        if ell < 0:
            raise ValueError("derivative order must be non-negative")
        if ell > self.continuity_order:
            raise ValueError(
                f"derivative order {ell} exceeds the continuity order "
                f"{self.continuity_order} of the single-site density"
            )
        # the order-ell weight grows like x^-ell at the support edge, so its
        # second moment against c_p x^p (1-x)^p is finite only for p > 2*ell - 1
        if self.p < 2 * ell:
            raise ValueError(
                f"score weights of order {ell} have infinite variance unless "
                f"p >= 2*ell = {2 * ell}; the density has p={self.p}"
            )

    # -- derivative norms ------------------------------------------------------

    def sup_derivative(self, order: int) -> float:
        """sup over [0, 1] of |rho^(order)|, located through critical points."""
        if not 0 <= order <= self.p:
            raise ValueError(f"derivative order {order} outside [0, {self.p}]")
        if order not in self._sup_cache:
            crit = _real_roots_in_unit_interval(npoly.polyder(self._derivs[order]))
            cand = np.concatenate([crit, [0.0, 1.0]])
            self._sup_cache[order] = float(
                np.max(np.abs(npoly.polyval(cand, self._derivs[order])))
            )
        return self._sup_cache[order]

    # -- sampling ---------------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from rho, the Beta(p+1, p+1) law; a float when size is None."""
        return rng.beta(self.p + 1, self.p + 1, size)


def score_weights(sums) -> np.ndarray:
    """Complete Bell polynomials B_0 = 1, B_(n+1) = sum_k C(n, k) B_(n-k) S_(k+1).

    With S_j = sums[j - 1] the sum of log_derivatives of order j over the blocks
    of a product law, B_ell is the ell-th derivative of its density along the
    all-ones direction over the density: 1, S_1, S_1^2 + S_2, ..."""
    s = np.asarray(sums)
    b = np.empty((len(s) + 1, *s.shape[1:]))
    b[0] = 1.0
    for n in range(len(s)):
        b[n + 1] = sum(
            (math.comb(n, k) * b[n - k] * s[k] for k in range(1, n + 1)), b[n] * s[0]
        )
    return b


# -- exact Stieltjes transforms ----------------------------------------------------

# largest p for which stieltjes_transform is certified to 1e-12 relative: the
# near-field closed form cancels by a factor that grows with p
TRANSFORM_MAX_P = 6

# Ellipse parameters of the near field (the Bernstein ellipses of [0, 1]):
# inside the small one the closed form keeps a relative error below 1e-12
# for every p <= 6 and order <= p; the large one contains the whole disk
# |z - 1/2| < _SERIES_RADIUS, and laws whose closed form cancels by less than
# _NEAR_CANCELLATION on it need no Gauss rule at all
_NEAR_ELLIPSES = (1.75, 4.25)
_NEAR_CANCELLATION = 1e3
# beyond this distance from 1/2 the moment series converges at least like 4^-m
_SERIES_RADIUS = 1.0
_SERIES_TOL = 1e-17


@functools.lru_cache(maxsize=None)
def _transform_tables(p: int, order: int):
    """Precomputed pieces of stieltjes_transform for rho_p^(order).

    In y = x - 1/2 the density is c (1/4 - y^2)^p.  With q = rho^(order):
    - near: the integral is q(v) log(1 - 1/z) + P(v), v = z - 1/2, where
      P(v) = integral of (q(y) - q(v)) / (y - v) dy is a polynomial whose
      coefficients are sums of q's coefficients against the moments of y;
    - mid: order! sum_i w_i (y_i - v)^-(order+1), the Gauss-Jacobi rule of
      rho itself after integrating by parts order times (rho^(k) vanishes at
      the support ends for k < p);
    - far: -(-1)^order v^-(order+1) sum_m a_m v^-2m, the moment series, with
      a_m = (2m + order)!/(2m)! times the central moment E[y^2m] of rho.
    The near field is the larger ellipse of _NEAR_ELLIPSES when the closed
    form's cancellation, (|q L| + |P|) / |integral|, stays below
    _NEAR_CANCELLATION on it, else the smaller one.
    """
    c = float(math.comb(2 * p, p) * (2 * p + 1))
    q = npoly.polyder(c * npoly.polypow([0.25, 0.0, -1.0], p), order)
    l = np.arange(len(q))
    y_moments = np.where(l % 2 == 0, 0.5**l / (l + 1.0), 0.0)
    p_coef = np.array(
        [np.dot(q[m + 1 :], y_moments[: len(q) - m - 1]) for m in range(len(q) - 1)]
    )
    series = [float(math.factorial(order))]
    moment = 1.0
    while series[-1] > _SERIES_TOL * series[0]:
        m = len(series)
        moment *= (2 * m - 1) / (4.0 * (2 * p + 2 * m + 1))
        series.append(math.perm(2 * m + order, order) * moment)
    series = np.array(series)
    big = _NEAR_ELLIPSES[1]
    v = 0.5 * np.cosh(math.log(big) + 1j * np.linspace(0.05, math.pi - 0.05, 16))
    terms = np.abs(npoly.polyval(v, q) * np.log(1.0 - 1.0 / (v + 0.5)))
    terms += np.abs(npoly.polyval(v, p_coef))
    cancel = np.max(terms / np.abs(_moment_series(series, order, v)))
    if cancel <= _NEAR_CANCELLATION:
        # the big ellipse holds the disk of the series: no mid field
        return q, p_coef, None, None, series, 0.5 * (big + 1.0 / big)
    # Golub-Welsch for the weight (1 - t^2)^p on [-1, 1], mapped to y = t / 2
    k = np.arange(1.0, 32 + 4 * order)
    off = np.sqrt(k * (k + 2 * p) / ((2 * k + 2 * p + 1) * (2 * k + 2 * p - 1)))
    t, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    small = _NEAR_ELLIPSES[0]
    return q, p_coef, t / 2.0, vecs[0] ** 2, series, 0.5 * (small + 1.0 / small)


def _moment_series(series, order, v):
    """The far form of _transform_tables at v = z - 1/2, |v| >= _SERIES_RADIUS."""
    inv = 1.0 / v
    w2 = inv * inv
    # out of place: numpy's in-place complex multiply gives other last bits
    # inside a long array than in a short one
    acc = np.full(w2.shape, series[-1], dtype=complex)
    for a in series[-2::-1]:
        acc = acc * w2 + a
    for _ in range(order + 1):
        acc = acc * inv
    return acc if order % 2 else -acc


def stieltjes_transform(rho: SingleSiteDensity, order: int, zs):
    """integral of rho^(order)(x) / (x - z) dx for z off [0, 1].

    Equals the order-th z-derivative of the transform of rho itself as long
    as order <= continuity_order + 1 (the boundary terms of integration by
    parts vanish there).  Each z is evaluated on its own by one of three
    forms (see _transform_tables), so its bytes do not depend on the other
    points of the call.  Relative error at most 1e-12 for p <= TRANSFORM_MAX_P.
    """
    if not 0 <= order <= rho.continuity_order + 1:
        raise ValueError(f"order {order} outside [0, {rho.continuity_order + 1}]")
    zs = np.asarray(zs, dtype=complex)
    if np.any(zs.imag == 0):
        raise ValueError("transform evaluated on the real axis")
    q, p_coef, nodes, weights, series, focal_sum = _transform_tables(rho.p, order)
    v = zs - 0.5
    out = np.empty(zs.shape, dtype=complex)
    far = np.abs(v) >= _SERIES_RADIUS
    # |z| + |z - 1| is constant on the ellipses with foci 0 and 1
    near = np.zeros(zs.shape, dtype=bool)
    rest = zs[~far]
    near[~far] = np.abs(rest) + np.abs(rest - 1.0) < focal_sum
    mid = ~near & ~far
    if np.any(near):
        vn = v[near]
        # log(1 - 1/z) is log(z - 1) - log(z) for z off the real axis
        log_term = np.log(1.0 - 1.0 / zs[near])
        out[near] = npoly.polyval(vn, q) * log_term + npoly.polyval(vn, p_coef)
    if np.any(mid):
        r = 1.0 / (nodes - v[mid, None])
        term = r * weights
        for _ in range(order):
            term = term * r
        out[mid] = math.factorial(order) * term.sum(axis=1)
    if np.any(far):
        out[far] = _moment_series(series, order, v[far])
    return out if out.ndim else complex(out)


# fractional_inverse_moment: Gauss-Legendre panels with _GRADED_NODES nodes
# each; a rule with twice the nodes per panel must agree within
# _GRADED_DRIFT_TOL relative
_GRADED_NODES = 16
_GRADED_DRIFT_TOL = 1e-12


def fractional_inverse_moment(rho: SingleSiteDensity, s: float, cs, min_imag: float):
    """integral of rho(x) |x - c|^(-s) dx for each c of cs, Im c >= min_imag > 0.

    The integrand peaks at x = Re c with width Im c.  The panels are graded
    geometrically toward the peak, with breaks at Re c +- Im c * 2^k for
    k < K, where K is the least with min_imag * 2^K >= 1; the outermost
    panels run to the ends of [0, 1].  So every panel but the two at the peak
    lies at least its own length from c, and the nodes converge at a rate
    that depends on neither Im c nor p.  The panels depend on min_imag, not
    on cs, so each c's bytes do not depend on the other points of the call.
    Raises RuntimeError where the rule and one with twice the nodes per panel
    differ by more than 1e-12 relative.
    """
    cs = np.asarray(cs, dtype=complex)
    if not min_imag > 0.0 or not np.all(cs.imag > 0.0):
        raise ValueError("fractional inverse moment needs Im c > 0")
    b, xr = cs.imag[..., None], cs.real[..., None]
    steps = 2.0 ** np.arange(max(1, math.ceil(-math.log2(min_imag))))
    breaks = np.concatenate([[-np.inf], -steps[::-1], [0.0], steps, [np.inf]])
    # panel edges as offsets d = x - Re c, clipped to [0, 1] in x
    edges = np.clip(breaks * b, -xr, 1.0 - xr)
    # the nodes of both rules side by side: n, then 2n
    rules = [panel_rule(-1.0, 1.0, n) for n in (_GRADED_NODES, 2 * _GRADED_NODES)]
    t = np.concatenate([r[0] for r in rules])
    w = np.concatenate([r[1] for r in rules])
    coarse, fine = np.zeros(cs.shape), np.zeros(cs.shape)
    # one panel at a time, so memory stays at len(cs) x 3n
    for k in range(edges.shape[-1] - 1):
        lo, hi = edges[..., k : k + 1], edges[..., k + 1 : k + 2]
        d = 0.5 * (hi + lo) + 0.5 * (hi - lo) * t
        fw = (d * d + b * b) ** (-0.5 * s) * rho.eval(xr + d) * w
        half = 0.5 * (hi - lo)[..., 0]
        coarse += half * np.sum(fw[..., :_GRADED_NODES], axis=-1)
        fine += half * np.sum(fw[..., _GRADED_NODES:], axis=-1)
    drift = np.abs(coarse - fine) / fine
    bad = np.flatnonzero(~(drift <= _GRADED_DRIFT_TOL))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"fractional inverse moment at c = {cs.ravel()[i]:.6g} drifts by "
            f"{drift.ravel()[i]:.2e} > {_GRADED_DRIFT_TOL:.0e} under node doubling"
        )
    return coarse


def _real_roots_in_unit_interval(coeffs) -> np.ndarray:
    if len(np.atleast_1d(coeffs)) < 2:
        return np.empty(0)
    roots = npoly.polyroots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    return real[(real > 0.0) & (real < 1.0)]

