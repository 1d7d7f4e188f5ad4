"""Smooth compactly supported single-site disorder laws.

The family is the symmetric polynomial bump rho_p(x) = c_p x^p (1-x)^p on
(0, 1), normalized to integrate to one.  Extended by zero it is C^{p-1} on
the whole line and its (p-1)-th derivative is Lipschitz, so the Hoelder
exponent of the top continuous derivative is 1.  All derivative bookkeeping
(sup norms, moments) runs on polynomial coefficients.  rho_p is exactly the
Beta(p+1, p+1) law, so sampling is one beta draw and nothing here is fitted.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


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

    def cdf(self, x):
        """Exact distribution function, clamped to [0, 1] outside the support."""
        anti = npoly.polyint(self._derivs[0])  # vanishes at 0 by construction
        xa = np.asarray(x, dtype=float)
        return npoly.polyval(np.clip(xa, 0.0, 1.0), anti)

    def variance(self) -> float:
        # Var of a symmetric Beta(p+1, p+1) law
        return 1.0 / (4.0 * (2.0 * self.p + 3.0))

    # -- score pieces (used by the derivative estimators) ---------------------

    def log_derivative(self, x):
        """(log rho)'(x) = p/x - p/(1-x); caller keeps x strictly inside (0, 1)."""
        xa = np.asarray(x, dtype=float)
        return self.p / xa - self.p / (1.0 - xa)

    def log_curvature(self, x):
        """(log rho)''(x) = rho''/rho - (rho'/rho)^2, again for interior x."""
        xa = np.asarray(x, dtype=float)
        return -self.p / xa**2 - self.p / (1.0 - xa) ** 2

    def score_factor(self, x, ell: int):
        """Order-ell score weight of the product law at x, summed over the last axis.

        With S1 = sum (log rho)'(x_b) and S2 = sum (log rho)''(x_b) the weight
        is 1, S1 or S1^2 + S2 for ell = 0, 1, 2: the ell-th derivative of the
        product density along the all-ones direction, over the density.
        """
        xa = np.asarray(x, dtype=float)
        if ell == 0:
            return np.ones(xa.shape[:-1])
        if ell not in (1, 2):
            raise ValueError(f"score factors are defined for ell in 0..2, got {ell}")
        s1 = self.log_derivative(xa).sum(axis=-1)
        if ell == 1:
            return s1
        return s1 * s1 + self.log_curvature(xa).sum(axis=-1)

    def check_score_order(self, ell: int) -> None:
        """Reject an order ell >= 1 whose score weight this law cannot carry.

        The weight needs ell <= 2 (score_factor), ell continuous derivatives,
        and a finite second moment.
        """
        if ell == 0:
            return
        if ell > 2:
            raise ValueError(
                f"score route supports derivative orders up to 2, got {ell}"
            )
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

    def prefix_score_factors(self, x, ell: int) -> np.ndarray:
        """score_factor(x[..., :k], ell) for every k = 1 .. x.shape[-1].

        One cumulative sum serves every prefix, so the values agree with
        score_factor up to summation order (the last bits).
        """
        xa = np.asarray(x, dtype=float)
        if ell == 0:
            return np.ones(xa.shape)
        if ell not in (1, 2):
            raise ValueError(f"score factors are defined for ell in 0..2, got {ell}")
        s1 = np.cumsum(self.log_derivative(xa), axis=-1)
        if ell == 1:
            return s1
        return s1 * s1 + np.cumsum(self.log_curvature(xa), axis=-1)

    # -- derivative norms ------------------------------------------------------

    def derivative_coefficients(self, order: int) -> np.ndarray:
        """Ascending polynomial coefficients of rho^(order) on [0, 1]."""
        if not 0 <= order <= self.p:
            raise ValueError(f"derivative order {order} outside [0, {self.p}]")
        return self._derivs[order].copy()

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


def _real_roots_in_unit_interval(coeffs) -> np.ndarray:
    if len(np.atleast_1d(coeffs)) < 2:
        return np.empty(0)
    roots = npoly.polyroots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-9].real
    return real[(real > 0.0) & (real < 1.0)]

