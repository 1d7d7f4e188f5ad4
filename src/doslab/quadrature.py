"""Composite Gauss-Legendre rules on intervals."""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=64)
def _leggauss(n_nodes: int):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(a: float, b: float, n_nodes: int = 16, n_panels: int = 1):
    """Nodes and weights for [a, b], Gauss-Legendre of order n_nodes per panel."""
    if b <= a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if n_nodes < 1 or n_panels < 1:
        raise ValueError("need at least one node and one panel")
    base_x, base_w = _leggauss(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    return x, w
