"""The shell-ordered box, its block projections, and the random-operator model.

A SiteSpace fixes the enumeration x_0, x_1, ... used everywhere downstream:
finite volumes are index prefixes, so "grow the volume by one site" is just
"extend the prefix".  The box {-L..L}^d carries the sup metric and is ordered
shell by shell (lexicographic inside a shell), which makes every new site
sit at distance exactly 1 from the sites before it.  That property is checked
at construction, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .disorder import SingleSiteDensity
from .spectral import _DENSE_DIMENSION_CAP


class SiteSpace:
    """Box {-L..L}^d under the sup metric, enumerated shell by shell.

    sites are coordinate tuples and coords the same points as an (n, d) array.
    """

    def __init__(self, dimension: int, half_width: int):
        if int(dimension) != dimension or dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
        if int(half_width) != half_width or half_width < 0:
            raise ValueError(
                f"half width must be a non-negative integer, got {half_width!r}"
            )
        d, L = int(dimension), int(half_width)
        n = (2 * L + 1) ** d
        if n > _DENSE_DIMENSION_CAP:
            raise ValueError(f"box has {n} sites, above the dense cap {_DENSE_DIMENSION_CAP}")
        # Shell by sup norm; inside a shell, lexicographic with larger
        # coordinates first, so the positive semi-axis precedes its mirror image.
        self.sites = sorted(
            product(range(-L, L + 1), repeat=d),
            key=lambda s: (max(abs(c) for c in s), tuple(-c for c in s)),
        )
        self.coords = np.array(self.sites, dtype=np.int64)
        self.dimension = d
        self.half_width = L
        _check_unit_increment(self.coords)

    def __len__(self):
        return len(self.sites)


def build_box_enumeration(dimension: int, half_width: int) -> SiteSpace:
    """Box {-L..L}^d under the sup metric, enumerated shell by shell."""
    return SiteSpace(dimension, half_width)


def _site_index(coords: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of each row of points among coords (-1 where none), for points
    within one step of the bounding box of coords."""
    lo = coords.min(axis=0) - 1
    span = coords.max(axis=0) - lo + 2
    keys = np.ravel_multi_index((coords - lo).T, span)
    order = np.argsort(keys)
    query = np.ravel_multi_index((points - lo).T, span)
    pos = np.minimum(np.searchsorted(keys[order], query), len(keys) - 1)
    return np.where(keys[order[pos]] == query, order[pos], -1)


def _check_unit_increment(coords: np.ndarray) -> None:
    """Every freshly added site must touch the previous volume: d(prefix, next)
    == 1.  Distinct sites sit at distance >= 1, so d == 1 means that some
    sup-metric neighbour has a lower index."""
    n, d = coords.shape
    steps = np.array([o for o in product((-1, 0, 1), repeat=d) if any(o)])
    nb = _site_index(coords, (coords + steps[:, None]).reshape(-1, d))
    first = np.where(nb >= 0, nb, n).reshape(len(steps), n).min(axis=0)
    late = np.flatnonzero(first[1:] > np.arange(1, n))
    if late.size:
        k = int(late[0]) + 1
        d_min = int(np.min(np.max(np.abs(coords[:k] - coords[k]), axis=1)))
        raise ValueError(
            f"enumeration violates the unit-increment property at index {k} "
            f"(distance {d_min})"
        )


class ProjectionFamily:
    """Partition of the site indices into contiguous blocks of rank sites.

    Block n carries the coordinate projection P_n onto sites n*rank, ...,
    n*rank + rank - 1 (the last block takes what is left), so the blocks cover
    every site once and resolve the identity on any aligned prefix.
    """

    def __init__(self, n_sites: int, rank: int = 1):
        if rank < 1:
            raise ValueError("block rank must be at least 1")
        self.n_sites = int(n_sites)
        self._cum_sites = np.append(np.arange(0, self.n_sites, rank), self.n_sites)
        self._sizes = np.diff(self._cum_sites)

    def __len__(self):
        return len(self._sizes)

    @classmethod
    def contiguous(cls, n_sites: int, rank: int = 1) -> "ProjectionFamily":
        return cls(n_sites, rank)

    def block_sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def sites_of_block(self, n: int) -> np.ndarray:
        return np.arange(self._cum_sites[n], self._cum_sites[n + 1])

    def blocks_for_prefix(self, n_prefix_sites: int) -> int:
        """Number of leading blocks covering exactly n_prefix_sites sites."""
        k = int(np.searchsorted(self._cum_sites, n_prefix_sites))
        if self._cum_sites[k] != n_prefix_sites:
            raise ValueError(
                f"prefix of {n_prefix_sites} sites does not align with block boundaries"
            )
        return k

    def prefix_sites(self, n_blocks: int) -> int:
        return int(self._cum_sites[n_blocks])


class FreeOperatorSpec:
    """Deterministic part h0: Hermitian hopping with a zero diagonal.

    Pair k couples sites i[k] < j[k] with amplitude amp[k]; the mirror entry is
    the conjugate, so the assembled matrix is Hermitian by construction.
    """

    def __init__(self, n_sites: int, i: np.ndarray, j: np.ndarray, amp: np.ndarray):
        self.n_sites = int(n_sites)
        self._pairs = (i, j, amp)
        self._is_real = not np.any(amp.imag)

    @classmethod
    def zero(cls, space: SiteSpace) -> "FreeOperatorSpec":
        none = np.zeros(0, dtype=np.int64)
        return cls(len(space), none, none, np.zeros(0, dtype=np.complex128))

    @classmethod
    def nearest_neighbor(
        cls,
        space: SiteSpace,
        amplitude: complex = 1.0,
        phase: Callable[[tuple, tuple], float] | None = None,
    ) -> "FreeOperatorSpec":
        """Hopping between lattice neighbors (coordinate difference one step).

        phase(site_a, site_b) adds a Peierls factor exp(i*phase) on top of the
        common amplitude, one call per pair (a before b in the enumeration).
        """
        c = space.coords
        n, d = c.shape
        nb = _site_index(c, (c + np.eye(d, dtype=np.int64)[:, None]).reshape(-1, d))
        src = np.tile(np.arange(n), d)
        i, j = np.minimum(src, nb)[nb >= 0], np.maximum(src, nb)[nb >= 0]
        order = np.lexsort((j, i))
        i, j = i[order], j[order]
        amp = complex(amplitude)
        if phase is None:
            amps = np.full(i.size, amp)
        else:
            amps = np.array(
                [
                    amp * np.exp(1j * phase(space.sites[a], space.sites[b]))
                    for a, b in zip(i.tolist(), j.tolist())
                ],
                dtype=np.complex128,
            )
        return cls(n, i, j, amps)

    def entries(self, n_sites: int | None = None):
        """(rows, cols, values) of h0 on the leading n_sites sites: each pair
        and its conjugate mirror; real when h0 is."""
        n = self.n_sites if n_sites is None else int(n_sites)
        i, j, amp = self._pairs
        inside = j < n
        i, j, amp = i[inside], j[inside], amp[inside]
        vals = np.concatenate([amp, amp.conj()])
        rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
        return rows, cols, vals.real if self._is_real else vals

    def matrix(self, n_sites: int | None = None) -> np.ndarray:
        """Dense h0 on the leading n_sites sites (full space by default)."""
        rows, cols, vals = self.entries(n_sites)
        n = self.n_sites if n_sites is None else int(n_sites)
        h = np.zeros((n, n), dtype=vals.dtype)
        h[rows, cols] = vals
        return h


@dataclass
class ModelSpec:
    """Random operator h = h0 + coupling * sum_n omega_n P_n on a site space.

    density is the common law of the i.i.d. block couplings omega_n.
    """

    site_space: SiteSpace
    projections: ProjectionFamily
    free: FreeOperatorSpec
    coupling: float
    density: SingleSiteDensity = field(default_factory=lambda: SingleSiteDensity(2))

    def __post_init__(self):
        if not self.coupling > 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        n = len(self.site_space)
        if self.projections.n_sites != n:
            raise ValueError("projection family does not cover the site space")
        if self.free.n_sites != n:
            raise ValueError("free operator does not cover the site space")
        if not isinstance(self.density, SingleSiteDensity):
            raise ValueError("density must be one SingleSiteDensity shared by all blocks")

    @property
    def n_blocks(self) -> int:
        return len(self.projections)

    def block_distances(self, n: int) -> np.ndarray:
        """Metric distance from block n to every block (minimum over their sites)."""
        c, sizes = self.site_space.coords, self.projections.block_sizes()
        site = np.full(len(c), np.iinfo(np.int64).max)
        for x in c[self.projections.sites_of_block(n)]:
            site = np.minimum(site, np.abs(c - x).max(axis=1))
        return np.minimum.reduceat(site, np.cumsum(sizes) - sizes)
