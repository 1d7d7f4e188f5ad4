"""Finite site spaces, shell enumerations, and random-operator assembly.

A SiteSpace fixes the enumeration x_0, x_1, ... used everywhere downstream:
finite volumes are index prefixes, so "grow the volume by one site" is just
"extend the prefix".  Box spaces over Z^d use the sup metric and are ordered
shell by shell (lexicographic inside a shell), which makes every new site
sit at distance exactly 1 from the sites before it.  That property is checked
at construction, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .disorder import SingleSiteDensity
from .spectral import _DENSE_DIMENSION_CAP


class SiteSpace:
    """Enumerated finite metric space of sites.

    sites are coordinate tuples (Z^d boxes) or opaque labels (general graphs).
    alpha is the declared growth exponent: the distance from x_0 to the
    complement of the first N sites should grow like N**alpha.  growth_constant
    is the measured constant r_G = min_N dist(x_0, complement) / N**alpha over
    the constructed range.
    """

    def __init__(
        self,
        sites: Sequence,
        distance: Callable[[int, int], int],
        alpha: float | None,
        dimension: int | None = None,
        half_width: int | None = None,
        coords: np.ndarray | None = None,
    ):
        self.sites = list(sites)
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate sites in enumeration")
        self._distance = distance
        self.alpha = alpha
        self.dimension = dimension
        self.half_width = half_width
        self.coords = coords
        self.growth_constant: float | None = None
        _check_unit_increment(self)
        if alpha is not None:
            self.growth_constant = _measure_growth_constant(self)

    def __len__(self):
        return len(self.sites)

    def distance(self, i: int, j: int) -> int:
        """Metric between sites by enumeration index."""
        return self._distance(i, j)


def build_box_enumeration(dimension: int, half_width: int) -> SiteSpace:
    """Box {-L..L}^d under the sup metric, enumerated shell by shell.

    Ties inside a shell break lexicographically.  alpha = 1/d.
    """
    if int(dimension) != dimension or dimension < 1:
        raise ValueError(f"dimension must be a positive integer, got {dimension!r}")
    if int(half_width) != half_width or half_width < 0:
        raise ValueError(f"half width must be a non-negative integer, got {half_width!r}")
    d, L = int(dimension), int(half_width)
    if (2 * L + 1) ** d > _DENSE_DIMENSION_CAP:
        raise ValueError(
            f"box has {(2 * L + 1) ** d} sites, above the dense cap {_DENSE_DIMENSION_CAP}"
        )
    # Shell by sup norm; inside a shell, lexicographic with larger coordinates
    # first, so the positive semi-axis precedes its mirror image.
    sites = sorted(
        product(range(-L, L + 1), repeat=d),
        key=lambda s: (max(abs(c) for c in s), tuple(-c for c in s)),
    )
    coords = np.array(sites, dtype=np.int64)

    def dist(i: int, j: int) -> int:
        return int(np.max(np.abs(coords[i] - coords[j])))

    return SiteSpace(
        sites,
        dist,
        alpha=1.0 / d,
        dimension=d,
        half_width=L,
        coords=coords,
    )


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


def _check_unit_increment(space: SiteSpace) -> None:
    # every freshly added site must touch the previous volume: d(prefix, next) == 1
    n = len(space.sites)
    if n > 1 and space.coords is not None:
        # distinct sites sit at distance >= 1, so d == 1 means that some
        # sup-metric neighbour has a lower index
        c = space.coords
        steps = np.array([o for o in product((-1, 0, 1), repeat=c.shape[1]) if any(o)])
        nb = _site_index(c, (c + steps[:, None]).reshape(-1, c.shape[1]))
        first = np.where(nb >= 0, nb, n).reshape(len(steps), n).min(axis=0)
        late = np.flatnonzero(first[1:] > np.arange(1, n))
        if late.size:
            k = int(late[0]) + 1
            d_min = int(np.min(np.max(np.abs(c[:k] - c[k]), axis=1)))
            raise ValueError(
                f"enumeration violates the unit-increment property at index {k} "
                f"(distance {d_min})"
            )
        return
    for k in range(1, n):
        d_min = min(space.distance(j, k) for j in range(k))
        if d_min != 1:
            raise ValueError(
                f"enumeration violates the unit-increment property at index {k} "
                f"(distance {d_min})"
            )


def _measure_growth_constant(space: SiteSpace) -> float:
    # distance from x_0 to everything not yet enumerated, over N = 1..n-1.
    # Measured, not assumed: take the running minimum over the tail of the
    # enumeration; the exterior of a completed box sits at distance L+1.
    n = len(space.sites)
    if n < 2:
        return float("inf")
    beyond = float("inf") if space.half_width is None else float(space.half_width + 1)
    if space.coords is not None:
        from_origin = np.max(np.abs(space.coords - space.coords[0]), axis=1)
    else:
        from_origin = np.array([space.distance(0, k) for k in range(n)])
    tail_min = np.minimum.accumulate(from_origin[::-1].astype(float))[::-1]
    d0 = np.minimum(tail_min[1:], beyond)
    r = float(np.min(d0 / np.arange(1, n) ** space.alpha))
    if not r > 0.0:
        raise ValueError("growth constant is not positive for the declared exponent")
    return r


class ProjectionFamily:
    """Partition of the site indices into contiguous blocks of bounded rank.

    Block n carries the coordinate projection P_n onto its sites; together the
    blocks resolve the identity on any aligned prefix.
    """

    def __init__(self, blocks: Sequence[Sequence[int]], n_sites: int):
        flat = [i for b in blocks for i in b]
        if sorted(flat) != list(range(n_sites)):
            raise ValueError("blocks must partition the site indices exactly")
        self.blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
        self.n_sites = int(n_sites)
        self.rank_max = max(len(b) for b in self.blocks)
        self._sizes = np.array([len(b) for b in self.blocks], dtype=np.int64)
        self._cum_sites = np.concatenate([[0], np.cumsum(self._sizes)])

    def __len__(self):
        return len(self.blocks)

    @classmethod
    def contiguous(cls, n_sites: int, rank: int = 1) -> "ProjectionFamily":
        if rank < 1:
            raise ValueError("block rank must be at least 1")
        blocks = [
            list(range(a, min(a + rank, n_sites))) for a in range(0, n_sites, rank)
        ]
        return cls(blocks, n_sites)

    def block_sizes(self) -> np.ndarray:
        return self._sizes.copy()

    def sites_of_block(self, n: int) -> np.ndarray:
        return self.blocks[n]

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
    """Deterministic part h0: Hermitian hopping plus a real diagonal.

    hopping maps index pairs (i, j), i < j, to complex amplitudes; the mirror
    entry is the conjugate, so the assembled matrix is Hermitian by
    construction.  hop_range bounds the metric distance of any hopping pair.
    """

    def __init__(
        self,
        hopping: dict[tuple[int, int], complex],
        diagonal: np.ndarray,
        hop_range: int,
    ):
        self.diagonal = np.asarray(diagonal, dtype=float)
        n = self.diagonal.shape[0]
        clean: dict[tuple[int, int], complex] = {}
        for (i, j), amp in hopping.items():
            if i == j:
                raise ValueError("diagonal terms belong in `diagonal`, not hopping")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"hopping pair {(i, j)} outside the site range")
            key = (i, j) if i < j else (j, i)
            val = complex(amp) if i < j else complex(np.conj(amp))
            if key in clean and clean[key] != val:
                raise ValueError(f"conflicting amplitudes for pair {key}")
            clean[key] = val
        self.hopping = clean
        self.hop_range = int(hop_range)
        self._is_real = all(abs(v.imag) == 0.0 for v in clean.values())
        pairs = np.array(list(clean), dtype=np.int64).reshape(-1, 2)
        self._pairs = (*pairs.T, np.array(list(clean.values()), dtype=np.complex128))

    @classmethod
    def zero(cls, space: SiteSpace) -> "FreeOperatorSpec":
        return cls({}, np.zeros(len(space)), hop_range=0)

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
        Spaces without coordinates hop between sites at distance one.
        """
        n = len(space)
        if space.dimension is not None:
            coords = np.array(space.sites, dtype=np.int64).reshape(n, -1)
            d = coords.shape[1]
            nb = _site_index(coords, (coords + np.eye(d, dtype=np.int64)[:, None]).reshape(-1, d))
            src = np.tile(np.arange(n), d)
            i, j = np.minimum(src, nb)[nb >= 0], np.maximum(src, nb)[nb >= 0]
        else:
            i, j = np.triu_indices(n, 1)
            unit = [space.distance(int(a), int(b)) == 1 for a, b in zip(i, j)]
            i, j = i[unit], j[unit]
        order = np.lexsort((j, i))
        hopping = {}
        for a, b in zip(i[order].tolist(), j[order].tolist()):
            amp = complex(amplitude)
            if phase is not None:
                amp *= np.exp(1j * phase(space.sites[a], space.sites[b]))
            hopping[(a, b)] = amp
        return cls(hopping, np.zeros(n), hop_range=1)

    def entries(self, n_sites: int | None = None):
        """(rows, cols, values) of h0 on the leading n_sites sites: the whole
        diagonal, then each pair and its conjugate mirror; real when h0 is."""
        n = self.diagonal.shape[0] if n_sites is None else int(n_sites)
        i, j, amp = self._pairs
        inside = j < n
        i, j, amp = i[inside], j[inside], amp[inside]
        diag = np.arange(n)
        rows = np.concatenate([diag, i, j])
        cols = np.concatenate([diag, j, i])
        vals = np.concatenate([self.diagonal[:n], amp, amp.conj()])
        return rows, cols, vals.real if self._is_real else vals

    def matrix(self, n_sites: int | None = None) -> np.ndarray:
        """Dense h0 on the leading n_sites sites (full space by default)."""
        rows, cols, vals = self.entries(n_sites)
        n = self.diagonal.shape[0] if n_sites is None else int(n_sites)
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
        if self.free.diagonal.shape[0] != n:
            raise ValueError("free operator does not cover the site space")
        if not isinstance(self.density, SingleSiteDensity):
            raise ValueError("density must be one SingleSiteDensity shared by all blocks")

    @property
    def n_blocks(self) -> int:
        return len(self.projections)

    def block_distance(self, n: int, k: int) -> int:
        """Metric distance between two blocks (minimum over their sites)."""
        a = self.projections.sites_of_block(n)
        b = self.projections.sites_of_block(k)
        return min(self.site_space.distance(int(i), int(j)) for i in a for j in b)


def assemble_hamiltonian(
    model: ModelSpec, omega: np.ndarray, n_prefix_sites: int
) -> np.ndarray:
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
