import numpy as np
import pytest
from numpy.testing import assert_array_equal

from doslab.disorder import SingleSiteDensity
from doslab.lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    _check_unit_increment,
    assemble_hamiltonian,
    build_box_enumeration,
)
from doslab.montecarlo import _Volume


def chain_model(half_width=6, coupling=2.0, p=2, rank=1):
    space = build_box_enumeration(1, half_width)
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), rank),
        free=FreeOperatorSpec.nearest_neighbor(space),
        coupling=coupling,
        density=SingleSiteDensity(p),
    )


# -- enumeration ---------------------------------------------------------------


def test_one_dimensional_enumeration_is_frozen():
    space = build_box_enumeration(1, 2)
    assert space.sites == [(0,), (1,), (-1,), (2,), (-2,)]
    assert_array_equal(space.coords, [[0], [1], [-1], [2], [-2]])
    assert space.dimension == 1 and space.half_width == 2


@pytest.mark.parametrize("dimension,half_width", [(1, 8), (2, 3), (3, 1)])
def test_every_new_site_touches_the_previous_volume(dimension, half_width):
    space = build_box_enumeration(dimension, half_width)
    # recompute the increment distances directly from the coordinates
    for k in range(1, len(space)):
        d = min(space.distance(j, k) for j in range(k))
        assert d == 1, f"site {space.sites[k]} joined at distance {d}"


def test_shells_are_enumerated_in_order():
    space = build_box_enumeration(2, 3)
    radii = [max(abs(c) for c in s) for s in space.sites]
    assert radii == sorted(radii)
    # shell r holds (2r+1)^2 - (2r-1)^2 sites
    for r in range(4):
        assert radii.count(r) == (8 * r if r else 1)


def test_distance_matrix_is_a_metric():
    space = build_box_enumeration(2, 2)
    n = len(space)
    m = np.array([[space.distance(i, j) for j in range(n)] for i in range(n)])
    # the sup metric of the coordinates
    c = np.array(space.sites)
    assert_array_equal(m, np.abs(c[:, None, :] - c[None, :, :]).max(axis=2))
    assert_array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)
    # triangle inequality on a full small box
    for i in range(n):
        assert np.all(m[i][None, :] <= m[i][:, None] + m)


def test_shuffled_enumeration_is_rejected():
    good = build_box_enumeration(1, 2)
    shuffled = good.coords[[0, 3, 1, 2, 4]]  # (2) joins before (1), at distance 2
    with pytest.raises(ValueError, match="unit-increment"):
        _check_unit_increment(shuffled)
    _check_unit_increment(good.coords)


def test_box_validation():
    with pytest.raises(ValueError):
        build_box_enumeration(0, 3)
    with pytest.raises(ValueError):
        build_box_enumeration(2, -1)
    with pytest.raises(ValueError, match="dense cap"):
        build_box_enumeration(2, 40)


# -- projections ----------------------------------------------------------------


def test_contiguous_blocks_partition():
    fam = ProjectionFamily.contiguous(5, rank=2)
    blocks = [list(fam.sites_of_block(n)) for n in range(len(fam))]
    assert blocks == [[0, 1], [2, 3], [4]]
    assert list(fam.block_sizes()) == [2, 2, 1]
    assert fam.blocks_for_prefix(2) == 1
    assert fam.blocks_for_prefix(4) == 2
    assert fam.blocks_for_prefix(5) == 3
    assert fam.prefix_sites(2) == 4
    with pytest.raises(ValueError, match="align"):
        fam.blocks_for_prefix(3)


def test_projector_matrices_resolve_identity():
    fam = ProjectionFamily.contiguous(6, rank=2)
    cols = [np.eye(6)[:, fam.sites_of_block(n)] for n in range(len(fam))]
    mats = [c @ c.T for c in cols]
    for pmat in mats:
        assert_array_equal(pmat, pmat @ pmat)
        assert_array_equal(pmat, pmat.T)
    assert_array_equal(sum(mats), np.eye(6))


# -- free operator and assembly ---------------------------------------------------


def test_nearest_neighbor_matrix_on_a_chain():
    space = build_box_enumeration(1, 2)  # [0, 1, -1, 2, -2]
    h = FreeOperatorSpec.nearest_neighbor(space).matrix()
    want = np.zeros((5, 5))
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 4)]:
        want[i, j] = want[j, i] = 1.0
    assert_array_equal(h, want)
    assert h.dtype == np.float64


@pytest.mark.parametrize("dimension,half_width", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("with_phase", [False, True])
def test_nearest_neighbor_matches_brute_force_pairs(dimension, half_width, with_phase):
    space = build_box_enumeration(dimension, half_width)
    calls = []

    def phase(a, b):
        calls.append((a, b))
        return 0.3 * a[0] - 0.5 * b[-1] + 0.1

    amp = 0.8 - 0.6j
    spec = FreeOperatorSpec.nearest_neighbor(
        space, amplitude=amp, phase=phase if with_phase else None
    )
    built = list(calls)
    want = {}
    for i, a in enumerate(space.sites):
        for j, b in enumerate(space.sites):
            if i < j and sum(abs(x - y) for x, y in zip(a, b)) == 1:
                want[(i, j)] = amp * (np.exp(1j * phase(a, b)) if with_phase else 1.0)
    i, j, values = spec._pairs
    assert dict(zip(zip(i.tolist(), j.tolist()), values.tolist())) == want
    # one phase call per pair, the earlier site of the enumeration first
    assert sorted(built) == sorted(
        (space.sites[i], space.sites[j]) for i, j in want if with_phase
    )
    ref = np.zeros((len(space), len(space)), dtype=complex)
    for (i, j), value in want.items():
        ref[i, j], ref[j, i] = value, np.conj(value)
    assert_array_equal(spec.matrix(), ref)


def test_two_site_assembly_is_exact():
    model = chain_model(half_width=1, coupling=2.0)
    h = assemble_hamiltonian(model, np.array([0.3, 0.7]), n_prefix_sites=2)
    assert_array_equal(h, np.array([[0.6, 1.0], [1.0, 1.4]]))


def test_restrictions_are_leading_principal_blocks():
    model = chain_model(half_width=6)
    rng = np.random.default_rng(11)
    om = rng.random(13)
    h_full = assemble_hamiltonian(model, om, 13)
    for n in (1, 4, 9):
        assert_array_equal(assemble_hamiltonian(model, om[:n], n), h_full[:n, :n])


@pytest.mark.parametrize("dimension,half_width", [(1, 3), (2, 1)])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_assembly_adds_the_coupled_block_projections(dimension, half_width, rank):
    # h - h0 = coupling * sum_n omega_n P_n, P_n built from sites_of_block(n)
    space = build_box_enumeration(dimension, half_width)
    n = len(space)
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(n, rank),
        free=FreeOperatorSpec.nearest_neighbor(space, amplitude=0.6 + 0.8j),
        coupling=1.7,
    )
    om = np.random.default_rng(rank).random(model.n_blocks)
    disorder = np.zeros((n, n))
    for b in range(model.n_blocks):
        cols = np.eye(n)[:, model.projections.sites_of_block(b)]
        disorder += om[b] * (cols @ cols.T)
    disorder *= model.coupling
    h = assemble_hamiltonian(model, om, n)
    assert_array_equal(h - model.free.matrix(n), disorder)
    assert_array_equal(_Volume(model, n).diagonals(om[None])[0], np.diag(disorder))


def test_free_chain_spectrum_window():
    space = build_box_enumeration(1, 50)
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space)),
        free=FreeOperatorSpec.nearest_neighbor(space),
        coupling=1.0,
    )
    ev = np.linalg.eigvalsh(assemble_hamiltonian(model, np.zeros(101), 101))
    assert ev[0] >= -2.0 - 1e-6
    assert ev[-1] <= 2.0 + 1e-6


def test_spectrum_bounds_widen_with_volume():
    model = chain_model(half_width=8, coupling=3.0)
    om = np.random.default_rng(5).random(17)
    prev = (np.inf, -np.inf)
    for n in (3, 7, 13, 17):
        ev = np.linalg.eigvalsh(assemble_hamiltonian(model, om[:n], n))
        lo, hi = ev[0], ev[-1]
        assert lo <= prev[0] + 1e-12 and hi >= prev[1] - 1e-12
        prev = (lo, hi)


def test_assembled_matrix_is_hermitian_with_phases():
    space = build_box_enumeration(2, 2)
    free = FreeOperatorSpec.nearest_neighbor(
        space, phase=lambda a, b: 0.7 * (a[0] * b[1] - a[1] * b[0])
    )
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space)),
        free=free,
        coupling=1.5,
    )
    om = np.random.default_rng(3).random(model.n_blocks)
    h = assemble_hamiltonian(model, om, len(space))
    assert h.dtype == np.complex128
    assert_array_equal(h, h.conj().T)
    assert np.max(np.abs(np.linalg.eigvalsh(h).imag)) == 0.0


def test_norm_bound_dominates_spectrum():
    model = chain_model(half_width=7, coupling=2.5)
    om = np.random.default_rng(8).random(15)
    ev = np.linalg.eigvalsh(assemble_hamiltonian(model, om, 15))
    # row-sum bound on ||h0||, plus the largest disorder term
    bound = np.abs(model.free.matrix()).sum(axis=1).max() + model.coupling
    assert np.max(np.abs(ev)) <= bound + 1e-12


def test_assembly_validations():
    model = chain_model(half_width=2)
    with pytest.raises(ValueError, match="prefix size"):
        assemble_hamiltonian(model, np.zeros(0), 0)
    with pytest.raises(ValueError, match="expected"):
        assemble_hamiltonian(model, np.zeros(4), 3)
    with pytest.raises(ValueError, match="support"):
        assemble_hamiltonian(model, np.array([0.5, 1.5, 0.5]), 3)
    rank2 = ModelSpec(
        site_space=model.site_space,
        projections=ProjectionFamily.contiguous(5, rank=2),
        free=model.free,
        coupling=1.0,
    )
    with pytest.raises(ValueError, match="align"):
        assemble_hamiltonian(rank2, np.zeros(1), 3)


def test_model_validations():
    space = build_box_enumeration(1, 1)
    fam = ProjectionFamily.contiguous(3)
    free = FreeOperatorSpec.nearest_neighbor(space)
    with pytest.raises(ValueError, match="coupling"):
        ModelSpec(space, fam, free, coupling=0.0)
    with pytest.raises(ValueError, match="cover"):
        ModelSpec(space, ProjectionFamily.contiguous(2), free, coupling=1.0)
    with pytest.raises(ValueError, match="one SingleSiteDensity"):
        ModelSpec(space, fam, free, 1.0, density=[SingleSiteDensity(2)] * 3)


def test_block_distance_uses_site_metric():
    model = chain_model(half_width=2)
    assert model.block_distance(0, 3) == 2  # sites (0) and (2)
    assert model.block_distance(1, 2) == 2  # sites (1) and (-1)
    rank2 = ModelSpec(
        site_space=model.site_space,
        projections=ProjectionFamily.contiguous(5, rank=2),
        free=model.free,
        coupling=1.0,
    )
    assert rank2.block_distance(0, 1) == 1  # {0,1} meets {-1,2} at |0-(-1)|
