"""Resolvent and spectral-projection checks against slow oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from doslab.disorder import SingleSiteDensity
from doslab.lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    assemble_hamiltonian,
    build_box_enumeration,
)
from doslab.montecarlo import McConfig, draw_disorder, ids_curve
from doslab.spectral import (
    CscPattern,
    block_coupling_poles,
    eigen_weights,
    nested_block_traces,
)


def random_hermitian(n, seed, complex_entries=False):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def resolvent_columns(h, z, columns):
    """Columns of (h - z)^{-1} through a CscPattern of h's nonzeros, as in fracmom."""
    rows, cols = np.nonzero(h)
    pattern = CscPattern(rows, cols, h[rows, cols], h.shape[0])
    return pattern.resolvent_columns(pattern.data, z, columns)


def test_resolvent_columns_match_dense_inverse():
    h = random_hermitian(30, seed=42)
    z = 0.3 + 0.05j
    full = np.linalg.inv(h - z * np.eye(30))
    cols = resolvent_columns(h, z, [0, 7, 29])
    assert cols.shape == (30, 3)
    assert_allclose(cols, full[:, [0, 7, 29]], rtol=1e-11, atol=1e-13)


def test_resolvent_rejects_real_energy():
    h = random_hermitian(5, seed=1)
    with pytest.raises(ValueError, match="imaginary"):
        resolvent_columns(h, 0.5, [0])
    with pytest.raises(ValueError, match="imaginary"):
        resolvent_columns(h, 0.5 - 0.1j, [0])


def test_kernel_block_entries_and_orientation():
    h = random_hermitian(6, seed=7)
    fam = ProjectionFamily.contiguous(6, rank=2)
    z = -0.2 + 0.4j
    # P_2 (h - z)^{-1} P_0: rows of block 2 from the columns of block 0
    blk = resolvent_columns(h, z, fam.sites_of_block(0))[fam.sites_of_block(2), :]
    full = np.linalg.inv(h - z * np.eye(6))
    assert_allclose(blk, full[np.ix_([4, 5], [0, 1])], rtol=1e-11)


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
def test_kernel_block_norm_bounded_by_shift(eps):
    h = random_hermitian(12, seed=3)
    fam = ProjectionFamily.contiguous(12, rank=3)
    z = complex(0.7, eps)
    for src in range(4):
        cols = resolvent_columns(h, z, fam.sites_of_block(src))
        for tgt in range(4):
            block = cols[fam.sites_of_block(tgt), :]
            assert np.linalg.norm(block, 2) <= 1.0 / eps + 1e-10


def test_trace_against_block_is_herglotz():
    h = random_hermitian(14, seed=9)
    idx = [0, 1, 2]
    for energy in np.linspace(-3, 3, 11):
        cols = resolvent_columns(h, complex(energy, 0.15), idx)
        tr = np.trace(cols[idx, :])
        assert tr.imag > 0.0


def test_resolvent_of_real_matrix_is_symmetric():
    h = random_hermitian(10, seed=13)
    cols = resolvent_columns(h, 1.0 + 0.2j, list(range(10)))
    assert_allclose(cols, cols.T, rtol=1e-11, atol=1e-14)


def test_spectral_projector_trace_counts_closed_interval():
    # ids_curve estimates tr(P_0 E_h((-inf, E])); with one sample it is that
    # trace for sample 0, and an eigenvalue exactly at E counts
    space = build_box_enumeration(1, 3)
    model = ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), 1),
        free=FreeOperatorSpec.nearest_neighbor(space),
        coupling=1.5,
        density=SingleSiteDensity(2),
    )
    mc = McConfig(n_samples=1, master_seed=6)
    om = draw_disorder(model, mc.master_seed, 0)
    evals, w = eigen_weights(assemble_hamiltonian(model, om, 7), [0])
    for j in (0, 3, 6):
        assert w[j] > 1e-2  # the step at evals[j] is visible
        at, below = ids_curve(model, 7, [evals[j], np.nextafter(evals[j], -np.inf)], mc)
        assert at.mean == pytest.approx(w[: j + 1].sum(), abs=1e-12)
        assert below.mean == pytest.approx(w[:j].sum(), abs=1e-12)


def test_eigen_weights_sum_to_block_rank():
    h = random_hermitian(16, seed=21, complex_entries=True)
    for block in ([0], [3, 4, 5], list(range(16))):
        evals, weights = eigen_weights(h, block)
        assert evals.shape == (16,) and weights.shape == (16,)
        assert np.all(np.diff(evals) >= 0)
        assert np.sum(weights) == pytest.approx(len(block), abs=1e-12)
        assert np.all(weights >= -1e-15)


def test_smoothed_trace_integrates_to_block_rank():
    # (1/pi) Im tr(P (h - E - i eps)^{-1}) integrates over E to tr(P)
    h = random_hermitian(9, seed=30)
    evals, weights = eigen_weights(h, [0, 1])
    eps = 0.3

    def smoothed(e):
        return float(np.sum(weights * eps / ((evals - e) ** 2 + eps**2)) / np.pi)

    window = 60.0
    val, err = quad(smoothed, -window, window, limit=300)
    # Lorentzian tails past the window carry mass ~ eps * rank / (pi * window)
    tail = 2 * eps * 2 / (np.pi * (window - np.max(np.abs(evals))))
    assert err < 1e-8
    assert abs(val - 2.0) <= tail + 1e-6


def test_trace_derivative_matches_squared_resolvent():
    # d/dE tr(P (h - E - i eps)^{-1}) equals tr(P (h - E - i eps)^{-2})
    h = random_hermitian(11, seed=17)
    idx = [0, 4]
    eps, e0, step = 0.25, 0.4, 1e-5

    def tr_power(energy, power):
        evals, weights = eigen_weights(h, idx)
        return np.sum(weights / (evals - (energy + 1j * eps)) ** power)

    fd = (tr_power(e0 + step, 1) - tr_power(e0 - step, 1)) / (2 * step)
    assert_allclose(fd, tr_power(e0, 2), rtol=1e-8)


def test_resolvent_residual_guard_trips_on_singular_input():
    # h - z nearly singular with eps below the residual scale is fine;
    # an exactly repeated unit column forced through a singular system is not.
    h = np.diag([1.0, 1.0])
    cols = resolvent_columns(h, 1.0 + 1e-8j, [0])
    assert np.abs(cols[0, 0]) == pytest.approx(1e8, rel=1e-6)
    # a NaN residual fails the check instead of slipping past a ">" test
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
        resolvent_columns(np.diag([1.0, np.nan, 1.0]), 0.5j, [0])


@pytest.mark.parametrize(
    "box",
    [(3, 1, 3, 0.7), (2, 2, 5, 0.0), None],
    ids=["box3d-rank3-phase", "box2d-rank5", "dense-random"],
)
def test_resolvent_columns_match_dense_solve(box):
    if box is None:
        h = random_hermitian(40, seed=8, complex_entries=True)
        columns = [0, 17, 39]
    else:
        model = box_model(*box)
        h = assemble_hamiltonian(model, draw_disorder(model, 9, 0), len(model.site_space))
        assert np.iscomplexobj(h) == (box[3] != 0.0)
        columns = model.projections.sites_of_block(0)
    z = 0.2 + 0.05j
    n = h.shape[0]
    want = np.linalg.solve(h - z * np.eye(n), np.eye(n)[:, columns])
    got = resolvent_columns(h, z, columns)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# -- nested prefix traces ---------------------------------------------------------


def box_model(dimension, half_width, rank=1, phase=0.0, hopping=True):
    space = build_box_enumeration(dimension, half_width)
    amp = complex(np.cos(phase), np.sin(phase)) if phase else 1.0
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space), rank=rank),
        free=(
            FreeOperatorSpec.nearest_neighbor(space, amplitude=amp)
            if hopping
            else FreeOperatorSpec.zero(space)
        ),
        coupling=2.0,
        density=SingleSiteDensity(2),
    )


@pytest.mark.parametrize(
    "dimension, half_width, rank, phase",
    [(1, 32, 1, 0.0), (2, 4, 3, 0.0), (2, 7, 5, 0.7)],
)
def test_nested_block_traces_match_eigen_weights_on_every_prefix(
    dimension, half_width, rank, phase
):
    model = box_model(dimension, half_width, rank, phase)
    n = len(model.site_space)
    om = draw_disorder(model, 5, 0)
    h = assemble_hamiltonian(model, om, n)
    assert np.iscomplexobj(h) == (phase != 0.0)
    block0 = model.projections.sites_of_block(0)
    sizes = [model.projections.prefix_sites(k) for k in range(1, model.n_blocks + 1)]
    z = 0.3 + 0.1j
    got = nested_block_traces(h, np.zeros((1, n)), z, block0, sizes)[0]
    for size, tr in zip(sizes, got):
        evals, w = eigen_weights(h[:size, :size], block0)
        want = np.sum(w / (evals - z))
        assert abs(tr - want) <= 1e-12 * abs(want)


def test_nested_block_traces_validation():
    h = random_hermitian(6, seed=4)
    d = np.zeros((2, 6))
    z = 0.5j
    with pytest.raises(ValueError, match="smallest prefix"):
        nested_block_traces(h, d, z, [0, 2], [2, 4, 6])
    with pytest.raises(ValueError, match="smallest prefix"):
        nested_block_traces(h, d, z, [], [2, 4, 6])
    with pytest.raises(ValueError, match="prefix sizes"):
        nested_block_traces(h, d, z, [0], [0, 3])
    with pytest.raises(ValueError, match="prefix sizes"):
        nested_block_traces(h, d, z, [0], [3, 7])
    with pytest.raises(ValueError, match="prefix sizes"):
        nested_block_traces(h, d, z, [0], [])
    with pytest.raises(ValueError, match="square"):
        nested_block_traces(h[:, :5], d, z, [0], [3])
    with pytest.raises(ValueError, match="positive imaginary"):
        nested_block_traces(h, d, 0.5, [0], [3])
    with pytest.raises(ValueError, match="lanes"):
        nested_block_traces(h, np.zeros(6), z, [0], [3])
    with pytest.raises(ValueError, match="lanes"):
        nested_block_traces(h, np.zeros((2, 5)), z, [0], [3])


def test_nested_block_traces_respect_the_dense_cap(monkeypatch):
    import doslab.spectral as spectral

    monkeypatch.setattr(spectral, "_DENSE_DIMENSION_CAP", 5)
    with pytest.raises(ValueError, match="dense cap"):
        nested_block_traces(
            random_hermitian(6, seed=4), np.zeros((1, 6)), 0.5j, [0], [6]
        )


def test_nested_block_traces_carry_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    h = random_hermitian(6, seed=4)
    d = np.zeros((1, 6))
    assert np.all(np.isfinite(nested_block_traces(h, d, 0.5j, [0], [1, 6])))
    # a NaN residual fails the check instead of slipping past a ">" test
    bad = h.copy()
    bad[3, 3] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
        nested_block_traces(bad, d, 0.5j, [0], [1, 6])
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        nested_block_traces(h, d, 0.5j, [0], [1, 6])


def chain_lanes(n_lanes, rank=1, phase=0.0, hopping=True, half_width=32):
    """h0 of a chain in box order, a (lanes, n) stack of coupled diagonals,
    the sites of block 0 and every block prefix size."""
    model = box_model(1, half_width, rank, phase, hopping)
    sizes = model.projections.block_sizes()
    diagonals = np.array(
        [2.0 * np.repeat(draw_disorder(model, 8, i), sizes) for i in range(n_lanes)]
    )
    prefixes = [model.projections.prefix_sites(k) for k in range(1, model.n_blocks + 1)]
    h0 = model.free.matrix(len(model.site_space))
    return h0, diagonals, model.projections.sites_of_block(0), prefixes


def forbid(monkeypatch, name):
    import doslab.spectral as spectral

    def fail(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(spectral, name, fail)


@pytest.mark.parametrize(
    "rank, phase, hopping",
    [(1, 0.0, True), (5, 0.0, True), (1, 0.7, True), (1, 0.0, False)],
)
def test_band_sweep_matches_the_dense_oracle_on_every_prefix(
    monkeypatch, rank, phase, hopping
):
    h0, diagonals, block0, prefixes = chain_lanes(21, rank, phase, hopping)
    assert h0.shape == (65, 65) and np.iscomplexobj(h0) == (phase != 0.0)
    forbid(monkeypatch, "_dense_prefix_traces")
    z = 0.3 + 0.1j
    got = nested_block_traces(h0, diagonals, z, block0, prefixes)
    assert got.shape == (21, len(prefixes))
    for lane, d in zip(got, diagonals):
        h = h0 + np.diag(d)
        for size, tr in zip(prefixes, lane):
            want = np.trace(np.linalg.inv(h[:size, :size] - z * np.eye(size))[
                np.ix_(block0, block0)
            ])
            assert abs(tr - want) <= 1e-12 * abs(want)
    # per-lane values do not depend on how the lanes are batched
    for batch in (7, 1):
        parts = [
            nested_block_traces(h0, diagonals[i : i + batch], z, block0, prefixes)
            for i in range(0, 21, batch)
        ]
        assert np.array_equal(np.concatenate(parts), got)


def test_band_route_is_chosen_from_the_bandwidth(monkeypatch):
    # a 2-d box of 25 sites has bandwidth 15: (15 + 1)^2 > 25, so dense
    model = box_model(2, 2, 1, 0.0)
    h0 = model.free.matrix(len(model.site_space))
    diagonals = np.array([2.0 * draw_disorder(model, 3, i) for i in range(3)])
    forbid(monkeypatch, "_band_prefix_traces")
    got = nested_block_traces(h0, diagonals, 0.2 + 0.3j, [0], [9, 25])
    assert got.shape == (3, 2) and np.all(np.isfinite(got))


def test_band_sweep_carries_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    h0, diagonals, block0, prefixes = chain_lanes(4, half_width=5)
    forbid(monkeypatch, "_dense_prefix_traces")
    ok = nested_block_traces(h0, diagonals, 0.5j, block0, prefixes)
    assert np.all(np.isfinite(ok))
    bad = diagonals.copy()
    bad[2, 6] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
        nested_block_traces(h0, bad, 0.5j, block0, prefixes)
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        nested_block_traces(h0, diagonals, 0.5j, block0, prefixes)


# -- probe-block coupling poles ----------------------------------------------------

ZS = np.array([[-2.5 + 0.05j, 0.3 + 0.1j], [1.0 + 0.5j, 3.2 + 0.2j]])


def dense_block_resolvents(h0, diagonals, zs, block):
    """(lanes, z, r, r) P_B (h - z)^{-1} P_B by dense inversion."""
    out = []
    for d in diagonals:
        h = h0 + np.diag(d)
        out.append([
            np.linalg.inv(h - z * np.eye(len(h)))[np.ix_(block, block)]
            for z in zs.ravel()
        ])
    return np.array(out)


def assert_poles_match_dense(h0, diagonals, zs, block, mu):
    """sum_k 1/(d - mu_k) is the dense block trace, and the mu_k are the
    eigenvalues of W = d - (P_B G P_B)^{-1}, every one with Im mu >= Im z."""
    g = dense_block_resolvents(h0, diagonals, zs, block)
    d = diagonals[:, block[0]]
    assert mu.shape == (len(diagonals), zs.size, len(block))
    want = np.trace(g, axis1=2, axis2=3)
    got = np.sum(1.0 / (d[:, None, None] - mu), axis=-1)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    w = d[:, None, None, None] * np.eye(len(block)) - np.linalg.inv(g)
    want_mu = np.sort_complex(np.linalg.eigvals(w).reshape(-1, len(block)))
    got_mu = np.sort_complex(mu.reshape(-1, len(block)))
    assert np.max(np.abs(got_mu - want_mu)) <= 1e-10 * np.max(np.abs(want_mu))
    assert np.all(mu.imag >= zs.ravel().imag[None, :, None] * (1 - 1e-12))


@pytest.mark.parametrize(
    "rank, phase, size",
    [
        (1, 0.0, 65), (5, 0.7, 65), (1, 0.0, 20), (13, 0.0, 65), (1, 0.0, 1),
        (1, 0.0, 2), (3, 0.4, 21),
    ],
    ids=[
        "rank1", "rank5-phase", "prefix20", "rank13", "one-site", "two-sites",
        "rank3-phase",
    ],
)
def test_schur_recursion_matches_the_dense_oracle(monkeypatch, rank, phase, size):
    import doslab.spectral as spectral

    h0, diagonals, block0, _ = chain_lanes(9, rank, phase)
    h0, diagonals = h0[:size, :size], diagonals[:, :size]
    block = [s for s in block0 if s < size]
    forbid(monkeypatch, "_eigen_poles")
    got = block_coupling_poles(h0, diagonals, ZS, block)
    assert_poles_match_dense(h0, diagonals, ZS, block, got)
    # per-lane values do not depend on how lanes or z values are batched
    for batch in (4, 1):
        parts = [
            block_coupling_poles(h0, diagonals[i : i + batch], ZS, block)
            for i in range(0, 9, batch)
        ]
        assert np.array_equal(np.concatenate(parts), got)
    for j, z in enumerate(ZS.ravel()):
        alone = block_coupling_poles(h0, diagonals, [z], block)
        assert np.array_equal(alone[:, 0], got[:, j])
    # nor on how many lanes x z share one pass of the recursion
    monkeypatch.setattr(spectral, "_RECURSION_CELLS", 7)
    assert np.array_equal(block_coupling_poles(h0, diagonals, ZS, block), got)


def test_rank_one_pole_without_hopping_is_z():
    # a lone site on the Schur route: W = z - h0_pp exactly, no eigvals call
    h0, diagonals, _, _ = chain_lanes(3, half_width=0)
    mu = block_coupling_poles(h0, diagonals, ZS, [0])
    assert np.array_equal(mu[..., 0], np.broadcast_to(ZS.ravel(), (3, ZS.size)))


@pytest.mark.parametrize("case", ["box2d", "zero-hopping", "ring", "box2d-rank5-phase"])
def test_eigh_route_is_taken_off_a_path(monkeypatch, case):
    block = [0]
    if case == "ring":
        # a closed chain: every site has two neighbours, but n couplings
        h0 = np.diag(np.ones(7), 1)
        h0[0, 7] = 1.0
        h0 = h0 + h0.T
        diagonals = np.random.default_rng(2).random((3, 8))
    else:
        if case == "box2d":
            model = box_model(2, 2)
        elif case == "zero-hopping":
            model = box_model(1, 4, hopping=False)
        else:
            model = box_model(2, 2, rank=5, phase=0.7)
        h0 = model.free.matrix(len(model.site_space))
        sizes = model.projections.block_sizes()
        diagonals = np.array(
            [2.0 * np.repeat(draw_disorder(model, 3, i), sizes) for i in range(3)]
        )
        block = list(model.projections.sites_of_block(0))
    forbid(monkeypatch, "_schur_pivots")
    got = block_coupling_poles(h0, diagonals, ZS, block)
    assert_poles_match_dense(h0, diagonals, ZS, block, got)
    for j, z in enumerate(ZS.ravel()):
        alone = block_coupling_poles(h0, diagonals, [z], block)
        assert np.array_equal(alone[:, 0], got[:, j])


def test_block_coupling_poles_validation():
    h0, diagonals, _, _ = chain_lanes(2, half_width=3)
    with pytest.raises(ValueError, match="lanes"):
        block_coupling_poles(h0, diagonals[0], ZS, [0])
    with pytest.raises(ValueError, match="block sites"):
        block_coupling_poles(h0, diagonals, ZS, [7])
    with pytest.raises(ValueError, match="block sites"):
        block_coupling_poles(h0, diagonals, ZS, [])
    with pytest.raises(ValueError, match="imaginary"):
        block_coupling_poles(h0, diagonals, [0.5 + 0.2j, 0.3], [0])
    # the block's coupling is one value per lane
    with pytest.raises(ValueError, match="one value"):
        block_coupling_poles(h0, diagonals, ZS, [0, 1])


def test_schur_recursion_carries_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    h0, diagonals, block0, _ = chain_lanes(4, half_width=5)
    forbid(monkeypatch, "_eigen_poles")
    assert np.all(np.isfinite(block_coupling_poles(h0, diagonals, ZS, block0)))
    # a NaN residual fails the check instead of slipping past a ">" test
    bad = h0.copy()
    bad[5, 7] = bad[7, 5] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="residual"):
        block_coupling_poles(bad, diagonals, ZS, block0)
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    with pytest.raises(RuntimeError, match="residual"):
        block_coupling_poles(h0, diagonals, ZS, block0)


@pytest.mark.parametrize("route", ["_schur_poles", "_eigen_poles"])
def test_block_trace_guard_fails_a_planted_nan(monkeypatch, route):
    import doslab.spectral as spectral

    if route == "_schur_poles":
        h0, diagonals, block, _ = chain_lanes(3, rank=3, phase=0.4, half_width=10)
    else:
        model = box_model(2, 2, rank=5, phase=0.7)
        h0 = model.free.matrix(len(model.site_space))
        diagonals = np.repeat(np.array([[0.3], [1.1], [1.7]]), 25, axis=1)
        block = list(model.projections.sites_of_block(0))
    kernel = getattr(spectral, route)

    def planted(*args):
        mu, tr = kernel(*args)
        mu[1, 2, 0] = np.nan
        return mu, tr

    monkeypatch.setattr(spectral, route, planted)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="block trace"):
        block_coupling_poles(h0, diagonals, ZS, block)
