"""Resolvent and spectral-projection checks against slow oracles."""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from doslab import spectral
from doslab.disorder import SingleSiteDensity
from doslab.lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    build_box_enumeration,
)
from doslab.montecarlo import McConfig, draw_disorder, ids_curve
from doslab.spectral import (
    CscPattern,
    block_coupling_poles,
    eigen_weights,
    nested_block_traces,
)
from oracles import assemble_hamiltonian


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


# -- SuperLU without scipy.sparse: the same order and bytes as scipy's own calls --
# CscPattern calls the private extension behind scipy's spilu and splu; these
# references are what catches a scipy whose extension has changed


SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


@pytest.fixture(
    params=[(2, 3, 1, 0.7), (3, 5, 1, 0.0)], ids=["box2d-complex-h0", "box3d-11"]
)
def box_entries(request):
    model = box_model(*request.param)
    n = len(model.site_space)
    rows, cols, vals = model.free.entries(n)
    ar = np.arange(n)
    # the entries CscPattern stores: h0's and a zero on every diagonal
    full = (
        np.concatenate([rows, ar]), np.concatenate([cols, ar]),
        np.concatenate([vals, np.zeros(n)]),
    )
    return CscPattern(rows, cols, vals, n), full, n


def test_pattern_order_is_spilus_minimum_degree_order(box_entries):
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import spilu

    pattern, (rows, cols, vals), n = box_entries
    probe = csc_array((vals, (rows, cols)), shape=(n, n))
    probe.sum_duplicates()
    diag = np.flatnonzero(probe.indices == np.repeat(np.arange(n), np.diff(probe.indptr)))
    probe.data[:] = 1.0
    probe.data[diag] = np.diff(probe.indptr) + 1.0
    lu = spilu(
        probe, drop_tol=0.9, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0, options={"SymmetricMode": True},
    )
    assert np.array_equal(pattern._position, lu.perm_c)


def test_resolvent_columns_are_splus_solve_bit_for_bit(box_entries):
    from scipy.sparse import csc_array
    from scipy.sparse.linalg import splu

    pattern, _, n = box_entries
    data = pattern.data.copy()
    data[pattern.diag] += 2.0 * np.random.default_rng(5).uniform(size=n)
    z, columns = 0.2 + 0.05j, [0, n // 2, n - 1]
    got = pattern.resolvent_columns(data, z, columns)
    # the same permuted matrix through scipy's public route
    a = csc_array((data.astype(np.complex128), pattern.indices, pattern.indptr), shape=(n, n))
    a.data[pattern.diag] -= z
    rhs = np.zeros((n, len(columns)), dtype=np.complex128)
    rhs[pattern._position[columns], np.arange(len(columns))] = 1.0
    lu = splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    want = lu.solve(rhs)[pattern._position]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("complex_vals", [False, True], ids=["real", "complex"])
def test_numpy_csc_builder_is_scipys_canonical_csc(complex_vals):
    from scipy.sparse import csc_array

    rng = np.random.default_rng(3)
    n = 7
    # distinct off-diagonal entries in random order, the first of them twice,
    # (4, 4) once, then the whole diagonal: each sum is of a pair, which does
    # not depend on the order scipy adds it in
    cells = rng.permutation(n * n)[:30]
    cells = cells[cells % (n + 1) != 0]
    cells = np.concatenate([cells, cells[:1], [4 * (n + 1)], np.arange(n) * (n + 1)])
    rows, cols = cells % n, cells // n
    vals = rng.standard_normal(len(rows))
    if complex_vals:
        vals = vals + 1j * rng.standard_normal(len(rows))
    indptr, indices, data, diag = spectral._csc(rows, cols, vals, n)
    want = csc_array((vals, (rows, cols)), shape=(n, n))
    want.sum_duplicates()
    assert indptr.dtype == indices.dtype == np.intc
    assert np.array_equal(indptr, want.indptr)
    assert np.array_equal(indices, want.indices)
    assert data.dtype == want.data.dtype
    assert data.tobytes() == want.data.tobytes()
    assert np.array_equal(indices[diag], np.arange(n))
    assert np.array_equal(np.searchsorted(indptr, diag, side="right") - 1, np.arange(n))


@pytest.mark.parametrize("first", ["scipy", "doslab"])
def test_superlu_is_the_module_scipy_sparse_linalg_uses(first):
    # in either import order there is one extension module, and splu runs on it
    steps = {
        "scipy": "import scipy.sparse.linalg as sla\n",
        "doslab": "from doslab.spectral import _superlu\nmod = _superlu()\n",
    }
    script = (
        "import sys\nimport numpy as np\n"
        + steps[first] + steps["doslab" if first == "scipy" else "scipy"]
        + f"assert mod is sys.modules[{SUPERLU!r}] and _superlu() is mod\n"
        + "from scipy.sparse.linalg._dsolve import _superlu as ext\n"
        + "assert ext is mod\n"
        + "import scipy.sparse as sp\n"
        + "x = sla.splu(sp.csc_array(np.diag([2.0, 4.0]))).solve(np.ones(2))\n"
        + "assert x.tolist() == [0.5, 0.25]\n"
    )
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr


def test_missing_superlu_names_scipys_version_and_the_directory(monkeypatch, tmp_path):
    import scipy

    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, SUPERLU, raising=False)
    with pytest.raises(ImportError) as info:
        spectral._superlu()
    message = str(info.value)
    assert f"scipy {scipy.__version__}" in message
    assert str(tmp_path / "sparse" / "linalg" / "_dsolve") in message
    assert SUPERLU not in sys.modules


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
    [(1, 32, 1, 0.0), (2, 4, 3, 0.0), (2, 7, 5, 0.7), (1, 3, 1, 0.4), (3, 2, 1, 0.3)],
)
def test_nested_block_traces_match_eigen_weights_on_every_prefix(
    monkeypatch, dimension, half_width, rank, phase
):
    # a chain takes the outward sweep whatever its length
    if dimension == 1:
        forbid(monkeypatch, "_natural_lu_prefix_traces")
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
    if n < 9:
        # a short chain's largest prefix may have any length
        for m in range(1, len(sizes) + 1):
            alone = nested_block_traces(h, np.zeros((1, n)), z, block0, sizes[:m])
            assert_allclose(alone[0], got[:m], rtol=1e-12)


def test_nested_block_traces_validation():
    h = random_hermitian(6, seed=4)
    d = np.zeros((2, 6))
    z = 0.5j
    with pytest.raises(ValueError, match="smallest prefix"):
        nested_block_traces(h, d, z, [0, 2], [2, 4, 6])
    with pytest.raises(ValueError, match="smallest prefix"):
        nested_block_traces(h, d, z, [], [2, 4, 6])
    # a repeated site would count twice on one route and once on the other
    with pytest.raises(ValueError, match="distinct"):
        nested_block_traces(h, d, z, [0, 0], [2, 4, 6])
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


def test_natural_lu_refuses_a_reordered_factor(monkeypatch):
    # prefix traces need the factors in shell order: a factor that comes
    # back with a row or column permutation is refused, not read as if natural
    import doslab.spectral as spectral

    h0, diagonals, block0, prefixes = box_lanes(2, box_model(2, 2))
    real = spectral._gstrf
    for perm in ("perm_c", "perm_r"):

        def reordered(*args, **kwargs):
            lu = real(*args, **kwargs)
            perms = {"perm_c": lu.perm_c, "perm_r": lu.perm_r}
            perms[perm] = perms[perm][::-1]
            return SimpleNamespace(**perms)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_gstrf", reordered)
            with pytest.raises(RuntimeError, match="reordered"):
                nested_block_traces(h0, diagonals, 0.5j, block0, prefixes)


def box_lanes(n_lanes, model):
    """h0 of a box model, a (lanes, n) stack of coupled diagonals, the sites
    of block 0 and every block prefix size."""
    sizes = model.projections.block_sizes()
    diagonals = np.array(
        [2.0 * np.repeat(draw_disorder(model, 8, i), sizes) for i in range(n_lanes)]
    )
    prefixes = [model.projections.prefix_sites(k) for k in range(1, model.n_blocks + 1)]
    h0 = model.free.matrix(len(model.site_space))
    return h0, diagonals, model.projections.sites_of_block(0), prefixes


def chain_lanes(n_lanes, rank=1, phase=0.0, hopping=True, half_width=32):
    """box_lanes of a chain in box order."""
    return box_lanes(n_lanes, box_model(1, half_width, rank, phase, hopping))


def forbid(monkeypatch, name):
    import doslab.spectral as spectral

    def fail(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(spectral, name, fail)


def assert_matches_dense_inverse(h0, diagonals, block, prefixes, z):
    """Every lane and prefix within 1e-12 of a dense inverse; returns the traces."""
    got = nested_block_traces(h0, diagonals, z, block, prefixes)
    assert got.shape == (len(diagonals), len(prefixes))
    for lane, d in zip(got, diagonals):
        h = h0 + np.diag(d)
        for size, tr in zip(prefixes, lane):
            inv = np.linalg.inv(h[:size, :size] - z * np.eye(size))
            want = np.trace(inv[np.ix_(block, block)])
            assert abs(tr - want) <= 1e-12 * abs(want)
    return got


def assert_outward_sweep_is_exact(h0, diagonals, block, prefixes, z):
    """The dense oracle, and a lane's bytes depend neither on the batching of
    the lanes nor on the prefixes asked for."""
    got = assert_matches_dense_inverse(h0, diagonals, block, prefixes, z)
    for batch in (7, 1):
        parts = [
            nested_block_traces(h0, diagonals[i : i + batch], z, block, prefixes)
            for i in range(0, len(diagonals), batch)
        ]
        assert np.array_equal(np.concatenate(parts), got)
    for k, size in enumerate(prefixes):
        alone = nested_block_traces(h0, diagonals, z, block, [size])
        assert np.array_equal(alone[:, 0], got[:, k])
    backwards = nested_block_traces(h0, diagonals, z, block, prefixes[::-1])
    assert np.array_equal(backwards, got[:, ::-1])


@pytest.mark.parametrize(
    "rank, phase, hopping",
    [(1, 0.0, True), (5, 0.0, True), (1, 0.7, True), (1, 0.0, False), (3, 0.4, True)],
)
def test_band_sweep_matches_the_dense_oracle_on_every_prefix(
    monkeypatch, rank, phase, hopping
):
    # a chain's h0 is a band matrix: the outward sweep, never the box's SuperLU
    h0, diagonals, block0, prefixes = chain_lanes(21, rank, phase, hopping)
    assert h0.shape == (65, 65) and np.iscomplexobj(h0) == (phase != 0.0)
    forbid(monkeypatch, "_natural_lu_prefix_traces")
    assert_outward_sweep_is_exact(h0, diagonals, block0, prefixes, 0.3 + 0.1j)


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("half_width", [0, 1, 2, 3])
def test_outward_sweep_matches_the_dense_oracle_on_short_chains(
    monkeypatch, half_width, rank
):
    # down to one site, where the probe block is the whole volume
    h0, diagonals, block0, prefixes = chain_lanes(9, rank, 0.7, True, half_width)
    forbid(monkeypatch, "_natural_lu_prefix_traces")
    assert_outward_sweep_is_exact(h0, diagonals, block0, prefixes, -0.4 + 0.2j)


def off_chain_matrices():
    """name -> h0 of a volume that is not a chain."""
    n = 12
    # bandwidth 2 without the end property: sites 0, 1, 2 form a path and
    # site q >= 3 couples to q - 2, so site 3 attaches to the middle site 1
    comb = np.zeros((n, n))
    comb[[1, 2], [0, 1]] = 1.0
    comb[np.arange(3, n), np.arange(1, n - 2)] = 1.0
    comb += comb.T
    # bandwidth 2 with two earlier neighbours per site
    rng = np.random.default_rng(6)
    penta = sum(np.diag(rng.standard_normal(n - k), k) for k in (1, 2))
    penta = penta + penta.T
    # a closed chain: every site has two neighbours, and the last site
    # couples to both ends
    ring = np.diag(np.ones(7), 1)
    ring[0, 7] = 1.0
    ring = ring + ring.T
    # a 2-d box of 25 sites
    box = box_model(2, 2, 1, 0.0)
    box_h0 = box.free.matrix(len(box.site_space))
    return {"comb": comb, "penta": penta, "ring": ring, "box2d": box_h0}


def test_chain_route_is_chosen_from_the_end_property():
    import doslab.spectral as spectral

    rng = np.random.default_rng(7)
    for h0 in off_chain_matrices().values():
        diagonals = rng.uniform(-2.0, 2.0, (3, len(h0)))
        prefixes = list(range(4, len(h0) + 1, 4))
        # the natural-order SuperLU route takes them, and still matches
        assert spectral.chain_plan(h0) is None
        assert_matches_dense_inverse(h0, diagonals, [0], prefixes, 0.2 + 0.3j)


def test_band_sweep_carries_the_residual_guard(monkeypatch):
    import doslab.spectral as spectral

    for rank in (1, 3):
        h0, diagonals, block0, prefixes = chain_lanes(4, rank, half_width=5)
        forbid(monkeypatch, "_natural_lu_prefix_traces")
        ok = nested_block_traces(h0, diagonals, 0.5j, block0, prefixes)
        assert np.all(np.isfinite(ok))
        # a NaN pivot past the block, or at a block site, fails the check
        # instead of slipping past a ">" test
        for site in (6, 0):
            bad = diagonals.copy()
            bad[2, site] = np.nan
            with np.errstate(invalid="ignore"), pytest.raises(
                RuntimeError, match="residual"
            ):
                nested_block_traces(h0, bad, 0.5j, block0, prefixes)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
            with pytest.raises(RuntimeError, match="residual"):
                nested_block_traces(h0, diagonals, 0.5j, block0, prefixes)
    # a volume no larger than the probe block still checks its pivots
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
        with pytest.raises(RuntimeError, match="residual"):
            nested_block_traces(h0, diagonals, 0.5j, block0, [3])


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
    "dimension, rank, phase, hopping, size",
    [
        (1, 1, 0.0, True, 65), (1, 5, 0.7, True, 65), (1, 1, 0.0, True, 20),
        (1, 13, 0.0, True, 65), (1, 1, 0.0, True, 1), (1, 1, 0.0, True, 2),
        (1, 3, 0.4, True, 21), (1, 1, 0.0, False, 65), (1, 3, 0.0, False, 65),
        (2, 5, 0.0, False, 25),
    ],
    ids=[
        "rank1", "rank5-phase", "prefix20", "rank13", "one-site", "two-sites",
        "rank3-phase", "zero-hopping", "zero-hopping-rank3", "box2d-zero-hopping",
    ],
)
def test_schur_recursion_matches_the_dense_oracle(
    monkeypatch, dimension, rank, phase, hopping, size
):
    import doslab.spectral as spectral

    # a volume without hopping is a chain in any dimension
    half_width = 32 if dimension == 1 else 2
    model = box_model(dimension, half_width, rank, phase, hopping)
    h0, diagonals, block0, _ = box_lanes(9, model)
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
    # a 9-site chain without hopping: nothing couples to the block, so
    # W = z on it and every pole is z, at rank 1 and rank 3
    for rank in (1, 3):
        h0, diagonals, block0, _ = chain_lanes(3, rank, hopping=False, half_width=4)
        mu = block_coupling_poles(h0, diagonals, ZS, block0)
        assert np.array_equal(mu, np.broadcast_to(ZS.ravel()[:, None], mu.shape))


@pytest.mark.parametrize("case", ["box2d", "ring", "box2d-rank5-phase"])
def test_eigh_route_is_taken_off_a_path(monkeypatch, case):
    block = [0]
    if case == "ring":
        h0 = off_chain_matrices()["ring"]
        diagonals = np.random.default_rng(2).random((3, 8))
    else:
        if case == "box2d":
            model = box_model(2, 2)
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


def matrix_volume(h0, rank):
    """The volume of all of a Hermitian h0, in blocks of rank sites (the last
    takes what is left).  A volume reads only its operator and blocks, so
    any space of len(h0) sites serves."""
    from doslab.montecarlo import _Volume

    n = len(h0)
    i, j = np.nonzero(np.triu(h0 != 0, 1))
    free = FreeOperatorSpec(n, i, j, h0[i, j])
    return _Volume(ModelSpec(range(n), ProjectionFamily(n, rank), free, 2.0), n)


def route_volumes():
    """name -> (volume, whether it is a chain)."""
    from doslab.montecarlo import _Volume

    out = {}
    for rank in (1, 3):
        h0 = box_model(1, 10, rank, 0.4).free.matrix()
        out[f"chain-rank{rank}-phase"] = (matrix_volume(h0, rank), True)
        for size in range(1, 5):
            sub = h0[:size, :size]
            out[f"prefix{size}-rank{rank}-phase"] = (matrix_volume(sub, rank), True)
    for dimension, half_width in ((1, 4), (2, 2)):
        model = box_model(dimension, half_width, hopping=False)
        vol = _Volume(model, len(model.site_space))
        out[f"zero-hopping-{dimension}d"] = (vol, True)
    for name, h0 in off_chain_matrices().items():
        out[name] = (matrix_volume(h0, 1), False)
    return out


@pytest.mark.parametrize("case", list(route_volumes()))
def test_one_route_per_volume(monkeypatch, case):
    # the estimators size their spans from the volume's route, so the
    # volume, the coupling poles and the nested traces must take the same
    vol, chain = route_volumes()[case]
    assert vol.chain == chain
    if chain:
        forbid(monkeypatch, "_eigen_poles")
        forbid(monkeypatch, "_natural_lu_prefix_traces")
    else:
        forbid(monkeypatch, "_schur_poles")
        forbid(monkeypatch, "_outward_prefix_traces")
    oms = np.random.default_rng(5).random((3, vol.n_blocks))
    diagonals = vol.diagonals(oms)
    block_coupling_poles(vol.h0, diagonals, ZS, vol.block0)
    nested_block_traces(vol.h0, diagonals, 0.2 + 0.3j, vol.block0, [vol.n_sites])


def test_block_coupling_poles_validation():
    h0, diagonals, _, _ = chain_lanes(2, half_width=3)
    with pytest.raises(ValueError, match="lanes"):
        block_coupling_poles(h0, diagonals[0], ZS, [0])
    with pytest.raises(ValueError, match="block sites"):
        block_coupling_poles(h0, diagonals, ZS, [7])
    with pytest.raises(ValueError, match="block sites"):
        block_coupling_poles(h0, diagonals, ZS, [])
    # a repeated site is refused, as nested_block_traces refuses it, even when
    # the lane's diagonal takes one value on the block
    one_value = diagonals.copy()
    one_value[:, 1] = one_value[:, 0]
    with pytest.raises(ValueError, match="distinct"):
        block_coupling_poles(h0, one_value, ZS, [0, 1, 1])
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
