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
from doslab.quadrature import panel_rule
from doslab.verify import (
    _CUTOFF_SUPPORT,
    _DENSITY,
    _EIG_COND_LIMIT,
    _LHS_MIN_NODES,
    _LHS_TARGET,
    _MIN_IMAG,
    _NODE_CHUNK,
    _REPORTED_EXTRA_NODES,
    _RHS_NODES,
    _T_BLOCK,
    CheckReport,
    Corpus,
    _batched_expi,
    _cutoff,
    _difference_stacks,
    _finite_smooth_curves,
    _fourier_factor,
    _lhs_nodes,
    _spectral_norms,
    average_bound_terms,
    bound_lhs,
    averaging_corpus,
    run_default_verification,
    smoothstep,
    verify_boundary_derivatives,
    verify_finite_smooth,
    verify_resolvent_average_bound,
    verify_resolvent_semigroup_identity,
    verify_semigroup_hoelder,
    verify_spectral_averaging,
)
from forks import assert_no_child_left
from oracles import averaged_imag_quadrature, whole_grid_finite_smooth_curves


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
    lo, hi = _CUTOFF_SUPPORT
    assert lo == -3.5 and hi == -0.5
    assert _cutoff(lo) == 0.0
    assert _cutoff(hi) == 0.0
    assert _cutoff(lo - 0.7) == 0.0
    assert _cutoff(hi + 0.7) == 0.0
    # one on the core, i.e. transition width inside either edge
    core = np.linspace(lo + 0.1, hi - 0.1, 31)
    assert_allclose(_cutoff(core), 1.0, atol=0)


def test_bound_density_normalized_on_its_support():
    x = np.linspace(0.0, 1.0, 20001)
    assert abs(np.trapezoid(_DENSITY.eval(x), x) - 1.0) < 1e-6
    assert _DENSITY.eval(-0.3) == 0.0
    assert _DENSITY.eval(1.3) == 0.0


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
    corpus = Corpus(12, dim_min=2, dim_max=7, seed=1)
    for i in range(12):
        m = corpus.matrix(i)
        assert 2 <= m.shape[0] <= 7
        im_part = (m - m.conj().T) / 2j
        assert np.linalg.eigvalsh(im_part)[0] >= _MIN_IMAG - 1e-12


def test_corpus_pair_perturbation_scale():
    # the bound's Hoelder slope fit draws B = A + delta C, ||C|| = 1
    corpus = Corpus(4, dim_min=5, dim_max=5, seed=2, delta=1e-3)
    a, b, _, _, _ = corpus.bound_instance(0)
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


def test_finite_smooth_report_does_not_depend_on_blas_threads():
    # the quadrature sums run in a fixed order, so a report's bytes are the
    # same at any BLAS thread count
    import os
    import subprocess
    import sys

    import doslab

    script = (
        "import json\n"
        "import numpy as np\n"
        "from doslab.verify import verify_finite_smooth\n"
        "g = np.random.default_rng(0).standard_normal((3, 3))\n"
        "report = verify_finite_smooth((g + g.T) / 2, coupling=1.5, eps=0.3, ell=1)\n"
        "print(json.dumps(report.to_dict()))\n"
    )
    src = os.path.dirname(os.path.dirname(doslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": path,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        reports.append(done.stdout)
    assert json.loads(reports[0])["name"] == "finite_smooth_derivative_forms"
    assert reports[0] == reports[1]


def test_finite_smooth_grouped_projections():
    free = random_symmetric(4, seed=6)
    report = verify_finite_smooth(
        free, coupling=1.4, eps=0.35, ell=1, blocks=[[0, 1], [2, 3]],
        n_nodes=20,
    )
    assert report.passed
    assert report.statistics["max_rel_discrepancy"] <= 1e-4


# the streamed grid against the whole-grid pass: (sites, blocks, nodes per
# direction, law, ell). 11^3 = 1331 nodes end in a part-filled node block;
# two 4-site grids group sites into blocks, and 17^4 = 83521 nodes cross a
# node chunk
STREAMED_GRIDS = [
    (n, [[i] for i in range(n)], 7 if n == 4 else 11, 4, ell)
    for n in (1, 2, 3, 4)
    for ell in (0, 1, 2)
] + [
    (4, [[0, 1], [2, 3]], 20, 2, 1),
    (4, [[0, 2], [1], [3]], 13, 2, 1),
    (4, [[0], [1], [2], [3]], 17, 2, 1),
]


@pytest.mark.parametrize(("n_sites", "blocks", "n_nodes", "p", "ell"), STREAMED_GRIDS)
def test_streamed_curves_equal_the_whole_grid_pass(n_sites, blocks, n_nodes, p, ell):
    args = (
        random_symmetric(n_sites, seed=n_sites + 5), 1.3, SingleSiteDensity(p),
        0.3, ell, np.linspace(-2.0, 3.0, 9), blocks, n_nodes, 0.005,
    )
    fd, form = _finite_smooth_curves(*args)
    want_fd, want_form = whole_grid_finite_smooth_curves(*args)
    assert np.array_equal(fd, want_fd) and np.array_equal(form, want_form)
    if n_nodes == 17:
        assert n_nodes ** len(blocks) > _NODE_CHUNK


def test_finite_smooth_memory_does_not_grow_with_the_grid():
    # five sites refined to 12 nodes per direction: 248832 nodes, four chunks.
    # A whole-grid pass peaks near 600 MB here; the streamed one holds a
    # chunk's traces and one node block.  The peak is the fresh process's
    # VmHWM: its ru_maxrss would start from the RSS of the process that
    # spawned it
    import os
    import subprocess
    import sys

    import doslab

    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    script = (
        "import numpy as np\n"
        "from doslab.verify import verify_finite_smooth\n"
        "g = np.random.default_rng(0).standard_normal((5, 5))\n"
        "verify_finite_smooth((g + g.T) / 2, coupling=1.5, eps=0.3, ell=1, n_nodes=8)\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM')))\n"
    )
    src = os.path.dirname(os.path.dirname(doslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert 12**5 > 3 * _NODE_CHUNK
    assert int(done.stdout) / 1024 < 250  # VmHWM is in kB


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
    lhs, rhs = average_bound_terms(a, a, f1, f2, z)
    assert lhs == 0.0
    assert rhs == 0.0


def inverse_bound_terms(a, b, f1, f2, z, s, lhs_nodes, rhs_nodes):
    """(LHS, RHS) from one inverse per node and z, the route before the
    shared eigendecomposition: lhs_nodes Gauss nodes in x1 and x2 on one
    panel, rhs_nodes per panel on two panels of the RHS window."""
    d = a.shape[0]
    w, v = np.linalg.eigh(f1 + f2)
    fh = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T

    def diffs(x1, x2):
        h = x1[:, None, None, None] * f1 + x2[None, :, None, None] * f2 - z * np.eye(d)
        return fh @ (np.linalg.inv(a + h) - np.linalg.inv(b + h)) @ fh

    (x1, w1), (x2, w2) = (panel_rule(0.0, 1.0, n, 1) for n in lhs_nodes)
    wd1, wd2 = w1 * _DENSITY.eval(x1), w2 * _DENSITY.eval(x2)
    lhs = np.linalg.norm(np.einsum("i,j,ijkl->kl", wd1, wd2, diffs(x1, x2)), 2)
    y, wy = panel_rule(*_CUTOFF_SUPPORT, rhs_nodes, 2)
    wc = wy * _cutoff(y)
    rhs_norms = np.linalg.svd(diffs(y, y), compute_uv=False)[..., 0]
    return lhs, float(wc @ rhs_norms**s @ wc)


def complex_bound_instance(d, seed):
    rng = np.random.default_rng(seed)

    def hermitian():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2.0

    def psd():
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return m @ m.conj().T / d

    return hermitian(), hermitian(), psd(), psd()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_eigen_route_matches_per_node_inverses(d):
    zs = [-1.0 + 0.2j, 0.5j, 1.0 + 0.2j]
    a, b, f1, f2, _ = Corpus(1, dim_min=d, dim_max=d, seed=40 + d).bound_instance(0)
    cases = [(a, b, f1, f2), complex_bound_instance(d, 50 + d)]
    for a, b, f1, f2 in cases:
        for check in (True, False):
            rhs_nodes = _RHS_NODES + (0 if check else _REPORTED_EXTRA_NODES)
            lhs, rhs = average_bound_terms(a, b, f1, f2, zs, check=check)
            for z, l, r in zip(zs, lhs, rhs):
                l_ref, r_ref = inverse_bound_terms(
                    a, b, f1, f2, z, 0.4, _lhs_nodes(f1, f2, z, check), rhs_nodes
                )
                assert_allclose(l, l_ref, rtol=1e-12)
                assert_allclose(r, r_ref, rtol=1e-12)


def test_lhs_rule_follows_the_analyticity_strip():
    f = np.diag([2.0, 0.5])
    zero = np.zeros((2, 2))
    n1, n2 = _lhs_nodes(f, zero, 0.2j, check=True)
    assert n1 > n2 == _LHS_MIN_NODES
    # a wider F narrows the strip, a smaller Im z too; the reported rule adds
    # the same nodes per direction, and Im z above the smallest of _BOUND_Z
    # takes that one's rule
    assert _lhs_nodes(4.0 * f, zero, 0.2j, check=True)[0] > n1
    assert _lhs_nodes(f, zero, 0.1j, check=True)[0] > n1
    extra = _REPORTED_EXTRA_NODES
    assert _lhs_nodes(f, zero, 0.2j) == (n1 + extra, n2 + extra)
    assert _lhs_nodes(f, zero, 3.0 + 1.0j, check=True) == (n1, n2)
    # rho^(-2 n) <= the target with n1 nodes, not with n1 - 1
    rate = 2.0 * np.arcsinh(2.0 * 0.2 / 2.0)
    assert np.exp(-rate * n1) <= _LHS_TARGET < np.exp(-rate * (n1 - 1))
    for z in (0.5, 0.5 - 0.1j):
        with pytest.raises(ValueError, match="upper half plane"):
            _lhs_nodes(f, zero, z)


@pytest.mark.parametrize("seed, index, z", [(2, 6, 1.0 + 0.2j), (4, 8, -1.0 + 0.2j)])
def test_lhs_on_a_narrow_strip_matches_a_panelled_reference(seed, index, z):
    # ||F_j|| / Im z is large on these instances, so a fixed 20-node rule
    # erred by up to 7e-2 there; the reference takes 8 panels of 20 nodes
    a, b, f1, f2, _ = Corpus(40, dim_min=2, dim_max=5, seed=seed).bound_instance(index)
    x, w = panel_rule(0.0, 1.0, 20, 8)
    wd = w * _DENSITY.eval(x)
    (diff,) = _difference_stacks(a, b, f1, f2, x, x, np.array([z]))
    ref = _spectral_norms(np.einsum("i,j,ijkl->kl", wd, wd, diff))
    assert_allclose(bound_lhs(a, b, f1, f2, z), ref, rtol=5e-3)


def test_one_z_does_not_depend_on_the_others_in_the_call():
    a, b, f1, f2, z = Corpus(1, dim_min=5, dim_max=5, seed=61).bound_instance(0)
    alone = average_bound_terms(a, b, f1, f2, [z])
    for others in ([z, 0.5j], [1.0 + 0.2j, z, -1.0 + 0.2j, 0.5 + 1.0j]):
        shared = average_bound_terms(a, b, f1, f2, others)
        k = others.index(z)
        assert_allclose(shared[0][k], alone[0][0], rtol=1e-13)
        assert_allclose(shared[1][k], alone[1][0], rtol=1e-13)
    # a lone z gives values of its own shape
    lhs, rhs = average_bound_terms(a, b, f1, f2, z)
    assert lhs.shape == rhs.shape == ()
    assert lhs == alone[0][0] and rhs == alone[1][0]


def test_slope_path_lhs_equals_the_full_call():
    for delta in (1e-1, 1e-4):
        corpus = Corpus(3, dim_min=2, dim_max=5, seed=62, delta=delta)
        for index in range(3):
            a, b, f1, f2, z = corpus.bound_instance(index)
            full, _ = average_bound_terms(a, b, f1, f2, z)
            assert bound_lhs(a, b, f1, f2, z) == full


def test_spectral_norms_match_svd():
    rng = np.random.default_rng(63)
    real = rng.standard_normal((7, 5, 5))
    cplx = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    for stack in (real, cplx, real[0], rng.standard_normal((4, 3, 6))):
        expected = np.linalg.svd(stack, compute_uv=False)[..., 0]
        assert_allclose(_spectral_norms(stack), expected, rtol=1e-13)
    zeros = _spectral_norms(np.zeros((3, 4, 4), dtype=complex))
    assert np.array_equal(zeros, np.zeros(3))


def test_bound_terms_reject_non_hermitian_input():
    a, b, f1, f2, z = Corpus(1, dim_min=3, dim_max=3, seed=64).bound_instance(0)
    skew = a.copy()
    skew[0, 1] += 1e-3
    for args in ((skew, b, f1, f2), (a, skew, f1, f2), (a, b, skew, f2), (a, b, f1, skew)):
        with pytest.raises(ValueError, match="Hermitian"):
            average_bound_terms(*args, z)
        with pytest.raises(ValueError, match="Hermitian"):
            bound_lhs(*args, z)


def test_resolvent_average_bound_small_corpus():
    report = verify_resolvent_average_bound(
        Corpus(8, dim_min=2, dim_max=5, seed=21)
    )
    assert report.passed
    assert report.statistics["n_unconverged"] == 0
    assert report.statistics["min_slope"] >= 0.35
    assert np.isfinite(report.statistics["max_ratio"])
    assert report.statistics["max_ratio"] > 0


@pytest.mark.parametrize("seed", [2, 4])
def test_resolvent_average_bound_converges_on_narrow_strips(seed):
    # the default verify corpora of these seeds hold the instances above
    report = verify_resolvent_average_bound(Corpus(40, dim_min=2, dim_max=5, seed=seed))
    assert report.passed
    assert report.statistics["n_unconverged"] == 0
    assert report.statistics["max_lhs_nodes"] > 20


def test_unconverged_witness_records_its_node_counts(monkeypatch):
    import doslab.verify as verify

    # at a zero tolerance every evaluation counts as unconverged
    monkeypatch.setattr(verify, "_BOUND_CONVERGENCE_TOL", 0.0)
    corpus = Corpus(1, dim_min=3, dim_max=3, seed=2)
    report = verify_resolvent_average_bound(corpus)
    assert not report.passed
    assert report.statistics["n_unconverged"] == 4
    _, _, f1, f2, _ = corpus.bound_instance(0)
    for entry, z in zip(report.witness["unconverged"], verify._BOUND_Z):
        assert entry["lhs_nodes"] == _lhs_nodes(f1, f2, z)
    assert report.statistics["max_lhs_nodes"] == max(_lhs_nodes(f1, f2, 0.2j))


def test_resolvent_average_bound_is_deterministic():
    r1 = verify_resolvent_average_bound(Corpus(4, seed=33))
    r2 = verify_resolvent_average_bound(Corpus(4, seed=33))
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())


@pytest.mark.parametrize("seed", [0, 2])
def test_default_reports_do_not_depend_on_the_process_count(monkeypatch, seed):
    # the bound and Hoelder checks size their fork map from the affinity
    # set: one CPU runs inline, two fork a child; the reports and their JSON
    # bytes agree
    import os

    runs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        reports = [r.to_dict() for r in run_default_verification(seed)]
        assert_no_child_left()
        runs.append((reports, json.dumps(reports, indent=2, sort_keys=True)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("cpus", [None, {0}, {0, 1}, {0, 1, 2}])
def test_ordered_map_returns_results_in_call_order(monkeypatch, cpus):
    # None stands for a platform without sched_getaffinity: calls run inline;
    # neither 2 nor 3 processes divide the 11 calls, so the round-robin
    # shares are uneven
    import os

    import doslab.verify as verify

    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    calls = [(divmod, 7 * k, 5) for k in range(11)]
    assert verify._ordered_map(calls) == [divmod(7 * k, 5) for k in range(11)]
    assert_no_child_left()


def test_worker_error_reaches_the_caller(monkeypatch):
    # a non-Hermitian A fails in _difference_stacks, in the forked child
    # only: the calls this process runs itself all pass
    import os

    original, parent = Corpus.bound_instance, os.getpid()

    def skewed(self, index):
        a, b, f1, f2, z = original(self, index)
        if os.getpid() != parent:
            a = a.copy()
            a[0, 1] += 1e-3
        return a, b, f1, f2, z

    monkeypatch.setattr(Corpus, "bound_instance", skewed)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="A must be Hermitian for the eigen route"):
        verify_resolvent_average_bound(Corpus(3, dim_min=3, dim_max=3, seed=5))
    assert_no_child_left()


# -- semigroup Hoelder bound ------------------------------------------------------


def test_semigroup_hoelder_corpus_has_no_violations():
    report = verify_semigroup_hoelder(
        Corpus(200, dim_min=2, dim_max=8, seed=17)
    )
    assert report.passed
    assert report.statistics["n_violations"] == 0
    assert report.statistics["worst_margin"] <= report.slack


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
    corpus = Corpus(8, dim_min=2, dim_max=6, seed=18)
    matrices = [corpus.matrix(i) for i in range(corpus.n_instances)]
    report = verify_resolvent_semigroup_identity(matrices, t_max=1e3)
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


def test_blocked_fourier_factor_equals_the_whole_product():
    # Im A = 0.5 truncates at t = 92: 184 panels of 8 time nodes, six blocks
    lam, w = panel_rule(1.0, 2.0, 16, 8)
    wg = w * _DENSITY.eval(lam - 1.0)
    ts, _ = panel_rule(0.0, 46.0 / _MIN_IMAG, 8, 184)
    assert len(ts) > 5 * _T_BLOCK
    whole = np.exp(1j * np.multiply.outer(ts, lam)) @ wg
    assert np.array_equal(_fourier_factor(ts, lam, wg), whole)


def test_identity_rejects_non_dissipative():
    with pytest.raises(ValueError, match="dissipative"):
        verify_resolvent_semigroup_identity([random_symmetric(3, seed=20)])


def test_identity_validation():
    with pytest.raises(ValueError, match="t_max"):
        verify_resolvent_semigroup_identity([1j * np.eye(2)], t_max=0.0)


# -- spectral averaging -------------------------------------------------------------


def test_spectral_averaging_scalar_recovers_density_sup():
    report = verify_spectral_averaging(np.zeros((1, 1)), np.ones(1))
    assert report.passed
    cap = np.pi * SingleSiteDensity(3).sup_derivative(0)
    finest = report.statistics["sup_values"][-1]
    assert abs(finest - cap) / cap < 0.01
    assert finest <= cap + 1e-10


def test_spectral_averaging_exact_route_matches_quadrature():
    a, phi = averaging_corpus(1, dim=6, seed=7)[0]
    report = verify_spectral_averaging(a, phi)
    aw = np.linalg.eigvalsh(a)
    energies = np.linspace(aw[0] - 0.5, aw[-1] + 1.5, 200)
    quadr = [
        np.max(
            averaged_imag_quadrature(
                a, np.eye(6), phi, SingleSiteDensity(3), energies, eps
            )
        )
        for eps in report.statistics["eps_list"]
    ]
    assert report.passed
    assert_allclose(report.statistics["sup_values"], quadr, rtol=1e-9)


def test_spectral_averaging_validation():
    eye = np.eye(2)
    phi = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="symmetric"):
        verify_spectral_averaging(np.array([[0, 1], [0, 0.0]]), phi)
    with pytest.raises(ValueError, match="shape"):
        verify_spectral_averaging(eye, np.ones(3))
    with pytest.raises(ValueError, match="nonzero"):
        verify_spectral_averaging(eye, np.zeros(2))


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


# -- reports ---------------------------------------------------------------------------


def test_report_json_round_trip():
    report = CheckReport(
        name="demo",
        passed=True,
        slack=1e-10,
        statistics={"values": np.array([1.0, 2.0]), "z": 1 + 2j},
        witness={"matrix": np.eye(2), "note": None},
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["name"] == "demo"
    assert payload["statistics"]["values"] == [1.0, 2.0]
    assert payload["statistics"]["z"] == {"re": 1.0, "im": 2.0}
    assert payload["witness"]["matrix"] == [[1.0, 0.0], [0.0, 1.0]]
