"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line on the live terminal
(bypassing capture) so a full run reads as a ten-line report card.  Budgets
and tolerances are stated inline; seeds are frozen so every number here is
reproducible bit for bit.
"""

import io
import json
import time

import numpy as np

from doslab import (
    Corpus,
    FreeOperatorSpec,
    McConfig,
    ModelSpec,
    ProjectionFamily,
    SingleSiteDensity,
    build_box_enumeration,
    fit_decay,
    reproduce,
    run,
    verify_finite_smooth,
    verify_resolvent_average_bound,
    verify_resolvent_semigroup_identity,
    verify_semigroup_hoelder,
    verify_spectral_averaging,
)
from doslab.montecarlo import (
    dos_derivative_curve,
    fractional_moment_profile,
    smoothed_dos_curve,
    telescope_series_diagnostic,
)
from doslab.quadrature import panel_rule
from doslab.verify import averaging_corpus
from oracles import resolvent_power_curve


def chain(half_width, coupling, hopping=1.0, p=2):
    space = build_box_enumeration(1, half_width)
    free = (
        FreeOperatorSpec.nearest_neighbor(space, amplitude=hopping)
        if hopping
        else FreeOperatorSpec.zero(space)
    )
    return ModelSpec(
        site_space=space,
        projections=ProjectionFamily.contiguous(len(space)),
        free=free,
        coupling=coupling,
        density=SingleSiteDensity(p),
    )


def verdict(capsys, index, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {index:2d} {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_derivative_identity(capsys):
    # 64-site chain, coupling 2, first energy derivative: the reweighted
    # score estimator must agree with the squared-resolvent trace (one eigh
    # per sample, oracles.py) on shared disorder draws, within 4 combined
    # stderr at all 11 grid points.
    started = time.perf_counter()
    model = chain(32, 2.0)
    energies = np.linspace(-2.0, 4.0, 11)
    mc = McConfig(n_samples=20_000, master_seed=2024)
    score = dos_derivative_curve(model, 64, energies, 0.2, 1, mc)
    oracle = resolvent_power_curve(model, 64, energies, 0.2, 1, mc)
    worst = 0.0
    for a, b in zip(score, oracle):
        gap = abs(complex(a.mean) - complex(b.mean))
        worst = max(worst, gap / (4.0 * np.hypot(a.stderr, b.stderr)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1.0 and elapsed <= 120.0
    verdict(
        capsys,
        1,
        ok,
        f"derivative identity: worst gap {worst:.2f} of the 4-sigma budget, "
        f"{elapsed:.0f}s of the 120s budget",
    )
    assert worst <= 1.0
    assert elapsed <= 120.0


def test_criterion_02_flat_model_dos(capsys):
    # With no hopping and unit coupling the smoothed local DOS is exactly
    # the single-site law convolved with the Poisson kernel.  The estimator
    # integrates the probe block's coupling exactly, so every sample gives
    # that value: the gap must be at rounding level and the stderr ~0.
    model = chain(4, 1.0, hopping=0.0)
    energies = np.linspace(-0.2, 1.2, 8)
    mc = McConfig(n_samples=4000, master_seed=9)
    x, w = panel_rule(0.0, 1.0, n_nodes=40, n_panels=40)
    rho = model.density.eval(x)
    worst_gap = worst_stderr = 0.0
    for eps in (0.2, 0.05):
        curve = smoothed_dos_curve(model, 9, energies, eps, mc)
        for e, est in zip(energies, curve):
            conv = float(np.sum(w * rho * (eps / np.pi) / ((x - e) ** 2 + eps**2)))
            worst_gap = max(worst_gap, abs(est.mean - conv))
            worst_stderr = max(worst_stderr, est.stderr)
    ok = worst_gap <= 1e-9 and worst_stderr <= 1e-12
    verdict(
        capsys,
        2,
        ok,
        f"flat-model DOS vs convolution: worst gap {worst_gap:.1e} (budget 1e-9), "
        f"worst stderr {worst_stderr:.1e} (budget 1e-12) at eps in {{0.2, 0.05}}",
    )
    assert ok


def test_criterion_03_fractional_moment_decay(capsys):
    # Strong coupling, fractional exponent 1/3: the moment profile over
    # distances 1..15 must fit an exponential with positive rate, r^2 >= 0.95.
    model = chain(15, 10.0)
    dist = model.block_distances(0)[: model.projections.blocks_for_prefix(31)]
    distances = list(range(1, 16))
    blocks = [int(np.flatnonzero(dist == d)[0]) for d in distances]
    mc = McConfig(n_samples=2000, master_seed=101)
    profile = fractional_moment_profile(
        model, 31, 1.0 + 0.1j, 0, blocks, 1.0 / 3.0, mc
    )
    fit = fit_decay([(float(d), est) for d, est in zip(distances, profile)])
    ok = fit.rate > 0.0 and fit.r_squared >= 0.95
    verdict(
        capsys,
        3,
        ok,
        f"fractional-moment decay: rate {fit.rate:.3f}/site, "
        f"r^2 {fit.r_squared:.4f} on {fit.n_points} points",
    )
    assert fit.rate > 0.0
    assert fit.r_squared >= 0.95


def test_criterion_04_telescoping_sum(capsys):
    # Same strong-coupling chain, growing volumes K = 4..20 just below the
    # spectrum: boundary terms decay exponentially and their sum closes the
    # gap to an independently sampled largest-volume estimate.
    model = chain(10, 10.0)  # 21 blocks
    energy, eps = -2.5, 0.1
    mc = McConfig(n_samples=2000, master_seed=55)
    report = telescope_series_diagnostic(model, range(4, 21), 0, energy, eps, mc)
    mc_indep = McConfig(n_samples=2000, master_seed=77)
    independent = telescope_series_diagnostic(
        model, range(4, 21), 0, energy, eps, mc_indep
    )
    fit = report.fit
    gap = abs(report.partial_sums[-1] - complex(independent.direct.mean))
    budget = 4.0 * np.hypot(report.direct.stderr, independent.direct.stderr)
    ok = fit is not None and fit.rate > 0.0 and fit.r_squared >= 0.9 and gap <= budget
    verdict(
        capsys,
        4,
        ok,
        "telescoping terms: "
        + (
            f"rate {fit.rate:.2f}/volume, r^2 {fit.r_squared:.4f}; "
            f"summed vs direct gap {gap:.1e} within {budget:.1e}"
            if fit is not None
            else "decay fit degenerate"
        ),
    )
    assert fit is not None
    assert fit.rate > 0.0
    assert fit.r_squared >= 0.9
    assert gap <= budget


def test_criterion_05_derivative_form_quadrature(capsys):
    # 4x4 dense operator: exact-quadrature derivative of the smoothed trace
    # vs the reweighted-expectation form, relative error at most 0.5%.
    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4))
    free = (g + g.T) / 2.0
    report = verify_finite_smooth(free, coupling=1.5, eps=0.25, ell=1)
    rel = report.statistics["max_rel_discrepancy"]
    ok = report.passed and rel <= 0.005
    verdict(
        capsys,
        5,
        ok,
        f"derivative-form quadrature at N=4: relative error {rel:.2e} "
        f"(limit 5.0e-03), refinement certified {report.passed}",
    )
    assert report.passed
    assert rel <= 0.005


def test_criterion_06_semigroup_hoelder(capsys):
    # 10^4 dissipative pairs up to dimension 8, three exponents, six times:
    # not a single Hoelder-in-generator violation beyond 1e-10 slack.
    corpus = Corpus(10_000, dim_min=2, dim_max=8, seed=12)
    report = verify_semigroup_hoelder(corpus)
    stats = report.statistics
    ok = report.passed and stats["n_violations"] == 0
    verdict(
        capsys,
        6,
        ok,
        f"semigroup Hoelder bound: {stats['n_violations']} violations in "
        f"{stats['n_checks']} checks, worst margin {stats['worst_margin']:.2e}",
    )
    assert report.passed
    assert stats["n_violations"] == 0


def test_criterion_07_resolvent_time_integral(capsys):
    # 100 dissipative instances up to dimension 6: the averaged resolvent
    # equals the truncated semigroup time integral to 1e-6 in operator norm.
    corpus = Corpus(100, dim_min=2, dim_max=6, seed=3)
    matrices = [corpus.matrix(i) for i in range(corpus.n_instances)]
    report = verify_resolvent_semigroup_identity(matrices, t_max=1e3)
    worst = report.statistics["max_discrepancy"]
    ok = report.passed and worst <= 1e-6
    verdict(
        capsys,
        7,
        ok,
        f"resolvent as time integral: worst discrepancy {worst:.2e} "
        f"over 100 instances (limit 1.0e-06)",
    )
    assert report.passed
    assert worst <= 1e-6


def test_criterion_08_spectral_averaging(capsys):
    # Scalar case: the averaged imaginary part must saturate the smoothing
    # cap pi*sup(rho) within 1% at the finest eps.  6x6 corpus: the sup is
    # stable within 2% across the eps ladder.
    scalar = verify_spectral_averaging(np.array([[0.3]]), np.array([1.0]))
    sup = scalar.statistics["sup_values"][-1]
    cap = scalar.statistics["poisson_cap"]
    deficit = (cap - sup) / cap
    corpus_reports = [
        verify_spectral_averaging(a, phi)
        for a, phi in averaging_corpus(3, dim=6, seed=10)
    ]
    drifts = [max(r.statistics["drifts"]) for r in corpus_reports]
    ok = (
        scalar.passed
        and 0.0 <= deficit <= 0.01
        and all(r.passed for r in corpus_reports)
        and all(d <= 0.02 for d in drifts)
    )
    verdict(
        capsys,
        8,
        ok,
        f"spectral averaging: scalar sup within {deficit * 100:.2f}% of the "
        f"density cap; 6x6 sup drift at most {max(drifts) * 100:.2f}% per step",
    )
    assert scalar.passed
    assert 0.0 <= deficit <= 0.01
    assert all(r.passed for r in corpus_reports)
    assert all(d <= 0.02 for d in drifts)


def test_criterion_09_two_sided_bound_scaling(capsys):
    # Two-sided resolvent-difference bound: perturbation scaling exponent at
    # least s - 0.05, and the empirical constant's max ratio moves less than
    # 10% when the instance corpus doubles.
    base = verify_resolvent_average_bound(Corpus(200, dim_min=2, dim_max=6, seed=0))
    doubled = verify_resolvent_average_bound(
        Corpus(400, dim_min=2, dim_max=6, seed=0)
    )
    r1 = base.statistics["max_ratio"]
    r2 = doubled.statistics["max_ratio"]
    drift = abs(r2 - r1) / r1
    slope = base.statistics["min_slope"]
    ok = base.passed and doubled.passed and drift <= 0.10
    verdict(
        capsys,
        9,
        ok,
        f"two-sided bound: slope {slope:.3f} (needs >= 0.35), max ratio "
        f"{r1:.4f} -> {r2:.4f} on doubling ({drift * 100:.2f}% <= 10%)",
    )
    assert base.passed
    assert doubled.passed
    assert drift <= 0.10


def test_criterion_10_manifest_determinism(capsys, tmp_path, monkeypatch):
    # The same experiment run with 256 and with 7 samples per chunk, on 1 and
    # on 3 CPUs, must emit byte-identical CSV curves, and a manifest must
    # reproduce cleanly even after its retired run.workers key is edited: the
    # key is accepted and ignored.  On 3 CPUs the 300 samples form spans of
    # 150 (chunks of 256) or 100 (chunks of 7), neither chunk-aligned.
    import doslab.montecarlo as montecarlo

    config = tmp_path / "exp.ini"
    config.write_text(
        """
[model]
half_width = 10
coupling = 4.0

[run]
command = dos-deriv
energies = -0.5, 0.0, 0.5
eps_values = 0.3
ell = 1
n_samples = 300
master_seed = 11
workers = 1
"""
    )
    quiet = {"out": io.StringIO(), "err": io.StringIO()}
    curves = {}
    for cpus in (1, 3):
        monkeypatch.setattr(montecarlo, "cpu_affinity", lambda cpus=cpus: cpus)
        for chunk in (256, 7):
            monkeypatch.setattr(montecarlo, "_CHUNK_SAMPLES", chunk)
            out_dir = tmp_path / f"cpus{cpus}-chunk{chunk}"
            assert run(None, str(config), out_dir=str(out_dir), **quiet) == 0
            curves[cpus, chunk] = (out_dir / "dos-deriv_curve0.csv").read_bytes()
    identical = len(set(curves.values())) == 1

    manifest_path = tmp_path / "cpus3-chunk7" / "dos-deriv.manifest.json"
    code_same = reproduce(str(manifest_path), **quiet)
    payload = json.loads(manifest_path.read_text())
    payload["config"]["run"]["workers"] = "8"
    manifest_path.write_text(json.dumps(payload))
    code_edited = reproduce(str(manifest_path), **quiet)

    ok = identical and code_same == 0 and code_edited == 0
    verdict(
        capsys,
        10,
        ok,
        f"determinism: chunks of 256 vs 7 samples on 1 vs 3 CPUs byte-identical "
        f"{identical}, "
        f"reproduce exit {code_same}, reproduce with edited workers exit "
        f"{code_edited}",
    )
    assert identical
    assert code_same == 0
    assert code_edited == 0
