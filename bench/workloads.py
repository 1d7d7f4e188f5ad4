"""The benchmark's workloads: one `doslab run` config template each.

A workload's config is its template with the master seed filled in, so the
program receives nothing but the generated file.  Monte Carlo workloads take
their master seeds from a pool of POOL_SIZE seeds: rep r of a run with
benchmark seed s uses pool index (hash(workload, s) + r) mod POOL_SIZE, and
reference/<workload>.json stores the rows the seed commit wrote for every
pool seed, so each rep's CSV is checked against rows of its own seed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

POOL_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    # disorder samples x curves per process, divided by compute_s, is
    # samples_per_s; for verify it is checks per second instead
    curves: int
    # the stderr a user asks for at the worst CSV row; time_to_target_s is
    # the compute time one process would need to reach it
    target_stderr: float
    seeded: bool = True
    # exact per-process counts of the traced run at the seed commit; a
    # change that removes work is expected to change them
    seed_counts: dict = field(default_factory=dict)

    def setting(self, key: str, default: str) -> str:
        found = re.search(rf"^{key} = (.+)$", self.template, re.MULTILINE)
        return found.group(1) if found else default

    @property
    def command(self) -> str:
        return self.setting("command", "verify")

    @property
    def workers(self) -> int:
        return int(self.setting("workers", "1"))

    @property
    def n_samples(self) -> int:
        return int(self.setting("n_samples", "0"))

    def master_seed(self, seed: int, rep: int) -> int:
        if not self.seeded:
            return 0
        digest = hashlib.sha256(f"{self.name}:{seed}".encode()).digest()
        return (int.from_bytes(digest[:8], "big") + rep) % POOL_SIZE

    def config(self, seed: int, rep: int) -> str:
        return self.template.format(master_seed=self.master_seed(seed, rep))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain_dos",
            why=(
                "Dense-eigh workload: eigh is about 80% of the run, and the "
                "CLI calls the estimator once per eps, so every "
                "eigendecomposition is done four times."
            ),
            template="""\
[model]
dimension = 1
half_width = 32
coupling = 1.0

[disorder]
p = 2

[run]
command = dos
energies = -3:3:11
eps_values = 0.5, 0.2, 0.1, 0.05
n_samples = 500
master_seed = {master_seed}
workers = 1
""",
            curves=4,
            target_stderr=0.001,
            seed_counts={
                "montecarlo.estimator_calls": 4,
                "spectral.eigh_calls": 4 * 500,
                "disorder.draws_per_sample": 4,
            },
        ),
        Workload(
            name="box3d_fracmom",
            why=(
                "Dense complex LU on a 1331-site box with one eps and no "
                "eigh; the only workload where lattice assembly and "
                "setup_s are visible."
            ),
            template="""\
[model]
dimension = 3
half_width = 5
coupling = 6.0

[disorder]
p = 2

[run]
command = fracmom
energies = 0.0
eps_values = 0.1
distances = 1:5
n_samples = 20
master_seed = {master_seed}
workers = 1
""",
            curves=1,
            target_stderr=0.002,
            seed_counts={"spectral.lu_calls": 20},
        ),
        Workload(
            name="chain_telescope",
            why=(
                "80 small nested-volume eigh calls per sample with score "
                "sums, on the two-thread sample pool: per-call overhead "
                "and BLAS oversubscription show here."
            ),
            template="""\
[model]
dimension = 1
half_width = 32
coupling = 2.0

[disorder]
p = 4

[run]
command = telescope
energies = 0.5
eps_values = 0.1
ell = 1
k_min = 2
k_max = 40
n_samples = 100
master_seed = {master_seed}
workers = 2
""",
            curves=1,
            target_stderr=0.05,
            seed_counts={
                "spectral.eigh_calls": 80 * 100,
                "lattice.matrix_calls": 40,
            },
        ),
        Workload(
            name="verify",
            why=(
                "The default verification corpus: quadrature, svd and inv, "
                "no Monte Carlo, so estimator changes predict no change here."
            ),
            # seeded corpora fail the two-sided bound's convergence flag at
            # some seeds (see README.md), so the run uses the CLI default
            template="""\
[run]
command = verify
master_seed = {master_seed}
""",
            curves=0,
            target_stderr=0.0,
            seeded=False,
        ),
    )
}
