"""doslab benchmark: time `doslab run` processes on one workload and check them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout: the program is imported from ./src, never from an
installed copy.  For S seconds the benchmark starts one `doslab run` process
after another, each on a config generated from the workload's template and
the seed (workloads.py), then re-runs the first manifest with
`doslab reproduce`.  Every process is checked: exit code 0, CSV rows that
agree with the seed commit's rows for the same master seed within four
combined standard errors, identical bytes for identical inputs, and every
verification check passed.

--trace 0 prints the end-to-end metrics, medians over the processes.
--trace 1 alternates plain and traced processes (tracer.py) and prints the
per-layer metrics.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  Work files go to .bench_work/ in the
checkout.  OPENBLAS_NUM_THREADS and OMP_NUM_THREADS are left as found and
recorded with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CSV_HEADER = "E,epsilon,ell,mean_re,mean_im,stderr,n_samples"
N_SIGMA = 4.0
MIN_REPS = 3  # processes, traced ones included
PROCESS_TIMEOUT_S = 150.0
DOSLAB = ["-c", "import sys; from doslab.cli import main; sys.exit(main())"]

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "compute_s": "s",
    "samples_per_s": "1/s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "disorder.draws_per_sample": "1/sample",
    "spectral.calls_per_sample": "1/sample",
    "spectral.eigh_mean_n": "sites",
    "spectral.gflop_computed": "GFLOP",
    "spectral.gflops_achieved": "GFLOP/s",
    "cli.output_bytes": "B",
    "quadrature.nodes": "count",
    "montecarlo.threads_seen": "count",
    "trace.spans": "count",
    "quadrature.s": "s",
}

# Runs once before the timed loop.  It imports the package, so that timed
# processes find it compiled and paged in.  It keeps the cores busy for a
# second, because on a shared two-core host the first process after an idle
# spell ran up to 20% slower.  It prints the environment fingerprint.
WARMUP = r"""
import json, os, sys, time
import numpy, scipy
import doslab.cli
a = numpy.random.default_rng(0).standard_normal((65, 65))
started = time.perf_counter()
while time.perf_counter() - started < 1.0:
    numpy.linalg.eigh(a + a.T)
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_config": blas.get("openblas configuration"),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    "cpu_count": os.cpu_count(),
    "affinity": len(os.sched_getaffinity(0)),
}))
"""


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls"):
        return "count"
    return "ratio"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run python with args; (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdout=fh, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than wait: it returns this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    # wait4 reaped the child; record that so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def warm_up() -> dict:
    """Run WARMUP; the environment fingerprint, with the src/ line count."""
    out = subprocess.run(
        [sys.executable, "-c", WARMUP], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True,
    ).stdout
    env = json.loads(out)
    env["src_lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return env


# ---------------------------------------------------------------------------
# output checks


def parse_csv(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: header is not {CSV_HEADER!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def reference_stderrs(ref: dict, master_seed: int) -> list[float]:
    """The seed commit's stderr of every row, in check_rows order."""
    rows = ref["seeds"][str(master_seed)]
    return [se for name in sorted(rows) for _, _, se in rows[name]]


def check_rows(ref: dict, master_seed: int, out: Path) -> tuple[list[str], list[float]]:
    """Problems found in the CSVs, and the stderr of every row."""
    names = sorted(p.name for p in out.glob("*.csv"))
    if names != sorted(ref["files"]):
        return [f"CSV files {names}, expected {sorted(ref['files'])}"], []
    problems, stderrs = [], []
    expected = ref["seeds"][str(master_seed)]
    for name in names:
        rows = parse_csv(out / name)
        keys = ref["files"][name]
        if len(rows) != len(keys):
            problems.append(f"{name}: {len(rows)} rows, expected {len(keys)}")
            continue
        for i, (row, key, (re, im, se)) in enumerate(zip(rows, keys, expected[name])):
            x, eps, ell, mean_re, mean_im, stderr, n = row
            where = f"{name} row {i + 1}"
            stderrs.append(stderr)
            if not all(math.isfinite(v) for v in row):
                problems.append(f"{where}: non-finite value")
            elif [x, eps, ell] != key or int(n) != ref["n_samples"]:
                problems.append(f"{where}: (E, eps, ell, n) = {(x, eps, ell, n)}")
            elif abs(complex(mean_re - re, mean_im - im)) > N_SIGMA * math.hypot(stderr, se):
                problems.append(
                    f"{where}: mean {mean_re}{mean_im:+}j is more than {N_SIGMA} "
                    f"combined stderr from the seed commit's {re}{im:+}j"
                )
    return problems, stderrs


def check_verify(out: Path) -> tuple[list[str], int]:
    """Failed checks, and how many checks ran."""
    reports = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    failed = [f"verify check {r['name']} failed" for r in reports if not r["passed"]]
    return failed, len(reports)


class Rep:
    """One `doslab run` process and what its outputs showed."""

    def __init__(self, workload, seed: int, index: int, work: Path, traced: bool):
        self.master_seed = workload.master_seed(seed, index)
        self.traced = traced
        self.dir = work / f"rep{index}{'-traced' if traced else ''}"
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(workload.config(seed, index), encoding="utf-8")
        self.out = self.dir / "out"
        self.manifest_path = self.out / f"{workload.command}.manifest.json"
        self.spans = self.dir / "spans.json"
        self.problems: list[str] = []
        self.stderrs: list[float] = []
        self.digest = None

    def run(self, ref: dict | None) -> None:
        args = ["run", "--config", str(self.config), "--out", str(self.out)]
        if self.traced:
            args = [str(BENCH / "tracer.py"), str(self.spans), *args]
        else:
            args = [*DOSLAB, *args]
        self.code, self.wall_s, self.rss_mb = spawn(args, self.dir / "log.txt")
        if self.code != 0:
            self.problems.append(f"exit code {self.code}, see {self.dir / 'log.txt'}")
            return
        try:
            self.manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            self.compute_s = float(self.manifest["wall_time_s"])
            self.digest = json.dumps(self.manifest["outputs"], sort_keys=True)
            self.output_bytes = sum(p.stat().st_size for p in self.out.iterdir())
            if ref is not None:
                self.problems, self.stderrs = check_rows(ref, self.master_seed, self.out)
            else:
                self.problems, self.n_checks = check_verify(self.out)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"unreadable output: {exc!r}")


# ---------------------------------------------------------------------------
# metrics


def summary(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    line = f"median {statistics.median(values):.6g}"
    if n > 10:
        q = (n - 10) / n
        line += f", p{100 * q:.0f} {sorted(values)[math.ceil(q * n) - 1]:.6g}"
    else:
        line += f", max {max(values):.6g} (no percentile has 10 samples beyond it)"
    return f"{line}, n={n}"


def end_to_end(workload, reps: list[Rep], ref: dict | None) -> dict[str, list[float]]:
    series = {
        "wall_s": [r.wall_s for r in reps],
        "setup_s": [r.wall_s - r.compute_s for r in reps],
        "compute_s": [r.compute_s for r in reps],
    }
    compute = statistics.median(series["compute_s"])
    if ref is not None:
        series["samples_per_s"] = [
            workload.n_samples * workload.curves / r.compute_s for r in reps
        ]
        series["time_to_target_s"] = [
            compute * (worst_stderr(ref, reps) / workload.target_stderr) ** 2
        ]
    else:
        # verify: checks per second; one run reaches the certificate
        series["samples_per_s"] = [
            r.n_checks / r.compute_s for r in reps
        ]
        series["time_to_target_s"] = [compute]
    series["peak_rss_mb"] = [r.rss_mb for r in reps]
    return series


def worst_stderr(ref: dict, reps: list[Rep]) -> float:
    """The largest row stderr at n_samples, estimated with a control variate.

    A few processes' stderrs scatter by tens of percent from seed to seed.
    So each row's variance is the seed commit's variance over the whole
    seed pool, times the ratio of this run's variance to the seed commit's
    on the same master seeds.  At unchanged numerics the ratio is exactly 1;
    an estimator with less variance moves it.
    """
    pool = [reference_stderrs(ref, int(seed)) for seed in ref["seeds"]]
    same = [reference_stderrs(ref, r.master_seed) for r in reps]
    worst = 0.0
    for row, run_se in enumerate(zip(*(r.stderrs for r in reps))):
        pool_var = statistics.fmean(se[row] ** 2 for se in pool)
        same_var = statistics.fmean(se[row] ** 2 for se in same)
        run_var = statistics.fmean(se * se for se in run_se)
        worst = max(worst, pool_var * run_var / same_var if same_var > 0 else run_var)
    return math.sqrt(worst)


def per_layer(workload, pairs: list[tuple[Rep, Rep]]) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for _, traced in pairs:
        trace = json.loads(traced.spans.read_text(encoding="utf-8"))
        m = layer_metrics(trace, workload.n_samples, workload.workers, traced.compute_s)
        m["cli.output_bytes"] = traced.output_bytes
        for name, value in m.items():
            series.setdefault(name, []).append(value)
    series["trace.overhead_s"] = [
        statistics.median(t.wall_s for _, t in pairs)
        - statistics.median(p.wall_s for p, _ in pairs)
    ]
    return dict(sorted(series.items()))


# ---------------------------------------------------------------------------
# main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "doslab" / "cli.py").is_file():
        print(f"no doslab sources under {SRC}: run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ref = None
    if workload.seeded:
        ref_path = BENCH / "reference" / f"{workload.name}.json"
        ref = json.loads(ref_path.read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        env = warm_up()
    except subprocess.CalledProcessError as exc:
        print(f"cannot import doslab from {SRC}:\n{exc.stderr}", file=sys.stderr)
        return 2

    reps: list[Rep] = []
    pairs: list[tuple[Rep, Rep]] = []
    started = time.perf_counter()
    index = 0
    while True:
        if args.trace:
            plain = Rep(workload, args.seed, index, work, traced=False)
            traced = Rep(workload, args.seed, index, work, traced=True)
            order = (plain, traced) if index % 2 == 0 else (traced, plain)
            pairs.append((plain, traced))
        else:
            order = (Rep(workload, args.seed, index, work, traced=False),)
        for rep in order:
            rep.run(ref)
            reps.append(rep)
        index += 1
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (index + 1) / index > args.seconds:
            break

    # identical inputs must give identical bytes
    first_digest: dict[int, str] = {}
    for r in reps:
        if r.digest is None:
            continue
        first_digest.setdefault(r.master_seed, r.digest)
        if r.digest != first_digest[r.master_seed]:
            r.problems.append(f"outputs differ from another run of master seed {r.master_seed}")
    problems = [f"{r.dir.name}: {p}" for r in reps for p in r.problems]
    failed = sum(bool(r.problems) for r in reps)
    code = spawn([*DOSLAB, "reproduce", str(reps[0].manifest_path)], work / "reproduce.txt")[0]
    if code != 0:
        failed += 1
        problems.append(f"doslab reproduce exited {code}, see {work / 'reproduce.txt'}")

    series: dict[str, list[float]] = {}
    if not problems:
        series = per_layer(workload, pairs) if args.trace else end_to_end(workload, reps, ref)
    metrics = {}
    for name, values in series.items():
        unit = layer_unit(name) if args.trace else END_TO_END_UNITS[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name} [{unit}]: {summary(values)}")
    if args.trace and metrics:
        for name, expected in workload.seed_counts.items():
            got = metrics[name]["value"]
            verdict = "matches" if got == expected else "differs from"
            print(f"trace-check {name} = {got:g} {verdict} the seed commit's {expected:g}")
    for p in problems:
        print(f"FAILED {p}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "master_seeds": [r.master_seed for r in reps],
        "environment": env,
        "problems": problems,
        "series": series,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps) + 1,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
