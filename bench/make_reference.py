"""Write reference/<workload>.json: the CSV rows of every pool seed.

    python3 bench/make_reference.py [WORKLOAD ...]

Run it at the commit whose numbers are the reference.  The benchmark then
accepts a later commit's rows when they lie within four combined standard
errors of these, which lets a new kernel change the last bits but not the
numbers.  The committed files were written at the commit that added the
benchmark.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from doslab.cli import run as doslab_run  # noqa: E402
from run import parse_csv  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS  # noqa: E402


def reference(workload) -> dict:
    files, seeds = None, {}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for seed in range(POOL_SIZE):
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            config = Path(tmp) / "config.ini"
            config.write_text(workload.template.format(master_seed=seed), encoding="utf-8")
            out = Path(tmp) / "out"
            if doslab_run(None, str(config), out_dir=str(out), out=io.StringIO()) != 0:
                raise SystemExit(f"{workload.name}: master seed {seed} failed")
            rows = {p.name: parse_csv(p) for p in sorted(out.glob("*.csv"))}
        keys = {name: [r[:3] for r in rs] for name, rs in rows.items()}
        if files is not None and keys != files:
            raise SystemExit(f"{workload.name}: rows differ between seeds")
        files = keys
        seeds[str(seed)] = {
            name: [[float(f"{v:.12g}") for v in r[3:6]] for r in rs]
            for name, rs in rows.items()
        }
        print(f"{workload.name}: master seed {seed} done", flush=True)
    return {"workload": workload.name, "n_samples": workload.n_samples,
            "files": files, "seeds": seeds}


def dump(ref: dict) -> str:
    """JSON with one line per seed, so a diff shows which seeds moved."""
    compact = {"separators": (",", ":")}
    head = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, **compact)}"
        for k, v in ref.items() if k != "seeds"
    )
    seeds = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v, **compact)}" for k, v in ref["seeds"].items()
    )
    return "{\n" + head + ',\n"seeds": {\n' + seeds + "\n}}\n"


def main(names: list[str]) -> None:
    for name in names or [n for n, w in WORKLOADS.items() if w.seeded]:
        ref = reference(WORKLOADS[name])
        target = BENCH / "reference" / f"{name}.json"
        target.parent.mkdir(exist_ok=True)
        target.write_text(dump(ref), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
