"""Experiment front end: config files in, CSV curves and JSON manifests out.

A run is described by a sectioned key=value config (model, disorder, run,
output), executed by one of six commands, and leaves behind one CSV per
curve plus a manifest recording the resolved config and per-file checksums.
Re-running any manifest must reproduce the CSV bytes exactly; plotting
happens elsewhere, on the CSV files.  Each config key is the
ExperimentConfig field it sets, parsed and written by the codec of the
field's type.  The retired keys run.workers and output.formats are accepted
and ignored, so configs that still set them run unchanged.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, cpu_affinity, loaded_openblas, spectral
from .disorder import TRANSFORM_MAX_P, SingleSiteDensity
from .lattice import (
    FreeOperatorSpec,
    ModelSpec,
    ProjectionFamily,
    build_box_enumeration,
)
from .montecarlo import (
    Estimate,
    McConfig,
    dos_derivative_curve,
    fractional_moment_profile,
    ids_curve,
    smoothed_dos_curve,
    telescope_series_diagnostic,
)

ENV_OUT_DIR = "DOSLAB_OUT"
COMMANDS = ("dos", "dos-deriv", "ids", "fracmom", "telescope", "verify")
CSV_HEADER = "E,epsilon,ell,mean_re,mean_im,stderr,n_samples"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid configuration, tagged with the section.key path at fault."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class NumericalFailure(RuntimeError):
    """A run produced non-finite values or a solver gave up."""


# what a run may raise once it samples; NumericalFailure and the solvers'
# residual guards are RuntimeErrors
_NUMERICAL_ERRORS = (
    RuntimeError, np.linalg.LinAlgError, FloatingPointError, OverflowError
)


# ---------------------------------------------------------------------------
# config value codecs


def _fmt_float(x: float) -> str:
    # repr is the shortest string that parses back to the same double
    return repr(float(x))


def _parse_int(path: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(path, f"expected an integer, got {text!r}") from None


def _parse_float(path: str, text: str) -> float:
    try:
        v = float(text.strip())
    except ValueError:
        raise ConfigError(path, f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {text!r}")
    return v


def _parse_list(path: str, text: str, parse_item, shorthand) -> tuple:
    """Comma list of items, or the colon shorthand of the item type."""
    text = text.strip()
    if not text:
        raise ConfigError(path, "list must not be empty")
    if ":" in text and "," not in text:
        return shorthand(path, text, text.split(":"))
    return tuple(parse_item(path, tok) for tok in text.split(","))


def _float_grid(path: str, text: str, parts: list[str]) -> tuple[float, ...]:
    """lo:hi:count, a uniform grid."""
    if len(parts) != 3:
        raise ConfigError(path, f"grid shorthand is lo:hi:count, got {text!r}")
    lo, hi = _parse_float(path, parts[0]), _parse_float(path, parts[1])
    count = _parse_int(path, parts[2])
    if count < 1:
        raise ConfigError(path, f"grid needs at least one point, got {count}")
    return tuple(float(v) for v in np.linspace(lo, hi, count))


def _int_range(path: str, text: str, parts: list[str]) -> tuple[int, ...]:
    """lo:hi, an inclusive range."""
    if len(parts) != 2:
        raise ConfigError(path, f"range shorthand is lo:hi, got {text!r}")
    lo, hi = _parse_int(path, parts[0]), _parse_int(path, parts[1])
    if hi < lo:
        raise ConfigError(path, f"range {lo}:{hi} is empty")
    return tuple(range(lo, hi + 1))


# declared field type -> (parse(path, text) -> value, fmt(value) -> text)
_CODECS = {
    "int": (_parse_int, str),
    "float": (_parse_float, _fmt_float),
    "str": (lambda path, text: text.strip(), str),
    "tuple[float, ...]": (
        lambda path, text: _parse_list(path, text, _parse_float, _float_grid),
        lambda v: ", ".join(map(_fmt_float, v)),
    ),
    "tuple[int, ...]": (
        lambda path, text: _parse_list(path, text, _parse_int, _int_range),
        lambda v: ", ".join(map(str, v)),
    ),
}


# ---------------------------------------------------------------------------
# experiment config


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment run.

    Construction validates every field and raises ConfigError with the
    offending section.key path, so a bad file never reaches an estimator.
    volume_sites = 0 in a file means the whole enumerated box and is
    resolved to the concrete count here.
    """

    # [model]
    dimension: int = 1
    half_width: int = 4
    volume_sites: int = 0
    hopping: float = 1.0
    phase: float = 0.0
    coupling: float = 1.0
    block_rank: int = 1
    # [disorder]
    p: int = 2
    # [run]
    command: str = "verify"
    energies: tuple[float, ...] = (0.0,)
    eps_values: tuple[float, ...] = (0.2,)
    s: float = 1.0 / 3.0
    ell: int = 0
    n_samples: int = 100
    master_seed: int = 0
    distances: tuple[int, ...] = (1, 2, 3, 4)
    k_min: int = 2
    k_max: int = 4
    # [output]
    directory: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("model.dimension", f"must be >= 1, got {self.dimension}")
        if self.half_width < 0:
            raise ConfigError("model.half_width", f"must be >= 0, got {self.half_width}")
        n_all = (2 * self.half_width + 1) ** self.dimension
        if self.volume_sites == 0:
            object.__setattr__(self, "volume_sites", n_all)
        if not 1 <= self.volume_sites <= n_all:
            raise ConfigError(
                "model.volume_sites",
                f"must lie in [1, {n_all}] for this box, got {self.volume_sites}",
            )
        if not math.isfinite(self.hopping):
            raise ConfigError("model.hopping", "must be finite")
        if not math.isfinite(self.phase):
            raise ConfigError("model.phase", "must be finite")
        if not self.coupling > 0.0:
            raise ConfigError("model.coupling", f"must be positive, got {self.coupling}")
        if self.block_rank < 1:
            raise ConfigError("model.block_rank", f"must be >= 1, got {self.block_rank}")
        if self.p < 1:
            raise ConfigError("disorder.p", f"must be >= 1, got {self.p}")
        if self.command not in COMMANDS:
            raise ConfigError(
                "run.command",
                f"unknown command {self.command!r}, expected one of {', '.join(COMMANDS)}",
            )
        if not all(math.isfinite(e) for e in self.energies):
            raise ConfigError("run.energies", "grid points must be finite")
        if not all(e > 0.0 for e in self.eps_values):
            raise ConfigError("run.eps_values", "imaginary shifts must be positive")
        if not 0.0 < self.s < 1.0:
            raise ConfigError("run.s", f"fractional exponent {self.s} outside (0, 1)")
        if self.ell < 0:
            raise ConfigError("run.ell", f"derivative order must be >= 0, got {self.ell}")
        if self.n_samples < 1:
            raise ConfigError("run.n_samples", f"must be >= 1, got {self.n_samples}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("run.master_seed", "must fit an unsigned 64-bit integer")
        if any(d < 1 for d in self.distances):
            raise ConfigError("run.distances", "distances must be >= 1")
        if self.k_min < 1:
            raise ConfigError("run.k_min", f"must be >= 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ConfigError(
                "run.k_max", f"must be >= k_min={self.k_min}, got {self.k_max}"
            )

    # -- wire format -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=(";",)
        )
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError("(file)", f"not parseable: {exc}") from None
        return cls.from_mapping(
            {sec: dict(parser.items(sec)) for sec in parser.sections()}
        )

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("(file)", f"unreadable config {path!r}: {exc}") from None
        return cls.from_text(text)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Inverse of to_mapping; mapping values are canonical strings."""
        return cls(**_fields(mapping))

    def to_mapping(self) -> dict:
        """Canonical {section: {key: string}} form; fixed order, all fields."""
        return {
            section: {key: _CODEC[key][1](getattr(self, key)) for key in keys}
            for section, keys in _SECTIONS.items()
        }

    def to_text(self) -> str:
        chunks = []
        for section, entries in self.to_mapping().items():
            chunks.append(f"[{section}]")
            chunks.extend(f"{key} = {value}" for key, value in entries.items())
            chunks.append("")
        return "\n".join(chunks)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


# section -> keys, in write order; each key is the ExperimentConfig field it sets
_SECTIONS = {
    "model": (
        "dimension", "half_width", "volume_sites", "hopping", "phase", "coupling",
        "block_rank",
    ),
    "disorder": ("p",),
    "run": (
        "command", "energies", "eps_values", "s", "ell", "n_samples", "master_seed",
        "distances", "k_min", "k_max",
    ),
    "output": ("directory",),
}
# retired keys: accepted on input, ignored, never written
_RETIRED = {"run": ("workers",), "output": ("formats",)}
# field -> codec of its declared type (annotations are strings here)
_CODEC = {f.name: _CODECS[f.type] for f in fields(ExperimentConfig)}


def _fields(mapping: dict) -> dict:
    """ExperimentConfig keyword arguments from {section: {key: text}}."""
    kwargs: dict = {}
    for section, entries in mapping.items():
        if section not in _SECTIONS:
            raise ConfigError(section, "unknown section")
        for key, raw in entries.items():
            path = f"{section}.{key}"
            if key in _SECTIONS[section]:
                kwargs[key] = _CODEC[key][0](path, raw)
            elif key not in _RETIRED.get(section, ()):
                raise ConfigError(path, "unknown key")
    return kwargs


# ---------------------------------------------------------------------------
# run manifest


def _environment() -> dict:
    """The environment a run computes in: the python and numpy versions,
    scipy's when this process has already loaded it (so a chain run loads
    nothing for it), cpu_affinity, the CPU count the fork map's sample
    spans and verify's round-robin shares are sized from, and one
    "openblas <file>" entry per loaded OpenBLAS, its build and thread
    count.  The manifest records it outside the byte comparison."""
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_affinity": cpu_affinity(),
    }
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    for lib in loaded_openblas():
        env[f"openblas {lib.name}"] = f"{lib.config} threads={lib.get_threads()}"
    return env


@dataclass(frozen=True)
class RunManifest:
    """Provenance record of one run: inputs, environment, output checksums.

    The command is the config's run.command; it is not stored twice.
    """

    config: ExperimentConfig
    config_sha256: str
    code_version: str
    wall_time_s: float
    outputs: dict[str, str]
    diagnostics: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def to_json_bytes(self) -> bytes:
        payload = {
            "kind": "doslab-run-manifest",
            "code_version": self.code_version,
            "config": self.config.to_mapping(),
            "config_sha256": self.config_sha256,
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
            "diagnostics": self.diagnostics,
            "environment": self.environment,
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @classmethod
    def from_file(cls, path: str) -> "RunManifest":
        """Read a manifest written by this code version; ConfigError otherwise."""
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("(manifest)", f"unreadable manifest {path!r}: {exc}") from None
        if not isinstance(payload, dict) or payload.get("kind") != "doslab-run-manifest":
            raise ConfigError("(manifest)", "not a run manifest")
        # before the config: another version's config may have other keys
        version = payload.get("code_version")
        if version != __version__:
            raise ConfigError(
                "(manifest)",
                f"code version {version} does not match installed {__version__}",
            )
        try:
            config, sha = payload["config"], payload["config_sha256"]
            wall, outputs = float(payload["wall_time_s"]), dict(payload["outputs"])
        except KeyError as exc:
            raise ConfigError("(manifest)", f"missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError("(manifest)", f"bad wall_time_s or outputs: {exc}") from None
        if not isinstance(config, dict) or not all(
            isinstance(table, dict) and all(isinstance(v, str) for v in table.values())
            for table in config.values()
        ):
            raise ConfigError("(manifest)", "config must map sections to {key: text}")
        diagnostics, env = payload.get("diagnostics", {}), payload.get("environment", {})
        if not isinstance(env, dict):
            raise ConfigError("(manifest)", "environment must be a table")
        return cls(
            ExperimentConfig.from_mapping(config), sha, version, wall, outputs,
            diagnostics, env,
        )


# ---------------------------------------------------------------------------
# plan: validated, ready-to-run ingredients


@dataclass
class _Plan:
    cfg: ExperimentConfig
    model: ModelSpec | None
    n_prefix_sites: int
    mc: McConfig | None
    fracmom_targets: list[tuple[int, int]] = field(default_factory=list)


def _build_model(cfg: ExperimentConfig) -> tuple[ModelSpec, int]:
    space = build_box_enumeration(cfg.dimension, cfg.half_width)
    n_all = len(space)
    if cfg.hopping == 0.0:
        free = FreeOperatorSpec.zero(space)
    else:
        amp = cfg.hopping * complex(math.cos(cfg.phase), math.sin(cfg.phase))
        free = FreeOperatorSpec.nearest_neighbor(space, amplitude=amp)
    if n_all % cfg.block_rank != 0:
        raise ConfigError(
            "model.block_rank",
            f"rank {cfg.block_rank} does not divide the box's {n_all} sites",
        )
    projections = ProjectionFamily.contiguous(n_all, rank=cfg.block_rank)
    model = ModelSpec(
        site_space=space,
        projections=projections,
        free=free,
        coupling=cfg.coupling,
        density=SingleSiteDensity(cfg.p),
    )
    try:
        projections.blocks_for_prefix(cfg.volume_sites)
    except ValueError as exc:
        raise ConfigError("model.volume_sites", str(exc)) from None
    return model, cfg.volume_sites


def _load_verification():
    """run_default_verification, importing doslab.verify on first use.

    Only the verify command needs that module, so no other command pays for
    compiling and loading it.  A name already bound here (a test double, a
    tracing wrapper) is kept.
    """
    from .verify import run_default_verification

    return globals().setdefault("run_default_verification", run_default_verification)


def __getattr__(name: str):
    if name == "run_default_verification":
        return _load_verification()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _prepare(cfg: ExperimentConfig) -> _Plan:
    """Everything that can be rejected before any sampling happens."""
    command = cfg.command
    if command == "verify":
        _load_verification()
        return _Plan(cfg, None, 0, None)
    if command == "telescope":
        if not cfg.s < 0.5:
            raise ConfigError(
                "run.s",
                f"telescoping needs a fractional exponent below 1/2, got {cfg.s}",
            )
        for key in ("energies", "eps_values"):
            values = getattr(cfg, key)
            if len(values) != 1:
                raise ConfigError(
                    f"run.{key}",
                    f"telescope takes one value, got {len(values)}",
                )
    if command in ("dos", "dos-deriv") and cfg.p > TRANSFORM_MAX_P:
        raise ConfigError(
            "disorder.p",
            f"{command} integrates the probe block's coupling with a transform "
            f"certified to 1e-12 only for p <= {TRANSFORM_MAX_P}, got p = {cfg.p}",
        )

    model, n_prefix = _build_model(cfg)
    mc = McConfig(cfg.n_samples, cfg.master_seed)
    plan = _Plan(cfg, model, n_prefix, mc)

    if command in ("dos-deriv", "telescope"):
        try:
            model.density.check_score_order(cfg.ell)
        except ValueError as exc:
            raise ConfigError("run.ell", str(exc)) from None
    if command == "fracmom":
        # loading SuperLU's extension counts as start-up, not as the first solve
        spectral._superlu()

        dist = model.block_distances(0)[: model.projections.blocks_for_prefix(n_prefix)]
        for d in cfg.distances:
            # the first block at distance d
            at = np.flatnonzero(dist == d)
            if not at.size:
                raise ConfigError(
                    "run.distances",
                    f"no block at distance {d} from block 0 inside the "
                    f"{n_prefix}-site volume",
                )
            plan.fracmom_targets.append((d, int(at[0])))
    elif command == "telescope":
        if cfg.dimension >= 2:
            # a box factors on SuperLU: loading its extension counts as
            # start-up, not as the first solve
            spectral._superlu()
        if cfg.k_max + 1 > model.n_blocks:
            raise ConfigError(
                "run.k_max",
                f"k_max {cfg.k_max} needs {cfg.k_max + 1} blocks, "
                f"the box only has {model.n_blocks}",
            )
    return plan


# ---------------------------------------------------------------------------
# execution


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_bytes(rows: list[tuple[float, float, int, Estimate]]) -> bytes:
    lines = [CSV_HEADER]
    for x, eps, ell, est in rows:
        mean = complex(est.mean)
        if not all(
            math.isfinite(v)
            for v in (x, eps, mean.real, mean.imag, est.stderr)
        ):
            raise NumericalFailure(
                f"non-finite value in row E={x}, epsilon={eps}: "
                f"mean={mean}, stderr={est.stderr}"
            )
        lines.append(
            ",".join(
                (
                    _g17(x),
                    _g17(eps),
                    str(int(ell)),
                    _g17(mean.real),
                    _g17(mean.imag),
                    _g17(est.stderr),
                    str(est.n_samples),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode()


def _execute(plan: _Plan) -> tuple[dict[str, bytes], dict, str | None]:
    """Run the command; return {filename: bytes} artifacts, diagnostics and
    the message of a failed verification, None when every check passed.
    """
    cfg = plan.cfg
    command = cfg.command
    artifacts: dict[str, bytes] = {}
    diagnostics: dict = {}

    def add_curve(index: int, rows) -> None:
        artifacts[f"{command}_curve{index}.csv"] = _csv_bytes(rows)

    if command == "verify":
        reports = _load_verification()(seed=cfg.master_seed)
        failed = [r.name for r in reports if not r.passed]
        diagnostics["checks"] = {r.name: bool(r.passed) for r in reports}
        diagnostics["n_failed"] = len(failed)
        payload = [r.to_dict() for r in reports]
        artifacts["verify_report.json"] = (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        ).encode()
        failure = f"{len(failed)} verification check(s) failed: {', '.join(failed)}"
        return artifacts, diagnostics, failure if failed else None

    model, n_prefix, mc = plan.model, plan.n_prefix_sites, plan.mc
    assert model is not None and mc is not None

    if command in ("dos", "dos-deriv"):
        # one pass over the samples for the whole grid: a column of eps
        # against the row of energies, estimates returned eps-major
        n_e = len(cfg.energies)
        eps_column = np.asarray(cfg.eps_values)[:, None]
        if command == "dos":
            ell = 0
            ests = smoothed_dos_curve(model, n_prefix, cfg.energies, eps_column, mc)
        else:
            ell = cfg.ell
            ests = dos_derivative_curve(
                model, n_prefix, cfg.energies, eps_column, ell, mc
            )
        for j, eps in enumerate(cfg.eps_values):
            curve = ests[j * n_e : (j + 1) * n_e]
            add_curve(j, [(e, eps, ell, est) for e, est in zip(cfg.energies, curve)])
    elif command == "ids":
        ests = ids_curve(model, n_prefix, cfg.energies, mc)
        add_curve(0, [(e, 0.0, 0, est) for e, est in zip(cfg.energies, ests)])
    elif command == "fracmom":
        dists = [d for d, _ in plan.fracmom_targets]
        blocks = [b for _, b in plan.fracmom_targets]
        index = 0
        for energy in cfg.energies:
            for eps in cfg.eps_values:
                ests = fractional_moment_profile(
                    model, n_prefix, complex(energy, eps), 0, blocks, cfg.s, mc
                )
                # abscissa is the block distance, not a spectral energy
                add_curve(
                    index, [(float(d), eps, 0, est) for d, est in zip(dists, ests)]
                )
                index += 1
    elif command == "telescope":
        (energy,), (eps,) = cfg.energies, cfg.eps_values
        report = telescope_series_diagnostic(
            model, range(cfg.k_min, cfg.k_max + 1), cfg.ell, energy, eps, mc
        )
        add_curve(
            0,
            [
                (float(k), eps, cfg.ell, est)
                for k, est in zip(report.k_values, report.terms)
            ],
        )
        base = complex(report.base.mean)
        direct = complex(report.direct.mean)
        diagnostics["telescope"] = {
            "energy": float(energy),
            "eps": float(eps),
            "ell": int(cfg.ell),
            "base_mean": [base.real, base.imag],
            "base_stderr": float(report.base.stderr),
            "direct_mean": [direct.real, direct.imag],
            "direct_stderr": float(report.direct.stderr),
            "partial_sums": [[float(z.real), float(z.imag)] for z in report.partial_sums],
            "fit_rate": None if report.fit is None else float(report.fit.rate),
            "fit_r_squared": None
            if report.fit is None
            else float(report.fit.r_squared),
            "summability_supported": bool(report.summability_supported),
        }
    return artifacts, diagnostics, None


# ---------------------------------------------------------------------------
# the two entry operations


def _resolve_out_dir(cfg: ExperimentConfig) -> str:
    if cfg.directory:
        return cfg.directory
    return os.environ.get(ENV_OUT_DIR, ".")


def run(
    command: str | None,
    config_path: str | None,
    out_dir: str | None = None,
    seed: int | None = None,
    out=None,
    err=None,
) -> int:
    """Execute one command; returns the process exit status.

    0 success, 2 config/validation problem, 3 numerical failure.  CLI
    overrides (command, out_dir, seed) are folded into the config before
    anything runs, so the manifest records what was actually used.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        cfg = (
            ExperimentConfig.from_file(config_path)
            if config_path is not None
            else ExperimentConfig()
        )
        overrides = {"master_seed": seed, "directory": out_dir, "command": command or None}
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        plan = _prepare(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=err)
        return EXIT_CONFIG

    directory = _resolve_out_dir(cfg)
    try:
        os.makedirs(directory, exist_ok=True)
        probe = os.path.join(directory, ".doslab-write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"config error: output.directory: not writable: {exc}", file=err)
        return EXIT_CONFIG

    started = time.perf_counter()
    try:
        artifacts, diagnostics, failure = _execute(plan)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=err)
        return EXIT_NUMERICAL
    wall = time.perf_counter() - started

    checksums = {
        name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()
    }
    manifest = RunManifest(
        config=cfg,
        config_sha256=cfg.sha256(),
        code_version=__version__,
        wall_time_s=wall,
        outputs=checksums,
        diagnostics=diagnostics,
        environment=_environment(),
    )
    for name, data in artifacts.items():
        target = os.path.join(directory, name)
        with open(target, "wb") as fh:
            fh.write(data)
        print(f"wrote {target}", file=out)
    manifest_path = os.path.join(directory, f"{cfg.command}.manifest.json")
    with open(manifest_path, "wb") as fh:
        fh.write(manifest.to_json_bytes())
    print(f"wrote {manifest_path}", file=out)

    if failure is not None:
        print(f"numerical failure: {failure}", file=err)
        return EXIT_NUMERICAL
    return EXIT_OK


def _first_differing_row(old: bytes, new: bytes) -> str:
    old_rows = old.split(b"\n")
    new_rows = new.split(b"\n")
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        if a != b:
            return (
                f"first difference at row {i + 1}: "
                f"had {a[:80]!r}, got {b[:80]!r}"
            )
    return (
        f"first difference at row {min(len(old_rows), len(new_rows)) + 1}: "
        f"row counts {len(old_rows)} vs {len(new_rows)}"
    )


def reproduce(manifest_path: str, out=None, err=None) -> int:
    """Re-run a manifest and byte-compare the outputs.

    0 when identical, 1 on a difference, 3 when the re-run fails; a failed
    verify run is compared first, since it still writes its report.  A
    stored config_sha256 that no longer matches the config is reported, and
    on a difference so are the environment entries that differ from this
    process's.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        manifest = RunManifest.from_file(manifest_path)
        plan = _prepare(manifest.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=err)
        return EXIT_CONFIG
    config_sha256 = manifest.config.sha256()
    if manifest.config_sha256 != config_sha256:
        print(
            f"config_sha256: stored {manifest.config_sha256}, but the config "
            f"hashes to {config_sha256}: it was edited after the run",
            file=err,
        )

    try:
        artifacts, _, failure = _execute(plan)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=err)
        return EXIT_NUMERICAL

    base_dir = os.path.dirname(os.path.abspath(manifest_path))
    mismatches = 0
    for name in sorted(manifest.outputs):
        recorded = manifest.outputs[name]
        if name not in artifacts:
            print(f"{name}: not produced by the re-run", file=err)
            mismatches += 1
            continue
        fresh = artifacts[name]
        if hashlib.sha256(fresh).hexdigest() == recorded:
            print(f"{name}: identical", file=out)
            continue
        mismatches += 1
        original = os.path.join(base_dir, name)
        try:
            with open(original, "rb") as fh:
                old = fh.read()
            print(f"{name}: {_first_differing_row(old, fresh)}", file=err)
        except OSError:
            print(
                f"{name}: checksum mismatch (original file missing, no row diff)",
                file=err,
            )
    extra = sorted(set(artifacts) - set(manifest.outputs))
    for name in extra:
        print(f"{name}: produced by the re-run but absent from the manifest", file=err)
        mismatches += 1
    if mismatches:
        now = _environment()
        changed = [
            f"{key} {manifest.environment.get(key)} at the run, {now.get(key)} now"
            for key in sorted(set(manifest.environment) | set(now))
            if manifest.environment.get(key) != now.get(key)
        ]
        print(
            "environment: " + ("; ".join(changed) or "no entry differs from this process"),
            file=err,
        )
        return EXIT_MISMATCH
    if failure is not None:
        print(f"numerical failure: {failure}", file=err)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argv plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doslab",
        description="Spectral-statistics experiments: CSV curves out of config files.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    runp = sub.add_parser("run", help="execute one command from a config")
    runp.add_argument(
        "command",
        nargs="?",
        default=None,
        help=f"one of {', '.join(COMMANDS)} (default: the config's run.command)",
    )
    runp.add_argument("--config", default=None, help="experiment config file")
    runp.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: config, then ${ENV_OUT_DIR}, then .)",
    )
    runp.add_argument("--seed", type=int, default=None, help="master seed override")

    repro = sub.add_parser("reproduce", help="re-run a manifest and byte-compare")
    repro.add_argument("manifest", help="path to a run manifest")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.mode == "run":
        return run(args.command, args.config, out_dir=args.out, seed=args.seed)
    return reproduce(args.manifest)


if __name__ == "__main__":
    sys.exit(main())
