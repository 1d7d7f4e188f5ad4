"""Config parsing, artifact layout, and reproducibility of the command line."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import doslab

from doslab.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    RunManifest,
    main,
    reproduce,
    run,
)
from doslab import loaded_openblas
from doslab.verify import CheckReport


def write_config(path, body):
    path.write_text(body)
    return str(path)


def toy_config(tmp_path, command, *, n_samples=30, **overrides):
    run_keys = {
        "command": command,
        # telescope takes one energy: the first of the others' grid
        "energies": "-0.5" if command == "telescope" else "-0.5, 0.0, 0.5",
        "eps_values": "0.3",
        "s": "0.3",
        "n_samples": str(n_samples),
        "master_seed": "11",
        "distances": "1:4",
        "k_min": "2",
        "k_max": "5",
    }
    run_keys.update({k: str(v) for k, v in overrides.items()})
    run_body = "\n".join(f"{k} = {v}" for k, v in run_keys.items())
    return write_config(
        tmp_path / f"{command}.ini",
        f"""
[model]
half_width = 10
hopping = 1.0
coupling = 4.0

[disorder]
p = 2

[run]
{run_body}

[output]
directory = {tmp_path / "out"}
""",
    )


def run_python(*args):
    """The interpreter on args in a fresh process that imports this doslab."""
    src = os.path.dirname(os.path.dirname(doslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_quiet(*args, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run(*args, out=out, err=err, **kwargs)
    return code, out.getvalue(), err.getvalue()


# -- config wire format -----------------------------------------------------------


def test_default_config_round_trips():
    cfg = ExperimentConfig()
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again == cfg


def test_custom_config_round_trips():
    cfg = ExperimentConfig(
        dimension=2,
        half_width=3,
        volume_sites=49,
        hopping=0.5,
        phase=0.25,
        coupling=1.0 / 3.0,
        block_rank=7,
        p=4,
        command="dos",
        energies=(-1.25, 0.1, 2.0 / 3.0),
        eps_values=(0.2, 0.05),
        s=0.42,
        ell=2,
        n_samples=123,
        master_seed=2**63 + 17,
        distances=(1, 3, 5),
        k_min=3,
        k_max=9,
        directory="some/dir",
    )
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg
    assert ExperimentConfig.from_mapping(cfg.to_mapping()) == cfg


def test_readme_config_block_parses_to_the_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    assert ExperimentConfig.from_text(block) == ExperimentConfig()


def test_grid_shorthands():
    cfg = ExperimentConfig.from_text("[run]\nenergies = -2.0:2.0:5\ndistances = 2:4\n")
    assert cfg.energies == (-2.0, -1.0, 0.0, 1.0, 2.0)
    assert cfg.distances == (2, 3, 4)


def test_disorder_m_is_an_unknown_key(tmp_path):
    # m = p - 1 named another m than the paper's (m = p - 2 for this law);
    # ignoring the key would silently run the default p = 2
    with pytest.raises(ConfigError, match="disorder.m: unknown key"):
        ExperimentConfig.from_text("[disorder]\nm = 2\n")
    cfgp = write_config(tmp_path / "m.ini", "[disorder]\nm = 2\n[run]\ncommand = ids\n")
    code, _, err = run_quiet(None, cfgp, out_dir=str(tmp_path / "out"))
    assert code == 2 and "disorder.m" in err
    assert not (tmp_path / "out").exists()


def test_volume_defaults_to_whole_box():
    cfg = ExperimentConfig.from_text("[model]\nhalf_width = 5\n")
    assert cfg.volume_sites == 11


@pytest.mark.parametrize("rank", [1, 3])
def test_phase_is_a_gauge_on_a_chain(rank):
    # on a path the phase moves onto the basis vectors: no estimate changes
    import numpy as np

    import doslab.cli as cli_mod

    def rows(phase):
        cfg = ExperimentConfig(
            half_width=10, phase=phase, block_rank=rank, coupling=2.0, p=4,
            command="dos-deriv", energies=(-1.0, 0.0, 0.5, 1.5, 3.0), ell=2,
            n_samples=20,
        )
        artifacts = cli_mod._execute(cli_mod._prepare(cfg))[0]
        text = artifacts["dos-deriv_curve0.csv"].decode().splitlines()
        return np.loadtxt(text, delimiter=",", skiprows=1)

    np.testing.assert_allclose(rows(0.4), rows(0.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "body, path",
    [
        ("[run]\ns = 1.5\n", "run.s"),
        ("[run]\ncommand = bogus\n", "run.command"),
        ("[run]\neps_values = 0.2, -0.1\n", "run.eps_values"),
        ("[run]\nn_samples = 0\n", "run.n_samples"),
        ("[run]\nmaster_seed = -1\n", "run.master_seed"),
        ("[run]\nk_min = 4\nk_max = 2\n", "run.k_max"),
        ("[model]\ncoupling = 0.0\n", "model.coupling"),
        ("[model]\ndimension = 0\n", "model.dimension"),
        ("[model]\nhalf_width = 2\nvolume_sites = 9\n", "model.volume_sites"),
        ("[model]\nhopping = nan\n", "model.hopping"),
        ("[model]\nbanana = 1\n", "model.banana"),
        ("[fruit]\nbanana = 1\n", "fruit"),
    ],
)
def test_validation_reports_field_path(body, path):
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        ExperimentConfig.from_text(body)


def test_seventeen_digit_floats_survive():
    third = 1.0 / 3.0
    cfg = ExperimentConfig(s=third, energies=(math.pi, -math.e))
    again = ExperimentConfig.from_text(cfg.to_text())
    assert again.s == third
    assert again.energies == (math.pi, -math.e)


# -- run command ------------------------------------------------------------------


def test_run_dos_writes_curve_and_manifest(tmp_path):
    cfgp = toy_config(tmp_path, "dos")
    code, out, err = run_quiet(None, cfgp)
    assert code == 0, err
    outdir = tmp_path / "out"
    csv_path = outdir / "dos_curve0.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + one row per grid point
    first = lines[1].split(",")
    assert float(first[0]) == -0.5
    assert float(first[1]) == 0.3
    assert int(first[2]) == 0
    assert float(first[5]) > 0.0
    assert int(first[6]) == 30

    manifest = RunManifest.from_file(str(outdir / "dos.manifest.json"))
    assert manifest.config.command == "dos"
    assert manifest.config.coupling == 4.0
    assert manifest.code_version
    assert manifest.wall_time_s >= 0.0
    import hashlib

    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest.outputs == {"dos_curve0.csv": digest}


def test_run_overrides_land_in_manifest(tmp_path):
    cfgp = toy_config(tmp_path, "dos")
    other = tmp_path / "elsewhere"
    code, _, err = run_quiet(None, cfgp, out_dir=str(other), seed=99)
    assert code == 0, err
    manifest = RunManifest.from_file(str(other / "dos.manifest.json"))
    assert manifest.config.master_seed == 99
    assert manifest.config.directory == str(other)


def test_run_one_curve_per_eps(tmp_path):
    cfgp = toy_config(tmp_path, "dos", eps_values="0.4, 0.2")
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    outdir = tmp_path / "out"
    assert (outdir / "dos_curve0.csv").exists()
    assert (outdir / "dos_curve1.csv").exists()
    eps0 = (outdir / "dos_curve0.csv").read_text().splitlines()[1].split(",")[1]
    eps1 = (outdir / "dos_curve1.csv").read_text().splitlines()[1].split(",")[1]
    assert (float(eps0), float(eps1)) == (0.4, 0.2)


@pytest.mark.parametrize("command,ell", [("dos", 0), ("dos-deriv", 1)])
def test_run_makes_one_estimator_call_for_all_eps(tmp_path, monkeypatch, command, ell):
    import doslab.cli as cli_mod

    calls = []
    for name in ("smoothed_dos_curve", "dos_derivative_curve"):
        real = getattr(cli_mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli_mod, name, counted)
    cfgp = toy_config(tmp_path, command, eps_values="0.4, 0.2, 0.1", ell=ell)
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    want = "smoothed_dos_curve" if command == "dos" else "dos_derivative_curve"
    assert calls == [want]
    for j, eps in enumerate((0.4, 0.2, 0.1)):
        rows = (tmp_path / "out" / f"{command}_curve{j}.csv").read_text().splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [-0.5, 0.0, 0.5]
        assert {float(r.split(",")[1]) for r in rows[1:]} == {eps}
        assert {int(r.split(",")[2]) for r in rows[1:]} == {ell}


def test_run_ids_has_zero_epsilon_column(tmp_path):
    cfgp = toy_config(tmp_path, "ids")
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    rows = (tmp_path / "out" / "ids_curve0.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_run_fracmom_uses_distance_abscissa(tmp_path):
    cfgp = toy_config(tmp_path, "fracmom")
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    rows = (tmp_path / "out" / "fracmom_curve0.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
    # moments at growing distance should not grow
    means = [float(r.split(",")[3]) for r in rows]
    assert means[0] > means[-1] > 0.0


@pytest.mark.parametrize("command", ["dos", "telescope", "fracmom", "box-telescope"])
def test_no_command_imports_scipy_sparse(tmp_path, command):
    # fracmom and the box telescope load SuperLU's extension module alone,
    # not the scipy.sparse package around it, and no command loads scipy.linalg
    kind = command.removeprefix("box-")
    extra = {"ell": "1"} if kind == "telescope" else {}
    cfgp = toy_config(tmp_path, kind, n_samples=4, **extra)
    if command == "box-telescope":
        box = Path(cfgp)
        box.write_text(
            box.read_text().replace("half_width = 10", "dimension = 2\nhalf_width = 2")
        )
    script = (
        "import sys\nfrom doslab.cli import run\n"
        f"assert run(None, {cfgp!r}) == 0\n"
        "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules,\n"
        "    'scipy.sparse.linalg._dsolve._superlu' in sys.modules)\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    superlu = command in ("fracmom", "box-telescope")
    assert done.stdout.split()[-3:] == ["False", "False", str(superlu)]


@pytest.mark.parametrize("command", ["dos", "telescope", "fracmom", "verify"])
def test_only_verify_loads_the_verify_module(tmp_path, command):
    # doslab.verify is the largest module; other commands never import it,
    # and verify imports it while preparing, before the timed run.  No
    # command loads multiprocessing: the fork map is os.fork and a pipe.
    # scipy loads concurrent.futures itself, so only a run that loads scipy
    # may hold it
    extra = {"ell": "1"} if command == "telescope" else {}
    cfgp = toy_config(tmp_path, command, n_samples=4, **extra)
    call = (
        f"cli._prepare(cli.ExperimentConfig.from_file({cfgp!r}))"
        if command == "verify"
        else f"assert cli.run(None, {cfgp!r}, out=io.StringIO()) == 0"
    )
    script = (
        f"import io, sys\nfrom doslab import cli\n{call}\n"
        "print('doslab.verify' in sys.modules, 'multiprocessing' in sys.modules,\n"
        "    'concurrent.futures' in sys.modules, 'scipy' in sys.modules)\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    verify_loaded, mp_loaded, futures_loaded, scipy_loaded = done.stdout.split()[-4:]
    assert verify_loaded == str(command == "verify")
    assert mp_loaded == "False"
    assert futures_loaded == "False" or scipy_loaded == "True"


@pytest.mark.parametrize(
    "command",
    [
        "dos", "dos-deriv", "telescope", "fracmom", "verify", "box-telescope",
        "short-telescope", "free-box-telescope",
    ],
)
def test_only_fracmom_loads_scipy_and_all_imports_precede_the_run(tmp_path, command):
    # a module first imported inside _execute is start-up cost counted as
    # compute: numpy.random, numpy.ma (verify's quantile) and SuperLU, which
    # fracmom and the box telescope factor on, all load before it; only those
    # two load scipy at all.  A box without hopping is a chain: its telescope
    # takes the outward sweep and loads no scipy
    extra = {
        "dos-deriv": {"ell": 1},
        # 13 and 6 chain sites in the largest prefix: the outward sweep either way
        "telescope": {"ell": 1, "k_max": 12},
        "short-telescope": {"ell": 1, "k_max": 5},
        "box-telescope": {"ell": 1, "k_max": 8},
        "free-box-telescope": {"ell": 1, "k_max": 8},
    }.get(command, {})
    kind = command.removeprefix("free-").removeprefix("box-").removeprefix("short-")
    cfgp = toy_config(tmp_path, kind, n_samples=4, **extra)
    if command.endswith("box-telescope"):
        box = Path(cfgp)
        box.write_text(
            box.read_text().replace("half_width = 10", "dimension = 2\nhalf_width = 2")
        )
    if command == "free-box-telescope":
        box.write_text(box.read_text().replace("hopping = 1.0", "hopping = 0"))
    script = (
        "import io, sys\nfrom doslab import cli\n"
        "execute, seen = cli._execute, []\n"
        "def wrapped(plan):\n"
        "    before = set(sys.modules)\n"
        "    result = execute(plan)\n"
        "    seen.extend(sorted(set(sys.modules) - before))\n"
        "    return result\n"
        "cli._execute = wrapped\n"
        f"assert cli.run(None, {cfgp!r}, out=io.StringIO()) == 0\n"
        "print('scipy' in sys.modules, seen)\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    loads_scipy = command in ("fracmom", "box-telescope")
    assert done.stdout.strip() == f"{loads_scipy} []"


def test_module_entry_point_runs_without_warnings():
    done = run_python("-W", "error::RuntimeWarning", "-m", "doslab.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_run_telescope_diagnostics(tmp_path):
    cfgp = toy_config(tmp_path, "telescope", n_samples=60)
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    manifest = json.loads((tmp_path / "out" / "telescope.manifest.json").read_text())
    diag = manifest["diagnostics"]["telescope"]
    assert diag["ell"] == 0
    assert len(diag["partial_sums"]) == 4  # K = 2..5
    rows = (tmp_path / "out" / "telescope_curve0.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == [2.0, 3.0, 4.0, 5.0]


def test_run_command_argument_overrides_config(tmp_path):
    cfgp = toy_config(tmp_path, "dos")
    code, _, err = run_quiet("ids", cfgp)
    assert code == 0, err
    outdir = tmp_path / "out"
    assert (outdir / "ids_curve0.csv").exists()
    manifest = RunManifest.from_file(str(outdir / "ids.manifest.json"))
    assert manifest.config.command == "ids"


def test_run_env_var_names_default_directory(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("DOSLAB_OUT", str(target))
    cfgp = write_config(
        tmp_path / "min.ini",
        "[model]\nhalf_width = 6\nhopping = 0.0\n"
        "[run]\ncommand = ids\nenergies = 0.5\nn_samples = 5\n",
    )
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    assert (target / "ids_curve0.csv").exists()


# -- validation exits -------------------------------------------------------------


def test_run_missing_config_exits_2(tmp_path):
    code, _, err = run_quiet(None, str(tmp_path / "nope.ini"))
    assert code == 2
    assert "unreadable config" in err


def test_run_bad_s_exits_2_with_field_path(tmp_path):
    cfgp = write_config(tmp_path / "bad.ini", "[run]\ncommand = dos\ns = 1.5\n")
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert "run.s" in err


def test_run_unknown_command_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "dos")
    code, _, err = run_quiet("sing", cfgp)
    assert code == 2
    assert "run.command" in err


def test_run_unreachable_distance_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "fracmom", distances="40")
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert "run.distances" in err


def test_run_telescope_large_s_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "telescope", s="0.6")
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert "run.s" in err


@pytest.mark.parametrize(
    "key, value", [("energies", "-0.5, 0.0, 0.5"), ("eps_values", "0.3, 0.1")]
)
def test_run_telescope_with_more_than_one_value_exits_2(tmp_path, key, value):
    cfgp = toy_config(tmp_path, "telescope", ell="1", **{key: value})
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert f"run.{key}" in err
    assert not (tmp_path / "out").exists()


def test_run_deriv_order_beyond_smoothness_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "dos-deriv", ell="2")  # p=2 allows ell<=1
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert "run.ell" in err


def test_run_telescope_order_beyond_smoothness_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "telescope", ell="2")  # p=2 allows ell<=1
    code, _, err = run_quiet(None, cfgp)
    assert code == 2
    assert "run.ell" in err


def test_run_deriv_score_variance_guard_exits_2(tmp_path):
    cfgp = toy_config(tmp_path, "dos-deriv", ell="2")
    with open(cfgp) as fh:
        body = fh.read().replace("p = 2", "p = 3")  # smooth enough, too heavy-tailed
    write_config(tmp_path / "p3.ini", body)
    code, _, err = run_quiet(None, str(tmp_path / "p3.ini"))
    assert code == 2
    assert "run.ell" in err
    assert "p >= 2*ell" in err


@pytest.mark.parametrize("command", ["dos-deriv", "telescope"])
def test_run_third_order_needs_p_6(tmp_path, command):
    # the score weights have no order cap of their own: ell = 3 runs where
    # the law is C^3 with p >= 2 ell, and p = 5 fails only the variance guard
    cfgp = toy_config(tmp_path, command, n_samples=8, ell=3)
    with open(cfgp) as fh:
        body = fh.read()
    for p, want in ((6, 0), (5, 2)):
        write_config(tmp_path / f"p{p}.ini", body.replace("p = 2", f"p = {p}"))
        code, _, err = run_quiet(None, str(tmp_path / f"p{p}.ini"))
        assert code == want, err
    assert "run.ell" in err
    assert "p >= 2*ell = 6" in err
    rows = next((tmp_path / "out").glob("*.csv")).read_text().splitlines()[1:]
    assert rows and {r.split(",")[2] for r in rows} == {"3"}


@pytest.mark.parametrize("command", ["dos", "dos-deriv"])
def test_run_beyond_the_certified_transform_exits_2(tmp_path, command):
    # both integrate the probe block's coupling with stieltjes_transform,
    # which is certified to 1e-12 only for p <= 6
    body = Path(toy_config(tmp_path, command, n_samples=4, ell=1)).read_text()

    def run_at(p, cmd=command):
        text = body.replace("p = 2", f"p = {p}").replace(
            f"command = {command}", f"command = {cmd}"
        )
        return run_quiet(None, write_config(tmp_path / f"{cmd}-p{p}.ini", text))

    code, _, err = run_at(7)
    assert code == 2
    assert "disorder.p" in err and "p <= 6" in err
    assert run_at(6)[0] == 0
    # ids takes no transform and keeps every p
    assert run_at(7, "ids")[0] == 0


# -- verify command ---------------------------------------------------------------


def test_run_verify_report(tmp_path, monkeypatch):
    import doslab.cli as cli_mod

    fake = [CheckReport(name="alpha", passed=True, slack=1e-10, statistics={"n": 1})]
    monkeypatch.setattr(cli_mod, "run_default_verification", lambda seed: fake)
    cfgp = write_config(
        tmp_path / "v.ini",
        f"[run]\ncommand = verify\n[output]\ndirectory = {tmp_path}\n",
    )
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report[0]["name"] == "alpha"
    manifest = json.loads((tmp_path / "verify.manifest.json").read_text())
    assert manifest["diagnostics"]["checks"] == {"alpha": True}


def test_run_verify_failure_exits_3_but_keeps_report(tmp_path, monkeypatch):
    import doslab.cli as cli_mod

    fake = [
        CheckReport(name="alpha", passed=True, slack=1e-10),
        CheckReport(name="beta", passed=False, slack=1e-10, witness={"bad": 1.0}),
    ]
    monkeypatch.setattr(cli_mod, "run_default_verification", lambda seed: fake)
    cfgp = write_config(
        tmp_path / "v.ini",
        f"[run]\ncommand = verify\n[output]\ndirectory = {tmp_path}\n",
    )
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "beta" in err
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [c["passed"] for c in report] == [True, False]


def test_reproduce_compares_a_failed_verify_report(tmp_path, monkeypatch):
    import doslab.cli as cli_mod

    def failing(witness):
        return lambda seed: [
            CheckReport(name="alpha", passed=False, slack=1e-10, witness=witness)
        ]

    monkeypatch.setattr(cli_mod, "run_default_verification", failing({"bad": 1.0}))
    cfgp = write_config(
        tmp_path / "v.ini",
        f"[run]\ncommand = verify\n[output]\ndirectory = {tmp_path}\n",
    )
    assert run_quiet(None, cfgp)[0] == 3
    manifest = str(tmp_path / "verify.manifest.json")

    out_buf, err_buf = io.StringIO(), io.StringIO()
    assert reproduce(manifest, out=out_buf, err=err_buf) == 3
    assert "verify_report.json: identical" in out_buf.getvalue()
    assert "alpha" in err_buf.getvalue()

    monkeypatch.setattr(cli_mod, "run_default_verification", failing({"bad": 2.0}))
    err_buf = io.StringIO()
    assert reproduce(manifest, out=io.StringIO(), err=err_buf) == 1
    assert "verify_report.json: first difference at row" in err_buf.getvalue()


def test_non_finite_estimates_exit_3(tmp_path, monkeypatch):
    import doslab.cli as cli_mod
    from doslab.montecarlo import Estimate

    def poisoned(model, n_prefix, energies, eps, mc):
        return [Estimate(float("nan"), 0.0, mc.n_samples, mc.master_seed)] * len(
            energies
        )

    monkeypatch.setattr(cli_mod, "smoothed_dos_curve", poisoned)
    cfgp = toy_config(tmp_path, "dos")
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "non-finite" in err


def test_resolvent_residual_failure_exits_3(tmp_path, monkeypatch):
    import doslab.spectral as spectral

    cfgp = toy_config(tmp_path, "fracmom", n_samples=2)
    assert run_quiet(None, cfgp)[0] == 0
    manifest = str(tmp_path / "out" / "fracmom.manifest.json")
    # a guard no solve can meet: every residual-checked solve now fails
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "residual" in err
    err_buf = io.StringIO()
    assert reproduce(manifest, out=io.StringIO(), err=err_buf) == 3
    assert "residual" in err_buf.getvalue()


def test_a_residual_failure_in_a_forked_span_exits_3(tmp_path, monkeypatch):
    import doslab.montecarlo as montecarlo
    import doslab.spectral as spectral

    cfgp = toy_config(tmp_path, "fracmom", n_samples=4)
    real_draw = montecarlo.draw_disorder

    def draw(model, seed, index):
        # on 2 CPUs samples 2 and 3 run in a forked child, and only there
        # can no solve meet the guard
        if 3 in np.atleast_1d(index):
            monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
        return real_draw(model, seed, index)

    monkeypatch.setattr(montecarlo, "draw_disorder", draw)
    monkeypatch.setattr(montecarlo, "cpu_affinity", lambda: 2)
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "numerical failure: resolvent solve residual" in err
    assert spectral._RESIDUAL_REL_TOL == 1e-10


def test_telescope_residual_failure_exits_3(tmp_path, monkeypatch):
    import doslab.spectral as spectral

    cfgp = toy_config(tmp_path, "telescope", n_samples=2, ell="1")
    assert run_quiet(None, cfgp)[0] == 0
    manifest = str(tmp_path / "out" / "telescope.manifest.json")
    # the nested-volume LU check can no longer pass
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "residual" in err
    err_buf = io.StringIO()
    assert reproduce(manifest, out=io.StringIO(), err=err_buf) == 3
    assert "residual" in err_buf.getvalue()


def test_dos_residual_failure_exits_3(tmp_path, monkeypatch):
    import doslab.spectral as spectral

    cfgp = toy_config(tmp_path, "dos", n_samples=2)
    assert run_quiet(None, cfgp)[0] == 0
    manifest = str(tmp_path / "out" / "dos.manifest.json")
    # the chain's Schur recursion check can no longer pass
    monkeypatch.setattr(spectral, "_RESIDUAL_REL_TOL", -1.0)
    code, _, err = run_quiet(None, cfgp)
    assert code == 3
    assert "residual" in err
    err_buf = io.StringIO()
    assert reproduce(manifest, out=io.StringIO(), err=err_buf) == 3
    assert "residual" in err_buf.getvalue()


# -- reproduce --------------------------------------------------------------------


def test_reproduce_identical(tmp_path):
    cfgp = toy_config(tmp_path, "dos")
    assert run_quiet(None, cfgp)[0] == 0
    out, err = io.StringIO(), io.StringIO()
    code = reproduce(str(tmp_path / "out" / "dos.manifest.json"), out=out, err=err)
    assert code == 0, err.getvalue()
    assert "identical" in out.getvalue()


def test_reproduce_detects_edited_seed(tmp_path):
    cfgp = toy_config(tmp_path, "ids")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "ids.manifest.json"
    payload = json.loads(mpath.read_text())
    payload["config"]["run"]["master_seed"] = "4242"
    mpath.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    code = reproduce(str(mpath), out=out, err=err)
    assert code == 1
    assert "first difference at row" in err.getvalue()


def test_reproduce_names_a_stale_config_hash(tmp_path):
    cfgp = toy_config(tmp_path, "ids")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "ids.manifest.json"
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 0
    assert "config_sha256" not in err.getvalue()
    payload = json.loads(mpath.read_text())
    payload["config"]["run"]["master_seed"] = "4242"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 1
    lines = [line for line in err.getvalue().splitlines() if "config_sha256" in line]
    assert len(lines) == 1 and payload["config_sha256"] in lines[0]


def test_manifest_environment_is_named_on_a_mismatch_only(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfgp = toy_config(tmp_path, "ids")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "ids.manifest.json"
    payload = json.loads(mpath.read_text())
    env = {"python": sys.version.split()[0], "numpy": np.__version__, "cpu_affinity": 3}
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    for lib in loaded_openblas():
        env[f"openblas {lib.name}"] = f"{lib.config} threads={lib.get_threads()}"
    assert payload["environment"] == env
    # the environment takes no part in the byte comparison
    payload["environment"]["numpy"] = "0.0"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 0
    assert "environment" not in err.getvalue()
    # a byte mismatch names the entries that differ from this process
    payload["config"]["run"]["master_seed"] = "4242"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 1
    lines = [line for line in err.getvalue().splitlines() if "environment" in line]
    assert lines == [f"environment: numpy 0.0 at the run, {np.__version__} now"]


def test_manifest_names_each_loaded_openblas_with_its_thread_count(tmp_path):
    # numpy and scipy each bring their own OpenBLAS; a fracmom run loads
    # both, and its manifest names each build with the thread count it has
    # outside the sample spans
    import scipy.sparse.linalg  # noqa: F401

    if len(loaded_openblas()) < 2:
        pytest.skip("numpy and scipy do not load two OpenBLAS libraries here")
    cfgp = toy_config(tmp_path, "fracmom", n_samples=4)
    done = subprocess.run(
        [sys.executable, "-m", "doslab.cli", "run", "--config", cfgp,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(doslab.__file__).parents[1]),
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    mpath = tmp_path / "out" / "fracmom.manifest.json"
    payload = json.loads(mpath.read_text())
    builds = {
        key: value for key, value in payload["environment"].items()
        if key.startswith("openblas ")
    }
    assert sorted(builds) == sorted(f"openblas {lib.name}" for lib in loaded_openblas())
    assert all("OpenBLAS" in v and v.endswith(" threads=1") for v in builds.values())
    # a byte mismatch names the builds whose entry differs from this process
    key = sorted(builds)[0]
    payload["environment"][key] = "OpenBLAS 0.0 threads=7"
    payload["config"]["run"]["master_seed"] = "4242"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 1
    lines = [line for line in err.getvalue().splitlines() if "environment" in line]
    assert len(lines) == 1 and f"{key} OpenBLAS 0.0 threads=7 at the run" in lines[0]


def test_reproduce_rejects_an_environment_that_is_not_a_table(tmp_path):
    cfgp = toy_config(tmp_path, "ids", n_samples=4)
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "ids.manifest.json"
    payload = json.loads(mpath.read_text())
    payload["environment"] = ["numpy"]
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 2
    assert "(manifest)" in err.getvalue()


def test_reproduce_reports_missing_original(tmp_path):
    cfgp = toy_config(tmp_path, "ids")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "ids.manifest.json"
    payload = json.loads(mpath.read_text())
    payload["config"]["run"]["master_seed"] = "4242"
    mpath.write_text(json.dumps(payload))
    (tmp_path / "out" / "ids_curve0.csv").unlink()
    code = reproduce(str(mpath), out=io.StringIO(), err=io.StringIO())
    assert code == 1


def test_reproduce_rejects_garbage_manifest(tmp_path):
    from doslab import __version__

    cfg = ExperimentConfig()
    good = {
        "kind": "doslab-run-manifest",
        "code_version": __version__,
        "config": cfg.to_mapping(),
        "config_sha256": cfg.sha256(),
        "wall_time_s": 0.5,
        "outputs": {},
    }
    as_number = json.loads(json.dumps(good))
    as_number["config"]["run"]["n_samples"] = 5
    garbage = [
        {},
        [],
        {**good, "config": [["run", {"n_samples": "5"}]]},
        as_number,
        {**good, "wall_time_s": "abc"},
    ]
    bad = tmp_path / "bad.json"
    for payload in garbage:
        bad.write_text(json.dumps(payload))
        err = io.StringIO()
        assert reproduce(str(bad), out=io.StringIO(), err=err) == 2, payload
        assert "(manifest)" in err.getvalue()


def test_reproduce_rejects_an_older_code_version(tmp_path):
    from doslab import __version__

    cfgp = toy_config(tmp_path, "dos")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "dos.manifest.json"
    payload = json.loads(mpath.read_text())
    payload["code_version"] = "0.1.0"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 2
    assert "0.1.0" in err.getvalue() and __version__ in err.getvalue()


def test_reproduce_checks_the_version_before_the_config(tmp_path):
    # another version's config may carry keys this version does not know;
    # the version mismatch is the error to report
    from doslab import __version__

    cfgp = toy_config(tmp_path, "dos")
    assert run_quiet(None, cfgp)[0] == 0
    mpath = tmp_path / "out" / "dos.manifest.json"
    payload = json.loads(mpath.read_text())
    payload["code_version"] = "0.5.0"
    payload["config"]["run"]["chunk_size"] = "64"
    mpath.write_text(json.dumps(payload))
    err = io.StringIO()
    assert reproduce(str(mpath), out=io.StringIO(), err=err) == 2
    assert "0.5.0" in err.getvalue() and __version__ in err.getvalue()
    assert "unknown key" not in err.getvalue()


def test_workers_do_not_change_bytes(tmp_path):
    # run.workers is a retired key: accepted at any value, ignored, not written
    curves = []
    runs = {"none": {}, "one": {"workers": 1}, "eight": {"workers": 8}}
    for name, extra in runs.items():
        (tmp_path / name).mkdir()
        cfgp = toy_config(tmp_path / name, "dos-deriv", ell="1", **extra)
        assert run_quiet(None, cfgp)[0] == 0
        out = tmp_path / name / "out"
        curves.append((out / "dos-deriv_curve0.csv").read_bytes())
        manifest = json.loads((out / "dos-deriv.manifest.json").read_text())
        assert "workers" not in manifest["config"]["run"]
    assert curves[1] == curves[0] and curves[2] == curves[0]
    cfg = ExperimentConfig.from_text("[run]\nworkers = 0\n")
    assert cfg == ExperimentConfig()
    assert ExperimentConfig.from_mapping({"run": {"workers": "8"}}) == cfg


def test_formats_is_retired_and_every_run_writes_its_csv(tmp_path):
    # output.formats is accepted at any value, ignored, and not written
    cfgp = toy_config(tmp_path, "dos")
    with open(cfgp, "a") as fh:
        fh.write("formats = json\n")
    code, _, err = run_quiet(None, cfgp)
    assert code == 0, err
    out = tmp_path / "out"
    assert (out / "dos_curve0.csv").exists()
    manifest = json.loads((out / "dos.manifest.json").read_text())
    assert "formats" not in manifest["config"]["output"]
    assert list(manifest["outputs"]) == ["dos_curve0.csv"]
    rout = io.StringIO()
    assert reproduce(str(out / "dos.manifest.json"), out=rout, err=io.StringIO()) == 0
    assert "dos_curve0.csv: identical" in rout.getvalue()


# -- argv entry point -------------------------------------------------------------


def test_main_run_and_reproduce(tmp_path, capsys):
    cfgp = toy_config(tmp_path, "ids")
    assert main(["run", "--config", cfgp]) == 0
    capsys.readouterr()
    assert main(["reproduce", str(tmp_path / "out" / "ids.manifest.json")]) == 0
    assert "identical" in capsys.readouterr().out


def test_unknown_flag_is_named_before_anything_runs(tmp_path, capsys):
    cfgp = toy_config(tmp_path, "ids")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfgp, "--bogus", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "--bogus" in err
    assert not (tmp_path / "out").exists()


def test_main_unknown_command_names_the_config_field(tmp_path, capsys):
    cfgp = toy_config(tmp_path, "ids")
    assert main(["run", "bogus", "--config", cfgp]) == 2
    assert "run.command" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_workers_flag_is_gone(tmp_path, capsys):
    cfgp = toy_config(tmp_path, "ids")
    with pytest.raises(SystemExit) as exc:
        main(["run", "ids", "--config", cfgp, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
