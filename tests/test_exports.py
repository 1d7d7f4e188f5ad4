"""The package exports only what it has, under the version it declares."""

from pathlib import Path

import pytest

import doslab


def test_every_exported_name_resolves():
    missing = [name for name in doslab.__all__ if not hasattr(doslab, name)]
    assert missing == []
    assert len(set(doslab.__all__)) == len(doslab.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from doslab import *", namespace)
    assert set(doslab.__all__) <= set(namespace)


def test_version_matches_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["version"] == doslab.__version__
