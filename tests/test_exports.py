"""The package's export list names only what the package has."""

import doslab


def test_every_exported_name_resolves():
    missing = [name for name in doslab.__all__ if not hasattr(doslab, name)]
    assert missing == []
    assert len(set(doslab.__all__)) == len(doslab.__all__)


def test_star_import_binds_the_export_list():
    namespace: dict = {}
    exec("from doslab import *", namespace)
    assert set(doslab.__all__) <= set(namespace)
