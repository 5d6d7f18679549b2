"""The package's public surface: ``geopost.__all__``."""

import geopost


def test_every_exported_name_resolves_once():
    names = geopost.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(geopost, n)] == []
    namespace = {}
    exec("from geopost import *", namespace)
    assert set(names) <= set(namespace)
