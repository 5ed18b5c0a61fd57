import importlib

import pytest

MODULES = ["operators", "spins", "sequences", "control", "aht", "experiments", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_exports_every_name_in_all(name):
    module = importlib.import_module(f"spinweave.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from spinweave.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
