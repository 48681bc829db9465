"""Public names: everything the package and its modules export must exist."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["kdvhl"] + [
    f"kdvhl.{m}" for m in ("config", "datagen", "diagnostics", "discretization", "oracle",
                           "solver", "weights")])
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
