"""Public names and import footprint of the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kdvhl


@pytest.mark.parametrize("name", ["kdvhl"] + [
    f"kdvhl.{m}" for m in ("config", "datagen", "diagnostics", "discretization", "oracle",
                           "solver", "weights")])
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing


def test_cli_import_loads_only_scipy_sparse_and_linalg():
    # every CLI call pays for what `import kdvhl.cli` loads; kdvhl needs only
    # scipy.sparse (operators, factorization) and scipy.linalg.blas (band
    # solves), so it may add no scipy subpackage beyond what those two load
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(kdvhl.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    code = ("import sys, scipy.sparse.linalg, scipy.linalg.blas; base = set(sys.modules); "
            "import kdvhl.cli; print(' '.join(set(sys.modules) - base))")
    added = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True).stdout.split())
    assert "kdvhl.cli" in added
    heavy = {f"scipy.{m}" for m in ("integrate", "interpolate", "optimize", "special", "spatial")}
    assert not heavy & added, sorted(heavy & added)
