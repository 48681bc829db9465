"""Public names and import footprint of the package."""

import importlib
import os
import re
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


_SCIPY_EXTS = ("scipy.sparse._sparsetools", "scipy.sparse.linalg._dsolve._superlu",
               "scipy.linalg._fblas")


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this kdvhl."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(kdvhl.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy_package():
    # every CLI call pays for what `import kdvhl.cli` loads; kdvhl runs three
    # compiled scipy kernels (CSR products, SuperLU, BLAS dtbsv) and loads their
    # modules from file, so no scipy package __init__ may run
    loaded = set(_fresh_python("import sys, kdvhl.cli; print(' '.join(sys.modules))").split())
    assert "kdvhl.cli" in loaded
    assert {m for m in loaded if m.split(".")[0] == "scipy"} <= set(_SCIPY_EXTS)
    assert not {"scipy", "scipy.sparse", "scipy.linalg"} & loaded


# one run of every kernel through kdvhl: an operator product, a factorization and
# its solve (two dtbsv calls), hashed so that equal output is equal bits; then
# whether a scipy package was imported, and whether the modules kdvhl holds are
# the ones a normal import of scipy's packages gives
_KERNEL_RUN = """
import hashlib, importlib, importlib.machinery, sys
import numpy as np
if {fallback}:
    importlib.machinery.EXTENSION_SUFFIXES[:] = []  # no file found: the normal import
from kdvhl import discretization, solver
g = discretization.Grid1D(30.0, 601)
x = np.sin(g.nodes)
out = [discretization.deriv_matrix(g, 3) @ x, solver._System(g, 0.0125, 0.5).lu.solve(x)]
print(hashlib.sha256(b"".join(v.tobytes() for v in out)).hexdigest())
print("scipy.sparse" in sys.modules)
import scipy.linalg.blas, scipy.sparse.linalg
print(discretization._sparsetools is importlib.import_module("scipy.sparse._sparsetools")
      and solver._superlu is importlib.import_module("scipy.sparse.linalg._dsolve._superlu")
      and solver._dtbsv is scipy.linalg.blas.dtbsv)
"""


def test_file_loaded_kernels_are_the_normally_imported_modules():
    # the loader's file path and its fallback (no extension file under scipy) give
    # the same bits, and the file-loaded modules are the ones scipy itself uses
    direct = _fresh_python(_KERNEL_RUN.format(fallback=False)).split()
    fallback = _fresh_python(_KERNEL_RUN.format(fallback=True)).split()
    assert direct[0] == fallback[0]
    assert (direct[1], fallback[1]) == ("False", "True")
    assert direct[2] == fallback[2] == "True"


def test_readme_library_session_runs():
    # the README's Python block is run as written, so a deleted or renamed
    # public name fails here instead of in a reader's session
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
