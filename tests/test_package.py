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
               "scipy.linalg._fblas", "scipy.fft._pocketfft.pypocketfft")


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this kdvhl."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(kdvhl.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


_ORACLE_MINI = """experiment = oracle-compare
grid.L = 40.0
grid.n = 201
time.dt = 0.05
time.T = 0.2
oracle.P = 120.0
oracle.m = 256
oracle.x_left = -30.0
oracle.x_star = 20.0
oracle.cfl = 0.4
oracle.kind = soliton
oracle.center = 12.0
"""


def test_cli_import_loads_no_scipy_package(tmp_path):
    # every CLI call pays for what kdvhl loads; kdvhl runs four compiled scipy
    # kernels (CSR products, SuperLU, BLAS dtbsv, pocketfft) and loads their
    # modules from file, so no scipy package __init__ may run, on import or in
    # a run (an oracle march included), and numpy.fft is never imported; the
    # import loads three, and pocketfft waits for the first march
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text(_ORACLE_MINI)
    on_import, after_run = _fresh_python(
        "import sys\nfrom kdvhl.cli import main\n"
        "print(' '.join(sys.modules))\n"
        f"rc = main(['oracle-compare', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
        "print(rc, ' '.join(sys.modules))").splitlines()
    rc, *loaded = after_run.split()
    assert rc == "0"
    for mods, exts in ((set(on_import.split()), _SCIPY_EXTS[:3]), (set(loaded), _SCIPY_EXTS)):
        assert {"kdvhl.cli", "kdvhl.oracle"} <= mods
        assert {m for m in mods if m.split(".")[0] == "scipy"} == set(exts)
        assert not {"scipy", "scipy.sparse", "scipy.linalg", "scipy.fft", "numpy.fft"} & mods


# one run of every kernel through kdvhl: an operator product, a factorization and
# its solve (two dtbsv calls), a short whole-line march (r2c and c2r) and a
# restriction of its last two spectra to 150 points (c2c, two blocks), hashed so
# that equal output is equal bits; then whether a scipy package was imported, and
# whether the modules kdvhl holds are the ones a normal import of scipy's packages gives
_KERNEL_RUN = """
import hashlib, importlib, importlib.machinery, sys
import numpy as np
if {fallback}:
    importlib.machinery.EXTENSION_SUFFIXES[:] = []  # no file found: the normal import
from kdvhl import discretization, oracle, solver
g = discretization.Grid1D(30.0, 601)
x = np.sin(g.nodes)
out = [discretization.deriv_matrix(g, 3) @ x, solver._System(g, 0.0125, 0.5).lu.solve(x)]
per = oracle.PeriodicGrid(40.0, 128, -20.0)
u0 = np.exp(-per.nodes ** 2)
oracle.wholeline_march(u0, per, oracle.wholeline_times(u0, per, 0.05, 0.5),
                       observers=[lambda step, t, uhat: out.append(uhat.copy())])
out.append(oracle.spectral_restriction(np.array(out[-2:]), per, -5.0, 0.1, 150))
print(hashlib.sha256(b"".join(v.tobytes() for v in out)).hexdigest())
print("scipy.sparse" in sys.modules)
pocketfft = discretization._scipy_ext("scipy.fft._pocketfft.pypocketfft")  # the march's
import scipy.fft, scipy.linalg.blas, scipy.sparse.linalg
print(discretization._sparsetools is importlib.import_module("scipy.sparse._sparsetools")
      and solver._superlu is importlib.import_module("scipy.sparse.linalg._dsolve._superlu")
      and solver._dtbsv is scipy.linalg.blas.dtbsv
      and pocketfft is importlib.import_module("scipy.fft._pocketfft.pypocketfft"))
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
