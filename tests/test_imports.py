"""The import path and the public surface.

scipy loads only where a matrix exponential is needed, every exported name
resolves on its home module, and the README's python example runs.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Every scan kind, analyze, the sampler, the per-state analysis and the numeric
# metric densities, at tiny sizes; then the positive control, random_symplectic,
# which must load scipy.
_SCRIPT = r"""
import contextlib, io, sys, tempfile, warnings
from pathlib import Path

import numpy as np
import gaussgeom
from gaussgeom import cli, core, correlations, measures, typicality

def loaded():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

with tempfile.TemporaryDirectory() as tmp:
    out = str(Path(tmp) / "scan.csv")
    codes = [
        run("scan", "purity-plane", "--grid", "4", "--out", out),
        run("scan", "purity-cut", "--grid", "4", "--out", out),
        run("scan", "energy-curves", "--E", "5", "--mu-grid", "2", "--evals", "50", "--out", out),
        run("scan", "pure-endpoint", "--E", "2.1,3", "--out", out),
    ]
    path = Path(tmp) / "state.txt"
    core.write_covmat(path, core.two_mode_squeezed(0.5))
    codes.append(run("analyze", str(path)))
assert codes == [0] * 5, codes

states = typicality.sample_energy_constrained(0.5, 5.0, 8, seed=1)
for sigma in states:
    nu = core.symplectic_spectrum(sigma)
    assert core.is_bona_fide(sigma)
    coords, _ = core.invariants(sigma)
    core.standard_form(sigma)
    correlations.log_negativity(coords)
    correlations.steerability(coords)
    measures.density_ratio(measures.HILBERT_SCHMIDT, measures.FISHER_RAO, nu)
measures.numeric_metric_density([1.2, 2.1], measures.FISHER_RAO)
measures.numeric_metric_density([1.2, 2.1], measures.HILBERT_SCHMIDT)
measures.numeric_std_form_density(core.StdForm(2.0, 1.5, 0.8, -0.3))
assert loaded() == [], loaded()

core.random_symplectic(2, np.random.default_rng(0))
assert "scipy.linalg" in loaded(), loaded()
print("ok")
"""


def test_library_and_cli_paths_do_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_import_builds_no_argument_parser():
    script = (
        "import gaussgeom\n"
        "from gaussgeom import cli\n"
        "assert cli._build_parser.cache_info().currsize == 0\n"
        "assert cli.main(['scan', 'purity-cut', '--grid', '2', '--out', '-']) == 0\n"
        "assert cli._build_parser.cache_info().currsize == 1\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


_MODULES = ("core", "measures", "correlations", "typicality", "mcint")


def test_every_all_name_resolves_and_every_reexport_is_listed():
    import gaussgeom

    for name in _MODULES:
        module = importlib.import_module(f"gaussgeom.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)
    tree = ast.parse(Path(gaussgeom.__file__).read_text())
    reexports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in reexports} == set(_MODULES)
    for node in reexports:
        listed = importlib.import_module(f"gaussgeom.{node.module}").__all__
        unlisted = [a.name for a in node.names if a.name not in listed]
        assert unlisted == [], (node.module, unlisted)


def test_readme_python_example_runs():
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "README has no python example"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
