import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports the package, then each of its modules, then takes the spectrum of
# a two-mode state, its reduced one-mode array and a plain array.  Prints
# the first step after which scipy is loaded, or "clean" and the number of
# modules.
PROBE = """
import importlib, pkgutil, sys
import numpy as np
import cvwerner

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

names = ["cvwerner"] + [f"cvwerner.{m.name}" for m in pkgutil.iter_modules(cvwerner.__path__)]
for name in names:
    importlib.import_module(name)
    if scipy_loaded():
        print(name)
        break
else:
    from cvwerner import fock, states
    rho = states.werner(states.WernerParams(0.5, 0.5, 0.5), 6)
    for m in (rho, fock.partial_trace(rho, "A"), np.diag([0.75, 0.25])):
        fock.eig_spectrum(m)
    print("eig_spectrum" if scipy_loaded() else "clean", len(names))
"""

# With scipy made unimportable, the same spectra and the acceptance battery.
BLOCKED = """
import sys
sys.modules["scipy"] = None
import numpy as np
import cvwerner
from cvwerner import acceptance, fock, states
rho = states.werner(states.WernerParams(0.5, 0.5, 0.5), 6)
for m in (rho, fock.partial_trace(rho, "A"), np.diag([0.75, 0.25])):
    fock.eig_spectrum(m)
results = acceptance.run_all()
print(sum(r.passed for r in results), len(results), *(r.name for r in results if not r.passed))
"""


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_package_does_not_load_scipy():
    # numpy is the package's only runtime dependency: neither importing it
    # nor diagonalizing a matrix loads scipy.
    modules = [p for p in (ROOT / "src" / "cvwerner").glob("*.py") if p.name != "__init__.py"]
    assert _run(PROBE) == ["clean", str(1 + len(modules))]


def test_package_runs_without_scipy():
    # The one expected failure is the documented low-squeezing-ratio-pi.
    assert _run(BLOCKED) == ["9", "10", "low-squeezing-ratio-pi"]
