import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports the package, then each of its modules, and prints the first
# module after whose import scipy is loaded, or "clean" and the number of
# modules imported.
PROBE = """
import importlib, pkgutil, sys
import cvwerner
names = ["cvwerner"] + [f"cvwerner.{m.name}" for m in pkgutil.iter_modules(cvwerner.__path__)]
for name in names:
    importlib.import_module(name)
    if any(m.split(".")[0] == "scipy" for m in sys.modules):
        print(name)
        break
else:
    print("clean", len(names))
"""


def test_importing_the_package_does_not_load_scipy():
    # scipy takes several tenths of a second to import; only the functions
    # that diagonalize a matrix load it, when first called.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    modules = [p for p in (ROOT / "src" / "cvwerner").glob("*.py") if p.name != "__init__.py"]
    assert done.stdout.split() == ["clean", str(1 + len(modules))]
