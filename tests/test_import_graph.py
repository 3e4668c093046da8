"""Importing latentaxes loads no scipy module. scipy is only the tests'
reference: importing scipy.special alone adds about 25 MiB of resident
memory and 0.3 s to every command (2-vCPU x86-64 host)."""

import os
import subprocess
import sys
from pathlib import Path

import latentaxes

IMPORT_ALL = """
import importlib, pkgutil, sys
import latentaxes
for module in pkgutil.iter_modules(latentaxes.__path__):
    importlib.import_module("latentaxes." + module.name)
print(" ".join(sorted(sys.modules)))
"""


def test_no_latentaxes_module_loads_scipy():
    src = str(Path(latentaxes.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "latentaxes.cli" in loaded and "latentaxes.training" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
