import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import reluphase

# Every module but __main__, whose import would run the CLI.
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(reluphase.__path__, "reluphase.")
    if info.name != "reluphase.__main__"
)


def test_package_exports_resolve():
    missing = [name for name in reluphase.__all__ if not hasattr(reluphase, name)]
    assert missing == []
    assert len(set(reluphase.__all__)) == len(reluphase.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_star_import():
    namespace = {}
    exec("from reluphase import *", namespace)
    assert set(reluphase.__all__) <= set(namespace)


# One small config per command; the guard below runs each in a fresh interpreter.
TINY_CONFIGS = {
    "train": {"width": 6, "max_iters": 20},
    "sweep-width": {"widths": [6], "inits": ["random"], "runs": 1, "max_iters": 20},
    "sweep-angle": {"angles": [1.5], "runs": 1, "max_iters": 20},
    "norm-hist": {"runs": 2, "bins": 2, "max_iters": 20, "width": 6},
    "gc-prob": {"cells": [[2, 3]], "trials": 100},
    "trace-dynamics": {"snapshots": [0, 5], "max_iters": 10, "rho_samples": 16},
    "landscape-audit": {"width": 6, "samples_per_class": 10, "audit_runs": 1, "max_iters": 20, "pairs": 5},
}

_GUARD = """
import json, os, sys
import reluphase, reluphase.cli
from reluphase.experiments import COMMANDS, run_command
configs, out = json.loads(sys.argv[1]), sys.argv[2]
assert sorted(configs) == sorted(COMMANDS), sorted(COMMANDS)
for name, cfg in configs.items():
    run_command(name, cfg, os.path.join(out, name))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_run_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(reluphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD, json.dumps(TINY_CONFIGS), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_network_and_process_modules_out():
    # Every command pays for the library's imports; these only cost time.
    code = "import sys, reluphase.experiments, reluphase.cli; print(sorted(m for m in {} if m in sys.modules))"
    unwanted = ["urllib.request", "ssl", "http.client", "email", "concurrent.futures.process"]
    src = os.path.dirname(os.path.dirname(reluphase.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code.format(unwanted)], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
