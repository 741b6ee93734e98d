"""Importing the package and running its paths loads no scipy, which is
a test dependency only: no module under ``src/`` imports it.  Importing
the package and building a run's inputs starts no child process and
loads no library: ``subprocess`` and ``ctypes`` are imported where a
compiled loop is first built (``native``), not at a module's top, and
``hashlib`` (with its OpenSSL module) where a cache entry is named,
checked or built, so a run too short to build its loop loads neither
``hashlib`` nor ``subprocess`` (numpy imports ``ctypes`` itself).  The
CSV kernel is built by the same rule, so rendering a short trajectory
does neither."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import math, sys
import nonovershoot, nonovershoot.cli
from nonovershoot import (Scenario, averaged_rhs, deviation_study, demo_gains, dither_coupling,
                          example_lyapunov_spec, example_system, lyapunov_value,
                          run_scenario, sweep)
from nonovershoot.sim import CONTROLLERS, DEFAULT_PSI_SCALE
plant, gains = example_system(), demo_gains()
sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
for controller in CONTROLLERS:
    run_scenario(plant, controller, gains, sc)
sweep(plant, "es", gains, sc, {"kappa_n": [1.1, 3.0]})
spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
lyapunov_value(spec, [0.3, -0.7])
averaged_rhs(plant, spec, gains, "sine04", 0.0, [-0.5, 0.4])
deviation_study(plant, spec, gains, sc, [60.0, 240.0])
dither_coupling(math.cos, math.sin, 2 * math.pi)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_simulation_load_no_scipy():
    done = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_module_under_src_imports_scipy():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [v for v in names if v.split(".")[0] == "scipy"], path


def test_native_does_not_import_sim():
    # the compiled loops and the CSV kernel read no simulator code: the
    # dialects and the record layout reach them as arguments
    for node in ast.walk(ast.parse((SRC / "nonovershoot" / "native.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        else:
            continue
        assert not [v for v in names if "sim" in v.split(".")], names


SETUP = """
import sys
import numpy                # which imports ctypes itself
events = []
sys.addaudithook(lambda event, args: events.append(event) if event in (
    "subprocess.Popen", "os.posix_spawn", "os.fork", "os.forkpty", "os.exec", "os.system",
    "ctypes.dlopen", "ctypes.dlsym") else None)
import nonovershoot
from nonovershoot import (Scenario, demo_gains, example_lyapunov_spec, example_system,
                          SineReference)
plant, gains = example_system(), demo_gains()
spec = example_lyapunov_spec(plant, gains, scale=0.0025)
sc = Scenario(x0=(-0.5, 0.0), t_end=50.0, dt=1e-3, reference=SineReference())
print(sorted(set(events)), "subprocess" in sys.modules)
"""


def test_setting_up_a_run_starts_no_process_and_loads_no_library():
    done = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False"


RENDER = """
import sys
import numpy as np          # which imports ctypes itself
events = []
sys.addaudithook(lambda event, args: events.append(event) if event in (
    "subprocess.Popen", "os.posix_spawn", "os.fork", "os.forkpty", "os.exec", "os.system",
    "ctypes.dlopen", "ctypes.dlsym") else None)
from nonovershoot import native
from nonovershoot.sim import Trajectory
t = np.arange(10) * 1e-3
traj = Trajectory(t=t, x=np.column_stack([t, -t]), h=np.column_stack([t, t]), u=t, yr=t,
                  margin=t, mode=np.zeros(10, np.int8))
assert len(traj.to_csv().splitlines()) == 11
print(sorted(set(events)), native.PATHS[-1],
      sorted({"_hashlib", "hashlib", "subprocess"} & set(sys.modules)))
"""


def test_rendering_a_short_csv_starts_no_process_and_loads_no_library():
    # a 10-row trajectory is far below the kernel's build threshold: the
    # row loop writes it, and nothing names, builds or loads a cache entry
    done = subprocess.run([sys.executable, "-c", RENDER], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] ('to_csv', 'python') []"


def test_no_module_under_src_imports_ctypes_or_subprocess_at_its_top():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [v for v in names if v.split(".")[0] in ("ctypes", "subprocess")], path


SHORT_RUN = """
import sys
import nonovershoot
from nonovershoot import Scenario, demo_gains, example_system, native, run_scenario
run_scenario(example_system(), "es", demo_gains(), Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3))
print(native.PATHS[-1][1], sorted({"_hashlib", "hashlib", "subprocess"} & set(sys.modules)))
"""


def test_a_run_below_the_compile_threshold_loads_no_hashlib():
    # a 1 s demo run, 1000 steps, stays in Python: nothing names a cache entry
    done = subprocess.run([sys.executable, "-c", SHORT_RUN], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "python []"
