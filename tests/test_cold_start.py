"""Importing the package and running the simulation paths loads no scipy:
scipy is imported only by the quadrature fallback of the Lyapunov value
and by the dither-coupling probe."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
import nonovershoot, nonovershoot.cli
from nonovershoot import (Scenario, deviation_study, demo_gains, example_lyapunov_spec,
                          example_system, run_scenario)
from nonovershoot.sim import DEFAULT_PSI_SCALE
plant, gains = example_system(), demo_gains()
run_scenario(plant, "es", gains, Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3))
spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
deviation_study(plant, spec, gains, Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3),
                [60.0, 240.0])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_and_simulation_load_no_scipy():
    done = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
