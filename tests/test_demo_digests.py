"""Golden SHA-256 digests of the demo experiments' CSVs.

The runs are those of ``scripts/run_demo_experiments.py`` at a short
horizon (1 s instead of 50 s, and the deviation study over 0.25 s instead
of 10 s), so a change to the simulator that moves any recorded float by
one bit fails here, not only in the 50 s script's digests.  The averaged
system's samples, which the study reduces to one maximum per frequency,
are pinned as well.  The digests hold for IEEE doubles with the libm
whose fingerprint (``native.libm_fingerprint()``, which
``scripts/run_demo_experiments.py`` prints first) is

    e886b419314d6bfe5b2d005f7adfb6892a09926b34d63bdf4fdc6b7fc688fa12

(glibc 2.36 on x86-64 with FMA); a libm with another fingerprint may
change last bits and then these digests.  The compiled and the Python
loop give the same bytes on one host, so the pins hold whichever path a
run takes.  No pinned digest depends on a BLAS routine: every |h| is
``math.fsum`` of squares (``control._norm``).
"""

import hashlib

import pytest

from nonovershoot import (Scenario, demo_gains, deviation_study, example_lyapunov_spec,
                          example_system, run_scenario, simulate_averaged)
from nonovershoot.sim import DEFAULT_PSI_SCALE, fmt

DIGESTS = {
    "tracking_es": "59c978e5f133e45b128089fe2f1137371342b193ea53f6795e5f62514ea5343a",
    "tracking_comparator": "97f9f06a808351295eef35cec9d7824c1a1afc380eb358325c3ddf6f4abb5cf2",
    "safety_safe": "d7f1a48076015cddd82664e06ad4af90bd416be1edc00b7aa3d181027cc03093",
    "safety_unsafe": "677fbdda490874fed16ac2938a4a3152eca836f42dbb93801a67901526204850",
    "deviation_study": "bad60495a878ebd947101064047556c75307561b6db2530915b6b7086300c580",
    "averaged": "d5ed0fba9495f95c160daadedb57d6124a3d903a298ce0dc015985c315ed16d7",
}


def _csv(name):
    system, gains = example_system(), demo_gains()
    spec = example_lyapunov_spec(system, gains, scale=DEFAULT_PSI_SCALE)
    tracking = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    study = Scenario(x0=(-0.5, 0.0), t_end=0.25, dt=1e-3)
    if name == "tracking_es":
        return run_scenario(system, "es", gains, tracking)[0].to_csv()
    if name == "tracking_comparator":
        return run_scenario(system, "nussbaum", gains, tracking, theta0=0.0)[0].to_csv()
    if name.startswith("safety_"):
        x0 = (-0.45, 0.0) if name == "safety_safe" else (0.2, 0.0)
        sc = Scenario(x0=x0, t_end=1.0, dt=1e-3)
        return run_scenario(system, "safety-filter", gains, sc)[0].to_csv()
    if name == "deviation_study":
        return deviation_study(system, spec, gains, study, [60.0, 240.0, 960.0]).to_csv()
    rows = simulate_averaged(system, spec, gains, study).tolist()
    return "".join(",".join(map(fmt, row)) + "\n" for row in rows)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_csv_digest(name):
    assert hashlib.sha256(_csv(name).encode()).hexdigest() == DIGESTS[name]
