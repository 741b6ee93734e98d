"""Golden SHA-256 digests of the demo experiments' CSVs.

The runs are those of ``scripts/run_demo_experiments.py`` at a short
horizon (1 s instead of 50 s, and the deviation study over 0.25 s instead
of 10 s), so a change to the simulator that moves any recorded float by
one bit fails here, not only in the 50 s script's digests.  The averaged
system's samples, which the study reduces to one maximum per frequency,
are pinned as well, and so is each 1 s run's report (its CSV row and
max |u|), with one run whose h1 rises above the ceiling's constant part
so that its report reads the envelope.  The digests hold for IEEE doubles with the libm
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
from dataclasses import replace

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


REPORT_DIGESTS = {
    "tracking_es": "641a428c12e3402525d1641820e00d5a2e4df1f8a5d283c7d622f1f707ac0ad3",
    "tracking_comparator": "19cf6aa74572fe9c3f5262b00d0d119d02d65ad747fbd47f2648f8868e0de1d1",
    "safety_safe": "4304b2d76a942b5556d52dcffb5f7eb5c0f3eb33fb2ef54a4352dbd823dc96d4",
    "safety_unsafe": "df343f760d814099ae820575c77c326ec480f59dcbee4f0c2205d7392332658f",
    "envelope_es": "5b53d88bdd5e9a0d8063481690b8704223edac335b8aa29cec45378cb5affdce",
}


def _run(name):
    """(trajectory, report) of one of the 1 s demo runs, or of envelope_es:
    es at kappa_n = 10 over 3 s with delta_est = 0, whose h1 passes the
    ceiling's constant part 1/(kappa_n c1 c2) from t = 1.263 s on."""
    system, gains = example_system(), demo_gains()
    tracking = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    if name == "tracking_es":
        return run_scenario(system, "es", gains, tracking)
    if name == "tracking_comparator":
        return run_scenario(system, "nussbaum", gains, tracking, theta0=0.0)
    if name.startswith("safety_"):
        x0 = (-0.45, 0.0) if name == "safety_safe" else (0.2, 0.0)
        sc = Scenario(x0=x0, t_end=1.0, dt=1e-3)
        return run_scenario(system, "safety-filter", gains, sc)
    sc = Scenario(x0=(-0.5, 0.0), t_end=3.0, dt=1e-3)
    return run_scenario(system, "es", replace(gains, kappa=10.0), sc, delta_est=0.0)


def _csv(name):
    system, gains = example_system(), demo_gains()
    spec = example_lyapunov_spec(system, gains, scale=DEFAULT_PSI_SCALE)
    study = Scenario(x0=(-0.5, 0.0), t_end=0.25, dt=1e-3)
    if name in REPORT_DIGESTS:
        return _run(name)[0].to_csv()
    if name == "deviation_study":
        return deviation_study(system, spec, gains, study, [60.0, 240.0, 960.0]).to_csv()
    rows = simulate_averaged(system, spec, gains, study).tolist()
    return "".join(",".join(map(fmt, row)) + "\n" for row in rows)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_csv_digest(name):
    assert hashlib.sha256(_csv(name).encode()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_demo_report_digest(name):
    report = _run(name)[1]
    text = report.csv_row() + "\n" + repr(report.max_abs_u)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name]


def test_the_envelope_run_violates_its_ceiling():
    # the pin above then covers the samples at which the ceiling is evaluated
    assert _run("envelope_es")[1].envelope_violation > 0
