#!/usr/bin/env python3
"""Run the four demo experiments end to end and drop CSVs into results/.

1. Nonovershooting tracking from below the reference.
2. Contrast against the oscillatory-gain comparator on the same scenario.
3. Safety-filtered regulation from a safe and an unsafe start.
4. Full-vs-averaged deviation study over three dither frequencies.

The libm fingerprint (``native.libm_fingerprint``) comes first: the
digests below hold on hosts that print the same one.  Each CSV's SHA-256
digest is printed after its path, with the time its one ``to_csv`` call
took and, for a trajectory, the path that call took (``to_csv: compiled``
or ``to_csv: python``), and each run's path after its summary.  The
digest of the averaged system's samples over the study's 10 s follows,
then those of the demo plant's generated run loop sources (the four
controllers, the safety filter's once more with a sine nominal
reference, and the averaged system), each Python text's and beside it
its C text's ("python only" where the loop has no C form), so that two
versions of the simulator can be compared for byte-identical output and
byte-identical loops with one command.
"""

import argparse
import hashlib
import math
import time
from pathlib import Path

from nonovershoot import (Scenario, SystemModel, averaging, deviation_study,
                          example_lyapunov_spec, example_system, demo_gains, native, run_scenario,
                          sim, simulate_averaged)
from nonovershoot.sim import DEFAULT_PSI_SCALE, fmt


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def paths(since):
    """The paths of the runs logged after the first since (``native.PATHS``)."""
    return ", ".join(f"{loop}: {path}" for loop, path in list(native.PATHS)[since:])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--t-end", type=float, default=50.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    system = example_system()
    gains = demo_gains()
    tracking = Scenario(x0=(-0.5, 0.0), t_end=args.t_end, dt=args.dt)
    print(f"libm fingerprint: sha256 {native.libm_fingerprint()}")

    def save(name, to_csv):
        logged = len(native.PATHS)
        t0 = time.perf_counter()
        text = to_csv()
        render_s = time.perf_counter() - t0
        rendered = f" ({paths(logged)})" if len(native.PATHS) > logged else ""
        path = args.outdir / name
        path.write_text(text)
        print(f"  -> {path}")
        print(f"     sha256 {sha256(text)}  rendered in {render_s * 1e3:.1f} ms{rendered}")

    print("[1/4] tracking from below (seeking controller)")
    t0 = time.perf_counter()
    traj, rep = run_scenario(system, "es", gains, tracking)
    print(f"  max(x1-yr) = {rep.max_h1:.4f}, tail |h1| = {rep.tail_abs_h1:.4f}, "
          f"max|u| = {rep.max_abs_u:.1f}  ({time.perf_counter() - t0:.1f}s)")
    print(f"  path: {paths(-1)}")
    save("tracking_es.csv", traj.to_csv)

    print("[2/4] oscillatory-gain comparator on the same scenario")
    trajn, repn = run_scenario(system, "nussbaum", gains, tracking, theta0=0.0)
    print(f"  path: {paths(-1)}")
    for tag, r in (("comparator", repn), ("seeking law", rep)):
        print(f"  {tag}: max(x1-yr) = {r.max_h1:.4f} at t = {r.t_at_max:.3f}s, "
              f"ceiling violation = {r.envelope_violation:.4f}")
    save("tracking_comparator.csv", trajn.to_csv)

    print("[3/4] safety-filtered regulation (safe and unsafe starts)")
    for tag, x0 in (("safe", (-0.45, 0.0)), ("unsafe", (0.2, 0.0))):
        sc = Scenario(x0=x0, t_end=args.t_end, dt=args.dt)
        trajs, reps = run_scenario(system, "safety-filter", gains, sc)
        print(f"  {tag} start {x0}: min margin = {reps.min_margin:.4f} (path: {paths(-1)})")
        save(f"safety_{tag}.csv", trajs.to_csv)

    print("[4/4] full-vs-averaged deviation study")
    spec = example_lyapunov_spec(system, gains, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=10.0, dt=args.dt)
    logged = len(native.PATHS)
    study = deviation_study(system, spec, gains, sc, [60.0, 240.0, 960.0])
    print(f"  paths: {paths(logged)}")
    for om, dev in zip(study.omegas, study.deviations):
        print(f"  omega={om:g}: max |h - h_avg| = {dev:.4f}")
    save("deviation_study.csv", study.to_csv)
    # the study keeps one maximum per frequency; the averaged samples
    # themselves, in the rows of tests/test_demo_digests.py
    rows = simulate_averaged(system, spec, gains, sc).tolist()
    text = "".join(",".join(map(fmt, row)) + "\n" for row in rows)
    print(f"  averaged samples: sha256 {sha256(text)} (path: {paths(-1)})")

    # the same plant with math.sin in its gain, which does not trace: its
    # loops call the gain at every node instead of writing it out
    called = SystemModel(n=2, drift=system.drift, xi1=system.xi1, name=system.name,
                         gain=lambda xs: 0.2 * math.sin(xs[1]) + 1.2)
    def digests(emit):
        """The digest of emit(sim.Python), the Python text, and of the C text."""
        c_loop = native.c_source(emit)
        return (f"sha256 {sha256(emit(sim.Python))}, C "
                + (f"sha256 {sha256(c_loop)}" if c_loop else "python only"))

    for plant, what in ((system, "the demo plant, as the runs above build them"),
                        (called, "the demo plant with a called (math.sin) gain")):
        print(f"generated loop sources of {what}")
        for controller in sim.CONTROLLERS:     # on sine04, the filter's nominal on constant:0
            ncoef = len(spec._value_coeffs) if controller in sim.DITHERED else None
            print(f"  {controller}: " + digests(lambda lang: sim._step_source(
                plant, controller, ncoef, "sine", "constant", lang)))
        print("  safety-filter, sine nominal: " + digests(lambda lang: sim._step_source(
            plant, "safety-filter", len(spec._value_coeffs), "sine", "sine", lang)))
        print("  averaged: " + digests(lambda lang: averaging._averaged_source(
            plant, len(spec._weight_coeffs), "sine", lang)))


if __name__ == "__main__":
    main()
