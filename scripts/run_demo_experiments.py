#!/usr/bin/env python3
"""Run the four demo experiments end to end and drop CSVs into results/.

1. Nonovershooting tracking from below the reference.
2. Contrast against the oscillatory-gain comparator on the same scenario.
3. Safety-filtered regulation from a safe and an unsafe start.
4. Full-vs-averaged deviation study over three dither frequencies.
"""

import argparse
import time
from pathlib import Path

from nonovershoot import (Scenario, deviation_study, example_lyapunov_spec,
                          example_system, demo_gains, run_scenario)
from nonovershoot.sim import DEFAULT_PSI_SCALE


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

    def save(name, text):
        path = args.outdir / name
        path.write_text(text)
        print(f"  -> {path}")

    print("[1/4] tracking from below (seeking controller)")
    t0 = time.perf_counter()
    traj, rep = run_scenario(system, "es", gains, tracking)
    print(f"  max(x1-yr) = {rep.max_h1:.4f}, tail |h1| = {rep.tail_abs_h1:.4f}, "
          f"max|u| = {rep.max_abs_u:.1f}  ({time.perf_counter() - t0:.1f}s)")
    save("tracking_es.csv", traj.to_csv())

    print("[2/4] oscillatory-gain comparator on the same scenario")
    trajn, repn = run_scenario(system, "nussbaum", gains, tracking, theta0=0.0)
    for tag, r in (("comparator", repn), ("seeking law", rep)):
        print(f"  {tag}: max(x1-yr) = {r.max_h1:.4f} at t = {r.t_at_max:.3f}s, "
              f"ceiling violation = {r.envelope_violation:.4f}")
    save("tracking_comparator.csv", trajn.to_csv())

    print("[3/4] safety-filtered regulation (safe and unsafe starts)")
    for tag, x0 in (("safe", (-0.45, 0.0)), ("unsafe", (0.2, 0.0))):
        sc = Scenario(x0=x0, t_end=args.t_end, dt=args.dt)
        trajs, reps = run_scenario(system, "safety-filter", gains, sc)
        print(f"  {tag} start {x0}: min margin = {reps.min_margin:.4f}")
        save(f"safety_{tag}.csv", trajs.to_csv())

    print("[4/4] full-vs-averaged deviation study")
    spec = example_lyapunov_spec(system, gains, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=10.0, dt=args.dt)
    study = deviation_study(system, spec, gains, sc, [60.0, 240.0, 960.0])
    for om, dev in zip(study.omegas, study.deviations):
        print(f"  omega={om:g}: max |h - h_avg| = {dev:.4f}")
    save("deviation_study.csv", study.to_csv())


if __name__ == "__main__":
    main()
