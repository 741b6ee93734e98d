#!/usr/bin/env python3
"""Time what a run costs outside its steps, and per step.

    python3 scripts/run_cost.py

For es on the demo plant (its compiled loop) and for the nominal law and
the comparator on the benchmark's random polynomial plant at n = 3 and 4
(seed 0, Python loop), it times ``run_scenario`` over 1 step and over 11
steps, each the min of 7 timeit repeats, and derives the cost per step,
(T11 - T1) / 10, and the fixed cost, T1 less one step: what a run spends
in its checks, its set-up and its report.
"""

import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import nonovershoot as nn                                   # noqa: E402
from nonovershoot import native                             # noqa: E402
from workloads import HIGHDIM_H0, PSI_SCALE, poly_gains, poly_plant  # noqa: E402

NUMBER = 200        # runs per timeit repeat


def cases():
    """(label, path, run(nsteps)) of each timed run; the scenarios are built
    beforehand, so that a run's time is run_scenario's alone."""
    demo, gains = nn.example_system(), nn.demo_gains()
    spec = nn.example_lyapunov_spec(demo, gains, scale=PSI_SCALE)
    sc = {k: nn.Scenario(x0=(-0.5, 0.0), t_end=k * 1e-3, dt=1e-3) for k in (1, 11)}
    yield "demo es", "compiled", lambda k, sc=sc: nn.run_scenario(demo, "es", gains, sc[k],
                                                                  lyap_spec=spec)
    ref = nn.SineReference()
    for n in (3, 4):
        plant, g = poly_plant(nn, n, 0), poly_gains(nn, n, 0)
        x0 = tuple(nn.state_from_errors(plant, [HIGHDIM_H0] + [0.0] * (n - 1),
                                        ref.stack(0.0, n), g))
        sc = {k: nn.Scenario(x0=x0, t_end=k * 1e-3, dt=1e-3) for k in (1, 11)}
        for law in ("nominal", "nussbaum"):
            yield f"n={n} {law}", "python", \
                lambda k, p=plant, g=g, sc=sc, law=law: nn.run_scenario(p, law, g, sc[k])


def main():
    for label, path, run in cases():
        with native.forced(path):
            run(1), run(11)             # trace the tapes and load the loop first
            t1, t11 = (min(timeit.repeat(lambda k=k: run(k), number=NUMBER, repeat=7))
                       / NUMBER * 1e6 for k in (1, 11))
        step = (t11 - t1) / 10
        print(f"{label} ({path}): 1 step {t1:.1f} us, 11 steps {t11:.1f} us; "
              f"per step {step:.2f} us, fixed {t1 - step:.1f} us")


if __name__ == "__main__":
    main()
