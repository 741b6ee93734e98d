"""Acceptance gate: the ten exit criteria, each at its stated tolerance.

Every criterion prints one PASS/FAIL line (visible under ``pytest -s`` or
in the captured output of a failing run).  Shared simulations live in
module-scoped fixtures so the gate stays fast.
"""

import math
import time

import numpy as np
import pytest

from nonovershoot import (Scenario, demo_gains, deviation_study, dither_coupling,
                          example_lyapunov_spec, gain_floors, get_reference,
                          lyapunov_grad_last, lyapunov_value, run_scenario,
                          simulate_averaged, sweep, virtual_controllers)
from nonovershoot.averaging import averaged_rhs
from nonovershoot.sim import DEFAULT_DELTA_EST, DEFAULT_PSI_SCALE

from conftest import random_gains, random_poly_system

GAINS = demo_gains()
TRACKING_SCENARIO = Scenario(x0=(-0.5, 0.0), t_end=50.0, dt=1e-3)
D1_CORE = 1.3484
D2_CORE = 0.30303


def criterion(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tracking_run(demo):
    t0 = time.perf_counter()
    traj, rep = run_scenario(demo, "es", GAINS, TRACKING_SCENARIO)
    return traj, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def halved_step_run(demo):
    sc = Scenario(x0=(-0.5, 0.0), t_end=50.0, dt=5e-4)
    _, rep = run_scenario(demo, "es", GAINS, sc)
    return rep


@pytest.fixture(scope="module")
def nussbaum_run(demo):
    _, rep = run_scenario(demo, "nussbaum", GAINS, TRACKING_SCENARIO, theta0=0.0)
    return rep


@pytest.fixture(scope="module")
def unsafe_run(demo):
    sc = Scenario(x0=(0.2, 0.0), t_end=50.0, dt=1e-3)
    return run_scenario(demo, "es", GAINS, sc)


@pytest.fixture(scope="module")
def safety_runs(demo):
    out = {}
    for x0 in ((-0.45, 0.0), (0.2, 0.0)):
        sc = Scenario(x0=x0, t_end=50.0, dt=1e-3)
        out[x0] = run_scenario(demo, "safety-filter", GAINS, sc)
    return out


@pytest.fixture(scope="module")
def study(demo):
    spec = example_lyapunov_spec(demo, GAINS, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=10.0, dt=1e-3)
    return deviation_study(demo, spec, GAINS, sc, [60.0, 240.0, 960.0])


def test_criterion_1_demo_scenario_nonovershooting(demo, tracking_run):
    _, rep, wall = tracking_run
    ok = rep.max_h1 <= 0.45 and wall < 10.0
    criterion(1, ok, f"demo scenario max(x1-yr) = {rep.max_h1:.5f} <= 0.45, "
                     f"runtime {wall:.2f}s < 10s")


def test_criterion_2_ultimate_residual(demo, tracking_run):
    _, rep, _ = tracking_run
    guaranteed = D1_CORE + rep.delta_est
    ok = rep.tail_abs_h1 <= guaranteed and rep.tail_abs_h1 <= 0.5
    criterion(2, ok, f"tail |h1| over [40,50] = {rep.tail_abs_h1:.5f} "
                     f"<= {guaranteed:.4f} and <= 0.5")


def test_criterion_3_averaged_guub(demo, gains):
    cert = example_lyapunov_spec(demo, GAINS, scale=1.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=50.0, dt=1e-3)
    out = simulate_averaged(demo, cert, GAINS, sc, h0=[-0.5, -0.6])
    t = np.arange(len(out)) * sc.dt
    tail = np.linalg.norm(out[t >= 40.0], axis=1)
    bound = math.sqrt(1.0 / (1.1 * 0.5)) + 0.01
    limsup = float(np.max(tail))
    level = 1.0 / (2 * GAINS.kappa * (GAINS.c_min - 1.0))
    ref = get_reference("sine04")
    w = 0.5 * np.sum(out * out, axis=1)
    above = np.nonzero(w > 1.01 * level)[0]
    decrease_ok = True
    for k in above:
        dw = float(out[k] @ averaged_rhs(demo, cert, GAINS, ref, t[k], out[k]))
        decrease_ok = decrease_ok and dw < 0.0
    ok = limsup <= bound and decrease_ok
    criterion(3, ok, f"averaged limsup |h| = {limsup:.5f} <= {bound:.4f}; "
                     f"dW/dt < 0 above 1.01x residual level at "
                     f"{len(above)}/{len(w)} samples where it applies")


def test_criterion_4_averaging_convergence(study):
    d = study.deviations
    ok = (not any(study.blowups)
          and all(d[i + 1] <= 1.05 * d[i] for i in range(2))
          and d[2] <= 0.5 * d[0])
    criterion(4, ok, "deviations at omega {60,240,960} = "
                     f"({d[0]:.4f}, {d[1]:.4f}, {d[2]:.4f}): non-increasing "
                     f"within 5%, ratio {d[2] / d[0]:.3f} <= 0.5")


def test_criterion_5_envelope_unsafe_init(unsafe_run):
    traj, rep = unsafe_run
    env = (D2_CORE + rep.delta_est + 0.2 * np.exp(-2.0 * traj.t)
           + 1.6 * np.exp(-1.5 * traj.t) + 0.1)
    excess = float(np.max(traj.h[:, 0] - env))
    ok = excess <= 0.0
    criterion(5, ok, f"h1(t) under descending-gain envelope at every sample "
                     f"(worst margin {-excess:.5f})")


def test_criterion_6_nussbaum_contrast(nussbaum_run, tracking_run):
    """On the same scenario the comparator breaks the transient overshoot
    ceiling overshoot_core + delta + sum w_i |h_i(0)| e^{-c_i t}, which the
    seeking law stays under.  NaN violations (no ceiling) fail."""
    _, es_rep, _ = tracking_run
    ok = (es_rep.envelope_violation == 0.0
          and nussbaum_run.envelope_violation > 0.0
          and nussbaum_run.max_h1 > es_rep.max_h1)
    criterion(6, ok, f"ceiling violation: seeking law "
                     f"{es_rep.envelope_violation:.4f} (needs 0), comparator "
                     f"{nussbaum_run.envelope_violation:.4f} (needs > 0); "
                     f"max(x1-yr): comparator {nussbaum_run.max_h1:.4f} at "
                     f"t={nussbaum_run.t_at_max:.3f}s > seeking law "
                     f"{es_rep.max_h1:.4f} at t={es_rep.t_at_max:.3f}s")


def test_criterion_7_safety_filter(safety_runs):
    floor = -(D2_CORE + DEFAULT_DELTA_EST + 0.1)
    ok, details = True, []
    for x0, (traj, rep) in safety_runs.items():
        mode_ok = bool(np.all((traj.margin >= 0) == (traj.mode == 0)))
        nominal_late = (traj.mode == 0) & (traj.t >= 30.0)
        reg = float(np.max(np.abs(traj.x[nominal_late, 0])))
        ok = ok and rep.min_margin >= floor and mode_ok and reg <= 0.1
        details.append(f"x0={x0}: min_H={rep.min_margin:.4f}>={floor:.4f}, "
                       f"mode-consistent={mode_ok}, late nominal |x1|={reg:.4f}<=0.1")
    criterion(7, ok, "; ".join(details))


def test_criterion_8_synthesis_oracles(demo):
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for n in (2, 3, 4):
        sys = demo if n == 2 else random_poly_system(n, seed=77 + n)
        g = GAINS if n == 2 else random_gains(n, seed=77 + n)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=n)
            ys = get_reference("sine04").stack(rng.uniform(0, 10), n)
            stack = virtual_controllers(sys, x, ys, g)
            eps = 1e-6
            for i, (_, dx, dy) in enumerate(stack, start=1):
                for k in range(i):
                    for arr, vec, slot in (((x, dx, k)), ((ys, dy, k))):
                        up, dn = np.array(arr, float), np.array(arr, float)
                        up[slot] += eps
                        dn[slot] -= eps
                        if arr is x:
                            f1 = virtual_controllers(sys, up, ys, g)[i - 1][0]
                            f2 = virtual_controllers(sys, dn, ys, g)[i - 1][0]
                        else:
                            f1 = virtual_controllers(sys, x, up, g)[i - 1][0]
                            f2 = virtual_controllers(sys, x, dn, g)[i - 1][0]
                        fd = (f1 - f2) / (2 * eps)
                        rel = abs(vec[slot] - fd) / max(1.0, abs(fd))
                        worst_rel = max(worst_rel, rel)
    partials_ok = worst_rel <= 1e-6

    spec = example_lyapunov_spec(demo, GAINS)
    worst_grad = 0.0
    for _ in range(100):
        h = rng.uniform(-2, 2, size=2)
        eps = 1e-6
        hp, hm = h.copy(), h.copy()
        hp[-1] += eps
        hm[-1] -= eps
        fd = (lyapunov_value(spec, hp) - lyapunov_value(spec, hm)) / (2 * eps)
        worst_grad = max(worst_grad, abs(lyapunov_grad_last(spec, h) - fd)
                         / max(1.0, abs(fd)))
    grad_ok = worst_grad <= 1e-5

    floors = gain_floors(demo, [-0.5, 0.0], get_reference("sine04").stack(0.0, 2), GAINS)
    floor_ok = abs(floors[0] - 0.8) <= 1e-12

    v = dither_coupling(math.cos, math.sin, 2 * math.pi)
    v_ok = abs(v - 0.5) <= 1e-9

    ok = partials_ok and grad_ok and floor_ok and v_ok
    criterion(8, ok, f"stage partials vs FD worst rel {worst_rel:.2e} <= 1e-6; "
                     f"value gradient worst rel {worst_grad:.2e} <= 1e-5; "
                     f"gain floor = {floors[0]!r} (0.8 exact); "
                     f"coupling(cos,sin) = {v:.12f}")


def test_criterion_9_sweep_monotonicity(demo):
    sc = Scenario(x0=(-0.5, 0.0), t_end=50.0, dt=1e-3)
    kappa_rows = sweep(demo, "es", GAINS, sc, {"kappa_n": [1.1, 3.0, 10.0]}).rows
    omega_rows = sweep(demo, "es", GAINS, sc, {"omega": [60.0, 240.0]}).rows
    kmax = [r.max_h1 for r, _, _ in kappa_rows]
    ktail = [r.tail_abs_h1 for r, _, _ in kappa_rows]
    omax = [r.max_h1 for r, _, _ in omega_rows]
    otail = [r.tail_abs_h1 for r, _, _ in omega_rows]

    def noninc(seq):
        return all(seq[i + 1] <= 1.10 * seq[i] for i in range(len(seq) - 1))

    ok = noninc(kmax) and noninc(ktail) and noninc(omax) and noninc(otail)
    criterion(9, ok, f"kappa sweep max_h1 {[f'{v:.4f}' for v in kmax]}, "
                     f"tail {[f'{v:.4f}' for v in ktail]}; omega sweep max_h1 "
                     f"{[f'{v:.4f}' for v in omax]}, tail {[f'{v:.4f}' for v in otail]} "
                     f"all non-increasing within 10%")


def test_criterion_10_determinism_and_convergence(demo, tracking_run, halved_step_run):
    traj, rep, _ = tracking_run
    traj2, rep2 = run_scenario(demo, "es", GAINS, TRACKING_SCENARIO)
    identical = traj.to_csv() == traj2.to_csv() and rep.csv_row() == rep2.csv_row()
    change = abs(halved_step_run.max_h1 - rep.max_h1) / rep.max_h1
    ok = identical and change < 0.01
    criterion(10, ok, f"bit-identical rerun = {identical}; step-halving changes "
                      f"max_h1 by {100 * change:.4f}% < 1%")
