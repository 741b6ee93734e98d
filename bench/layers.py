"""Per-layer microbenchmarks: the cost of one call into each module's
public functions, timed from outside.

Synthesis and the textbook laws are swept over the state dimension n on
the random polynomial plants.  Each (function, n) pair gets the same time
budget; the number of calls follows from the cost of the first call, with
at least MIN_SAMPLES samples, so n=6 fits without shrinking the sweep.
Cheap calls are timed in batches so that one sample lasts about SAMPLE_S.
"""

import math
import statistics
import time
from collections import Counter

import numpy as np

from workloads import PSI_SCALE, poly_gains, poly_plant

_now = time.perf_counter

BUDGET_S = 0.05        # per (function, n) pair
SAMPLE_S = 2e-3
MIN_SAMPLES = 3
MAX_SAMPLES = 50

SYNTH_NS = range(1, 7)
LAW_NS = range(1, 6)
RUN_T_END = 0.3        # horizon of the per-step run_scenario samples
RUN_STARTS = (("es", (-0.5, 0.0)), ("nussbaum", (-0.5, 0.0)),
              ("nominal", (-0.5, 0.0)), ("safety-filter", (-0.45, 0.0)))
AVG_T_END = 0.1


def per_call_s(fn, budget_s=BUDGET_S):
    """Median seconds per call of fn()."""
    start = _now()
    fn()
    first = _now() - start
    batch = 1 if first >= SAMPLE_S else math.ceil(SAMPLE_S / max(first, 1e-9))
    samples = [first] if batch == 1 else []
    target = min(MAX_SAMPLES, max(MIN_SAMPLES, int(budget_s / (batch * max(first, 1e-9)))))
    while len(samples) < target:
        t0 = _now()
        for _ in range(batch):
            fn()
        samples.append((_now() - t0) / batch)
    return statistics.median(samples)


def measure(nn, seed):
    """Return {metric: (value, unit)} for every microbenchmarked function,
    and per layer the seconds of one call of each of its functions (the
    sum of their per-call medians)."""
    out, layer_s = {}, Counter()
    rng = np.random.default_rng([seed, 3])
    ref = nn.SineReference()

    def us(metric, layer, fn, budget_s=BUDGET_S, scale=1e6, unit="us"):
        secs = per_call_s(fn, budget_s)
        layer_s[layer] += secs
        out[metric] = (secs * scale, unit)

    for n in SYNTH_NS:
        plant, gains = poly_plant(nn, n, seed), poly_gains(nn, n, seed, descending=False)
        x = rng.uniform(-0.5, 0.5, size=n)
        ys = ref.stack(rng.uniform(0.0, 10.0), n)
        us(f"synth.error_coords_us.n{n}", "synth",
           lambda: nn.error_coords(plant, x, ys, gains))
        us(f"synth.error_drift_us.n{n}", "synth",
           lambda: nn.error_drift(plant, x, ys, gains))
        if n in LAW_NS:
            us(f"synth.virtual_controllers_us.n{n}", "synth",
               lambda: nn.virtual_controllers(plant, x, ys, gains))
            us(f"control.nominal_backstepping_us.n{n}", "control",
               lambda: nn.nominal_backstepping(plant, x, ys, gains))
            us(f"control.nussbaum_control_us.n{n}", "control",
               lambda: nn.nussbaum_control(plant, x, ys, gains, nn.NussbaumState(0.3)))
        if n == 2:
            h = nn.error_coords(plant, x, ys, gains)
            us("synth.state_from_errors_us.n2", "synth",
               lambda: nn.state_from_errors(plant, h, ys, gains))
            x_below = np.array([ys[0] - 0.5, 0.1])
            us("synth.gain_floors_us.n2", "synth",
               lambda: nn.gain_floors(plant, x_below, ys, gains))
    for name, ns in (("error_coords", SYNTH_NS), ("error_drift", SYNTH_NS),
                     ("virtual_controllers", LAW_NS)):
        for n in list(ns)[1:]:
            ratio = out[f"synth.{name}_us.n{n}"][0] / out[f"synth.{name}_us.n{n - 1}"][0]
            out[f"synth.{name}_ratio.n{n}"] = (ratio, "x")

    sysd, gains = nn.example_system(), nn.demo_gains()
    spec = nn.example_lyapunov_spec(sysd, gains, scale=PSI_SCALE)
    t, x = 0.7, np.array([-0.3, 0.1])
    ys = ref.stack(t, 2)
    h = nn.error_coords(sysd, x, ys, gains)
    us("model.reference_stack_us", "model", lambda: nn.reference_stack(ref, t, 2))
    us("model.eval_dynamics_us", "model", lambda: nn.eval_dynamics(sysd, x, 0.5))
    us("control.lyapunov_value_us", "control", lambda: nn.lyapunov_value(spec, h))
    us("control.es_control_us", "control", lambda: nn.es_control(spec, gains, t, h))
    us("control.safety_filter_us", "control",
       lambda: nn.safety_filter(t, x[0], ys[0] - x[0], 0.1, 0.2, nn.SafetySwitch()))

    def es_rhs(tt, xx):
        hh = nn.error_coords(sysd, xx, ref.stack(tt, 2), gains)
        return nn.eval_dynamics(sysd, xx, nn.es_control(spec, gains, tt, hh))

    us("sim.rk4_step_us", "sim", lambda: nn.rk4_step(es_rhs, t, x, 1e-3))

    steps = int(round(RUN_T_END / 1e-3))
    for controller, x0 in RUN_STARTS:
        sc = nn.Scenario(x0=x0, t_end=RUN_T_END, dt=1e-3, reference=ref)
        us(f"sim.run_scenario_us_per_step.{controller}", "sim",
           lambda: nn.run_scenario(sysd, controller, gains, sc, lyap_spec=spec),
           budget_s=3 * BUDGET_S, scale=1e6 / steps)
    sc = nn.Scenario(x0=RUN_STARTS[0][1], t_end=RUN_T_END, dt=1e-3, reference=ref)
    traj = nn.run_scenario(sysd, "es", gains, sc, lyap_spec=spec)[0]
    us("sim.to_csv_us_per_row", "sim", traj.to_csv, scale=1e6 / len(traj.t))
    bounds = nn.bound_report(gains, "descending")
    us("sim.overshoot_report_us", "sim",
       lambda: nn.overshoot_report(traj, gains, bounds, 0.1))

    us("averaging.averaged_rhs_us", "averaging",
       lambda: nn.averaged_rhs(sysd, spec, gains, ref, t, h))
    sc = nn.Scenario(x0=(-0.5, 0.0), t_end=AVG_T_END, dt=1e-3, reference=ref)
    us("averaging.simulate_averaged_us_per_step", "averaging",
       lambda: nn.simulate_averaged(sysd, spec, gains, sc),
       scale=1e6 / int(round(AVG_T_END / 1e-3)))
    us("averaging.dither_coupling_ms", "averaging",
       lambda: nn.dither_coupling(math.cos, math.sin, 2 * math.pi), scale=1e3, unit="ms")
    return out, layer_s


def sweep_lines(metrics):
    """One line per n-swept function: cost at each n and the ratio to n-1."""
    lines = []
    for name in ("synth.error_coords", "synth.error_drift", "synth.virtual_controllers",
                 "control.nominal_backstepping", "control.nussbaum_control"):
        cells, prev = [], None
        for n in SYNTH_NS:
            key = f"{name}_us.n{n}"
            if key not in metrics:
                continue
            val = metrics[key][0]
            cells.append(f"n{n} {val:.4g}" + (f" (x{val / prev:.1f})" if prev else ""))
            prev = val
        lines.append(f"  {name}_us: " + " | ".join(cells))
    return lines
