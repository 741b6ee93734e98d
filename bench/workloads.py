"""Workload inputs and the operations each workload runs.

A workload is a list of operations built once from the seed (this is the
set-up that ``setup_s`` measures).  A pass runs the list as a closed loop:
each operation starts when the previous one returns.  Every operation is
one call into the public API, looked up when it is made so that a traced
pass can swap in spans; its output is checked afterwards, outside the
timed call.

Seed ``DEFAULT_SEED`` gives the canonical inputs (the demo's own initial
states); its outputs are compared with the values in ``expected.json``.
Other seeds jitter the initial states, or pick other random plants, with
the same amount of work per run.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks

DEFAULT_SEED = 0

PSI_SCALE = 0.0025      # softened Lyapunov envelope used by the demo runs
DT = 1e-3
THETA0 = 0.0            # comparator adaptation start
X0_JITTER = 0.02        # half-width of the seeded initial-state jitter

# Horizons are short so that every timed call lasts at most about 0.15 s
# on an undisturbed processor.  A run reports each call's shortest time over
# many passes, and on a shared host a short call is far more likely than a
# long one to run through without interference; the work per step is the
# same as on the demo's 50 s horizon.
DEMO_T_END = 1.0
DEMO_RUNS = (           # (label, controller, canonical x0)
    ("es", "es", (-0.5, 0.0)),
    ("comparator", "nussbaum", (-0.5, 0.0)),
    ("nominal", "nominal", (-0.5, 0.0)),
    ("safety.safe", "safety-filter", (-0.45, 0.0)),
    ("safety.unsafe", "safety-filter", (0.2, 0.0)),
)

HIGHDIM_NS = (3, 4)
HIGHDIM_T_END = 0.01
HIGHDIM_H0 = -0.1       # initial output error; higher error coordinates start near 0
HIGHDIM_H0_JITTER = 0.02

GRID_T_END = 1.0
GRID_DEVIATION_T_END = 0.25
GRID_SWEEPS = (("kappa_n", (1.1, 3.0, 10.0)), ("omega", (60.0, 240.0)))
GRID_OMEGAS = (60.0, 240.0, 960.0)

WORKLOADS = ("demo_suite", "highdim_poly", "grid_study")


@dataclass
class Op:
    """One timed call.  ``call`` receives the outputs of the earlier
    operations of the same pass, keyed by label."""

    label: str
    call: Callable[[dict], object]
    steps: int                                  # RK4 steps (full + averaged) it completes
    check: Callable[[object, dict], list]       # -> failure messages
    fingerprint: Callable[[object], str]        # must repeat exactly between passes
    observe: Optional[Callable[[object], dict]] = None  # values kept in expected.json


class Plain:
    """Instrumentation that leaves plants and references untouched."""

    @staticmethod
    def plant(sysm):
        return sysm

    @staticmethod
    def reference(ref):
        return ref


def nsteps(t_end, dt):
    return int(round(t_end / dt))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _jitter(seed, shape):
    if seed == DEFAULT_SEED:
        return np.zeros(shape)
    rng = np.random.default_rng([seed, 1])
    return rng.uniform(-X0_JITTER, X0_JITTER, size=shape)


# --- random polynomial plants --------------------------------------------------

def poly_plant(nn, n, seed):
    """Strict-feedback plant with random low-order polynomial drift.

    The same family, seed for seed, as ``random_poly_system`` in the test
    suite, rebuilt here so that the benchmark does not depend on test code.
    """
    rng = np.random.default_rng(seed)

    def make_drift(i):
        lin = rng.uniform(-1.0, 1.0, size=i + 1)
        quad = rng.uniform(-0.5, 0.5, size=i + 1)

        def drift(xs, lin=lin, quad=quad):
            acc = 0.0
            for j in range(len(lin)):
                acc = acc + lin[j] * xs[j] + quad[j] * xs[j] * xs[j]
            return acc

        return drift

    a, b = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
    return nn.SystemModel(
        n=n,
        drift=tuple(make_drift(i) for i in range(n)),
        gain=lambda xs: a * math.sin(xs[-1]) + b,
        xi1=(b - abs(a)) ** 2,
        name=f"poly{n}s{seed}",
    )


def poly_gains(nn, n, seed, descending=True):
    """Random gains of the test suite's ``random_gains`` family."""
    rng = np.random.default_rng(seed + 10_000)
    c = rng.uniform(1.2, 4.0, size=n)
    if descending:
        c = sorted(c, reverse=True)
    return nn.GainConfig(c=tuple(c), kappa=rng.uniform(0.5, 3.0), lam=4.0,
                         beta=0.8, omega=60.0)


# --- operations -------------------------------------------------------------------

def _run_fingerprint(out):
    traj, rep = out
    return _digest(traj.t, traj.x, traj.h, traj.u, traj.yr, traj.margin,
                   traj.mode) + rep.csv_row()


def _run_observe(out):
    rep = out[1]
    return {"max_h1": rep.max_h1, "tail_abs_h1": rep.tail_abs_h1,
            "min_H": rep.min_margin}


def run_op(label, nn, sysm, controller, gains, scenario, spec=None,
           nominal_ref=None):
    options = {"lyap_spec": spec, "theta0": THETA0}
    if nominal_ref is not None:
        options["nominal_reference"] = nominal_ref

    def call(outs):
        return nn.run_scenario(sysm, controller, gains, scenario, **options)

    def check(out, outs):
        traj, rep = out
        return checks.run_output(nn, sysm, controller, gains, scenario, spec,
                                 nominal_ref, THETA0, traj, rep)

    return Op(label, call, nsteps(scenario.t_end, scenario.dt), check,
              _run_fingerprint, _run_observe)


def csv_op(run_label):
    def call(outs):
        return outs[run_label][0].to_csv()

    def check(text, outs):
        return checks.csv_output(outs[run_label][0], text)

    return Op(run_label + ".csv", call, 0, check,
              lambda text: hashlib.sha256(text.encode()).hexdigest())


def demo_suite(seed, nn, instr=Plain):
    """The demo plant under every controller, each trajectory rendered."""
    sysm = instr.plant(nn.example_system())
    gains = nn.demo_gains()
    ref = instr.reference(nn.SineReference())
    nominal_ref = instr.reference(nn.ConstantReference(0.0))
    spec = nn.example_lyapunov_spec(sysm, gains, scale=PSI_SCALE)
    jitter = _jitter(seed, (len(DEMO_RUNS), 2))
    ops = []
    for (label, controller, x0), dx in zip(DEMO_RUNS, jitter):
        sc = nn.Scenario(x0=tuple(np.add(x0, dx)), t_end=DEMO_T_END, dt=DT,
                         reference=ref)
        ops.append(run_op(label, nn, sysm, controller, gains, sc, spec, nominal_ref))
        ops.append(csv_op(label))
    return ops


def highdim_poly(seed, nn, instr=Plain):
    """Nominal law and comparator on random polynomial plants at n=3, 4.

    Initial states are built from small error coordinates (output error
    near HIGHDIM_H0, the others near 0) so the comparator's transient
    stays inside the floating-point range on every plant.
    """
    ref = instr.reference(nn.SineReference())
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in HIGHDIM_NS:
        plant = poly_plant(nn, n, seed)
        gains = poly_gains(nn, n, seed)
        h0 = np.concatenate([[HIGHDIM_H0], np.zeros(n - 1)]) \
            + rng.uniform(-HIGHDIM_H0_JITTER, HIGHDIM_H0_JITTER, size=n)
        x0 = nn.state_from_errors(plant, h0, ref.stack(0.0, n), gains)
        sc = nn.Scenario(x0=tuple(x0), t_end=HIGHDIM_T_END, dt=DT, reference=ref)
        plant = instr.plant(plant)
        for controller in ("nominal", "nussbaum"):
            ops.append(run_op(f"n{n}.{controller}", nn, plant, controller, gains, sc))
    return ops


def _sweep_observe(result):
    out = {}
    for report, _, overrides in result.rows:
        label = ";".join(f"{k}={v:g}" for k, v in overrides.items())
        out[label + ".max_h1"] = report.max_h1
        out[label + ".tail_abs_h1"] = report.tail_abs_h1
        out[label + ".min_H"] = report.min_margin
    return out


def grid_study(seed, nn, instr=Plain):
    """Criterion-9 sweep, then the full-vs-averaged deviation study."""
    sysm = instr.plant(nn.example_system())
    gains = nn.demo_gains()
    ref = instr.reference(nn.SineReference())
    spec = nn.example_lyapunov_spec(sysm, gains, scale=PSI_SCALE)
    x0 = tuple(np.add((-0.5, 0.0), _jitter(seed, 2)))
    sweep_sc = nn.Scenario(x0=x0, t_end=GRID_T_END, dt=DT, reference=ref)
    dev_sc = nn.Scenario(x0=x0, t_end=GRID_DEVIATION_T_END, dt=DT, reference=ref)
    ops = []
    for key, values in GRID_SWEEPS:
        grid = {key: list(values)}
        omegas = values if key == "omega" else (gains.omega,) * len(values)
        steps = sum(nsteps(GRID_T_END, nn.refine_dt(DT, om)) for om in omegas)

        def call(outs, grid=grid):
            return nn.sweep(sysm, "es", gains, sweep_sc, grid)

        def check(result, outs, grid=grid):
            return checks.sweep_output(result, grid, outs)

        ops.append(Op(f"sweep.{key}", call, steps, check,
                      lambda result: result.to_csv(), _sweep_observe))

    def deviation(outs):
        return nn.deviation_study(sysm, spec, gains, dev_sc, list(GRID_OMEGAS))

    steps = nsteps(GRID_DEVIATION_T_END, DT) + sum(
        nsteps(GRID_DEVIATION_T_END, nn.refine_dt(DT, om)) for om in GRID_OMEGAS)
    ops.append(Op("deviation", deviation, steps,
                  lambda study, outs: checks.deviation_output(study, GRID_OMEGAS),
                  lambda study: study.to_csv(),
                  lambda study: {f"omega={om:g}": d for om, d in
                                 zip(study.omegas, study.deviations)}))
    return ops


OPERATIONS = {"demo_suite": demo_suite, "highdim_poly": highdim_poly,
              "grid_study": grid_study}
