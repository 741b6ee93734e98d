"""Averaged error dynamics and trajectory-closeness studies.

The dithered loop in error coordinates averages (as the dither frequency
grows) to the cascade

    dhbar_i/dt = -c_i hbar_i + hbar_{i+1}            i < n
    dhbar_n/dt = drift(xbar) - coef * gain(xbar)^2 * weight(|hbar|) * hbar_n

where xbar is the state reconstructed from hbar, |hbar| is the |h| of the
seeking law's V (``control._norm``) and coef defaults to lam*beta.
Applying the generic coupling integral to the cos/sin dither pair
instead yields lam*beta/2; both variants are exposed (``halved``) and the
coupling integral itself is available as an independent probe.
The averaged system runs on the closed loop's generated-loop emitter and
driver (``sim.Python.source``, ``sim._drive``), in C where it is built
(``native.run``).
"""

from dataclasses import dataclass, replace

import numpy as np

from .control import LyapunovSpec, _norm, lyapunov_weight
from .model import BlowupError, Scenario, SystemModel, get_reference, stack_binding
from .sim import (Python, _drive, _node_stack, _rk4, _seq, _stack_fetch, fmt, refine_dt,
                  run_scenario)
from .synth import (Bound, GainConfig, _positive, check_gain_count, error_coords, error_drift,
                    horner, render, stack_order, state_from_errors, trace)


def _damping(coef, g, w):      # of the last averaged coordinate, w the weight at |hbar|
    return coef * g * g * w


def averaged_error_rates(hd, c, coef, g, wc):
    """The rates of the cascade at hd = (hbar_1, .., hbar_n, residual drift),
    wc the weight's coefficients; a tuple.  |hbar| is ``control._norm``'s,
    the |h| of V."""
    *h, drift = hd
    n = len(h)
    return tuple(-c[i] * h[i] + h[i + 1] for i in range(n - 1)) \
        + (drift - _damping(coef, g, horner(wc, _norm(h))) * h[n - 1],)


def _coef(gains, halved):
    return gains.lam * gains.beta * (0.5 if halved else 1.0)


def averaged_rhs(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                 reference, t: float, hbar, halved: bool = False) -> np.ndarray:
    """Right-hand side of the averaged error system at time t.  ValueError
    if gains has not one rate gain per state or hbar not n items."""
    check_gain_count(sys, gains)
    if np.shape(hbar) != (sys.n,):
        raise ValueError(f"hbar must have dimension {sys.n}")
    hs = tuple(np.asarray(hbar, dtype=float).tolist())
    ys = tuple(get_reference(reference).stack(t, sys.n).tolist())
    xs = tuple(state_from_errors(sys, hs, ys, gains).tolist())
    return np.array(averaged_error_rates((*hs, error_drift(sys, xs, ys, gains)), gains.c,
                                         _coef(gains, halved), sys.gain(xs),
                                         spec._weight_coeffs))


def effective_damping(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                      x, r: float) -> float:
    """Damping coefficient lam*beta*gain(x)^2*weight(r) of the last averaged
    coordinate; >= c_n whenever lam*beta >= 1/xi1."""
    return _damping(gains.lam * gains.beta, sys.gain(tuple(x)), lyapunov_weight(spec, r))


def simulate_averaged(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                      scenario: Scenario, h0=None, halved: bool = False) -> np.ndarray:
    """Integrate the averaged system on the scenario grid.

    Starts from the error coordinates of the scenario's initial state
    unless h0 is given.  Returns an (N+1, n) sample array.  The run is the
    loop generated for the plant (``_averaged_source``) on the closed
    loop's driver (``sim._drive``), so it diverges as a closed loop does;
    its range check's cause is "averaged system diverged" (|hbar_i| > 1e9
    or NaN).  ValueError if gains has not one rate gain per state, if the
    scenario's x0 has not n items, or if a given h0 is not n finite
    numbers.
    """
    check_gain_count(sys, gains)
    ref = get_reference(scenario.reference)
    n = sys.n
    if len(scenario.x0) != n:
        raise ValueError(f"x0 must have dimension {n}")
    if h0 is None:
        h0 = error_coords(sys, scenario.x0, ref.stack(0.0, n), gains)
    elif np.shape(h0) != (n,) or not np.all(np.isfinite(h0)):
        raise ValueError(f"h0 must be {n} finite numbers, got {h0!r}")
    dt = scenario.dt
    nw = len(spec._weight_coeffs)
    kind, ref_b = stack_binding(ref, n)
    def emit(lang):
        return _averaged_source(sys, nw, kind, lang)
    return _drive(sys, ("averaged", nw, kind), emit,
                  (sys, gains, spec, _coef(gains, halved), ref_b, dt),
                  tuple(np.asarray(h0, dtype=float).tolist()), scenario.nsteps, dt, ref, None)


def _averaged_source(sys: SystemModel, nw, kind: str, lang=Python):
    """Source of the averaged system's run loop on one plant, in the
    dialect lang (as ``sim._step_source``).

    make(plant, gains, spec, coef, ref, dt, size) binds one run: coef
    is the damping coefficient (``_coef``), ref binds the reference's
    stack, of the given kind (``model.stack_binding``, as in
    ``sim._step_source``), and size is the number of samples; nw is the
    number of the Lyapunov weight's coefficients.  make returns advance,
    the run constants and the record, the (size, n) block of each step's
    start hbar (``sim.Python.source``), as the closed loop's does.  Every
    RK4 node time sets the stack once and every node calls one node
    function: ``averaged_rhs`` written out from the plant's ``state``,
    ``gain`` and ``residual`` tapes and its kernel's, traced here with its
    |hbar|, rendered together (``synth.render``).  Compiled on the plant's
    first averaged run."""
    n = sys.n
    P = [f"p{i}" for i in range(n)]
    c, wc = [f"c{i}" for i in range(n)], [f"wc{k}" for k in range(nw)]
    state, gain, residual = (sys._tapes[k] for k in ("state", "gain", "residual"))
    bound = Bound([*c, *wc, "coef"])
    setup = ["gain = plant.gain", f"{_seq(c)}= gains.c", f"{_seq(wc)}= spec._weight_coeffs"]
    fetch = _stack_fetch("ref", kind, n, bound, setup, lang)
    Y, params, at = _node_stack(fetch, bound, fetch("t", "ya", stack_order(state, residual))[1])
    rates = trace(averaged_error_rates, [*P, residual], c, "coef", gain, wc)
    (x_lines, _), (g_lines, _), (d_lines, _), (r_lines, R) = render(
        [(state, "w", P, Y), (gain, "g", state, ()), (residual, "v", state, Y),
         (rates, "u", [residual, gain], "")], bound, lang)
    defs = lang.node("node", P + params, [*x_lines, *g_lines, *d_lines, *r_lines], R)
    S = [f"s{i}" for i in range(n)]
    ya_lines, ya = at("t", "ya")
    first = [*[lang.let("t", "k * dt")] * bool(ya_lines),
             *lang.record(S), *ya_lines,
             lang.unpack([f"k1_{i}" for i in range(n)], lang.call("node", f"{_seq(S)}{ya}"))]
    return lang.source("plant, gains, spec, coef, ref, dt", setup + bound.lines,
                       ["dt", *sorted(bound.names), "half", "sixth"], defs, n, n,
                       _rk4(n, first, lang.call("node", "{S}{Y}"), at, lang),
                       "averaged system diverged", S)


# --- generic dither coupling ---------------------------------------------------

_COUPLING_PANELS = 8192


def _simpson(f, h: float) -> float:
    """Composite Simpson rule over samples f at spacing h, evenly many panels."""
    return h / 3 * (f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])


def dither_coupling(inner, outer, period: float) -> float:
    """Averaging coupling coefficient of a zero-mean periodic dither pair:

        (1/T) * integral_0^T outer(s) * [integral_0^s inner(r) dr] ds

    computed by the composite Simpson rule on a fixed fine grid (absolute
    error well under 1e-9 for smooth dithers), the inner integral at odd
    points by the quadratic through them and their two neighbours.
    Rejects a period that is not positive and finite, and dithers whose
    mean over one period exceeds 1e-9.
    """
    _positive("period", period)
    grid = np.linspace(0.0, period, _COUPLING_PANELS + 1)
    h = period / _COUPLING_PANELS
    fi = np.array([inner(s) for s in grid])
    fo = np.array([outer(s) for s in grid])
    for name, vals in (("inner", fi), ("outer", fo)):
        mean = _simpson(vals, h) / period
        if abs(mean) > 1e-9:
            raise ValueError(f"{name} dither has nonzero mean {mean:.3g}")
    f0, f1, f2 = fi[:-2:2], fi[1:-1:2], fi[2::2]
    inner_cum = np.empty_like(fi)
    inner_cum[::2] = np.concatenate(([0.0], np.cumsum(h / 3 * (f0 + 4 * f1 + f2))))
    inner_cum[1::2] = inner_cum[:-2:2] + h / 12 * (5 * f0 + 8 * f1 - f2)
    return float(_simpson(fo * inner_cum, h) / period)


# --- full-vs-averaged deviation study ------------------------------------------

@dataclass(frozen=True)
class DeviationStudy:
    """Maximum distance between full and averaged error trajectories per
    dither frequency (empirical averaging-distance estimates)."""

    omegas: tuple
    horizon: float
    deviations: tuple
    blowups: tuple

    def to_csv(self) -> str:
        lines = ["omega,max_deviation,blowup_flag"]
        for om, dev, blow in zip(self.omegas, self.deviations, self.blowups):
            lines.append(f"{fmt(om)},{fmt(dev)},{int(blow)}")
        return "\n".join(lines) + "\n"

    def delta_estimate(self, omega: float) -> float:
        for om, dev, blow in zip(self.omegas, self.deviations, self.blowups):
            if om == omega and not blow:
                return dev
        raise KeyError(f"no clean deviation recorded for omega = {omega:g}")


def deviation_study(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                    scenario: Scenario, omegas, halved: bool = False) -> DeviationStudy:
    """Simulate the dithered loop at each frequency against the averaged
    system from the same initial error, recording max-norm distances on
    the scenario grid.  A diverging run is recorded, not fatal.

    The averaged system does not depend on the dither frequency, so it is
    integrated once and shared across frequencies.
    """
    avg = simulate_averaged(sys, spec, gains, scenario, halved=halved)
    deviations, blowups = [], []
    for omega in omegas:
        g = replace(gains, omega=float(omega))
        dt = refine_dt(scenario.dt, g.omega)
        stride = int(round(scenario.dt / dt))
        sc = replace(scenario, dt=dt)
        try:
            traj, _ = run_scenario(sys, "es", g, sc, lyap_spec=spec)
        except BlowupError:
            deviations.append(float("nan"))
            blowups.append(True)
            continue
        full = traj.h[::stride]
        dev = np.max(np.linalg.norm(full - avg, axis=1))
        deviations.append(float(dev))
        blowups.append(False)
    return DeviationStudy(omegas=tuple(float(o) for o in omegas),
                          horizon=scenario.t_end,
                          deviations=tuple(deviations),
                          blowups=tuple(blowups))
