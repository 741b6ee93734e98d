"""Averaged error dynamics and trajectory-closeness studies.

The dithered loop in error coordinates averages (as the dither frequency
grows) to the cascade

    dhbar_i/dt = -c_i hbar_i + hbar_{i+1}            i < n
    dhbar_n/dt = drift(xbar) - coef * gain(xbar)^2 * weight(|hbar|) * hbar_n

where xbar is the state reconstructed from hbar and coef defaults to
lam*beta.  Applying the generic coupling integral to the cos/sin dither
pair instead yields lam*beta/2; both variants are exposed (``halved``)
and the coupling integral itself is available as an independent probe.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import LyapunovSpec, lyapunov_weight
from .model import BlowupError, Scenario, SystemModel, get_reference, is_divergence
from .sim import fmt, refine_dt, rk4_tuple_step, run_scenario
from .synth import GainConfig, error_coords, error_drift, state_from_errors


def _averaged_rates(sys, spec, gains, ys, hs, coef):
    """Averaged error rates at hbar = hs against the reference stack ys,
    both tuples of floats; returns a tuple.  |hbar| goes through the same
    BLAS dot product as ``np.linalg.norm``, so results match it bit for
    bit at every n."""
    n, c = sys.n, gains.c
    xs = tuple(state_from_errors(sys, hs, ys, gains).tolist())
    g = sys.gain(xs)
    hv = np.array(hs)
    r = math.sqrt(hv.dot(hv))
    last = error_drift(sys, xs, ys, gains) \
        - coef * g * g * lyapunov_weight(spec, r) * hs[n - 1]
    return tuple(-c[i] * hs[i] + hs[i + 1] for i in range(n - 1)) + (last,)


def _coef(gains, halved):
    return gains.lam * gains.beta * (0.5 if halved else 1.0)


def averaged_rhs(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                 reference, t: float, hbar, halved: bool = False) -> np.ndarray:
    """Right-hand side of the averaged error system at time t."""
    hs = tuple(np.asarray(hbar, dtype=float).tolist())
    ys = tuple(get_reference(reference).stack(t, sys.n).tolist())
    return np.array(_averaged_rates(sys, spec, gains, ys, hs, _coef(gains, halved)))


def effective_damping(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                      x, r: float) -> float:
    """Damping coefficient lam*beta*gain(x)^2*weight(r) of the last averaged
    coordinate; >= c_n whenever lam*beta >= 1/xi1."""
    g = sys.gain(tuple(x))
    return gains.lam * gains.beta * g * g * lyapunov_weight(spec, r)


def simulate_averaged(sys: SystemModel, spec: LyapunovSpec, gains: GainConfig,
                      scenario: Scenario, h0=None, halved: bool = False,
                      t0: float = 0.0) -> np.ndarray:
    """Integrate the averaged system on the scenario grid.

    Starts from the error coordinates of the scenario's initial state
    unless h0 is given; t0 shifts the reference clock (useful for phased
    integration of stiff transients).  Returns an (N+1, n) sample array.
    """
    ref = get_reference(scenario.reference)
    n = sys.n
    if h0 is None:
        h0 = error_coords(sys, scenario.x0, ref.stack(t0, n), gains)
    h = tuple(np.asarray(h0, dtype=float).tolist())
    nsteps = scenario.nsteps
    dt = scenario.dt
    coef = _coef(gains, halved)

    def rates(t, hs, ys, _arg):
        return _averaged_rates(sys, spec, gains, ys, hs, coef)

    def stack(t):
        ys = ref.derivatives(t, n)
        if not all(map(math.isfinite, ys)):
            raise BlowupError("non-finite reference value", t=t)
        return ys

    out = np.empty((nsteps + 1, n))
    out[0] = h
    for k in range(nsteps):
        t = t0 + k * dt
        try:
            h = rk4_tuple_step(rates, t, h, dt, rates(t, h, stack(t), None),
                               stack(t + dt / 2), stack(t + dt))
        except (OverflowError, ValueError) as exc:
            if not is_divergence(exc):
                raise
            raise BlowupError("averaged system diverged", t=t, state=np.array(h)) from None
        if not all(math.isfinite(v) for v in h):
            raise BlowupError("averaged system diverged", t=t0 + (k + 1) * dt,
                              state=np.array(h))
        out[k + 1] = h
    return out


# --- generic dither coupling ---------------------------------------------------

_COUPLING_PANELS = 8192


def dither_coupling(inner, outer, period: float) -> float:
    """Averaging coupling coefficient of a zero-mean periodic dither pair:

        (1/T) * integral_0^T outer(s) * [integral_0^s inner(r) dr] ds

    computed by composite quadrature on a fixed fine grid (absolute error
    well under 1e-9 for smooth dithers).  Rejects dithers whose mean over
    one period exceeds 1e-9.
    """
    from scipy.integrate import cumulative_simpson, simpson   # only this probe needs scipy

    if period <= 0:
        raise ValueError("period must be positive")
    grid = np.linspace(0.0, period, _COUPLING_PANELS + 1)
    fi = np.array([inner(s) for s in grid])
    fo = np.array([outer(s) for s in grid])
    for name, vals in (("inner", fi), ("outer", fo)):
        mean = simpson(vals, x=grid) / period
        if abs(mean) > 1e-9:
            raise ValueError(f"{name} dither has nonzero mean {mean:.3g}")
    inner_cum = cumulative_simpson(fi, x=grid, initial=0.0)
    return float(simpson(fo * inner_cum, x=grid) / period)


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
