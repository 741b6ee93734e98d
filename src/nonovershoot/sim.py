"""Closed-loop simulation: fixed-step RK4, trajectory records, overshoot
metrics, and parameter sweeps.

Fixed stepping is deliberate: the dithered right-hand side is highly
oscillatory and adaptive controllers thrash on it, while a fixed grid
gives bit-identical reruns.  The controller is re-evaluated at every
RK4 sub-stage because the input depends continuously on time through
the dither; sample-and-hold would inject averaging error at the
square-root-of-frequency scale.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .control import (LyapunovSpec, NussbaumState, example_lyapunov_spec,
                      lyapunov_value_from_norm, nominal_backstepping,
                      nussbaum_control)
from .model import BlowupError, Scenario, SystemModel, get_reference
from .synth import GainConfig, bound_report, check_gains, error_values

DEFAULT_PSI_SCALE = 0.0025
DEFAULT_DELTA_EST = 0.1

_STATE_LIMIT = 1e9

CONTROLLERS = ("es", "nominal", "nussbaum", "safety-filter")

MODE_LABELS = {-1: "-", 0: "nominal", 1: "override"}

REPORT_COLUMNS = ("scenario", "gains", "max_h1", "t_at_max", "tail_abs_h1",
                  "envelope_violation", "min_H")


def fmt(v) -> str:
    """Render a float with 17 significant digits (CSV contract)."""
    return f"{v:.17g}"


def rk4_step(rhs, t: float, x, dt: float):
    """Classical fourth-order Runge-Kutta update, local error O(dt^5)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(rhs(t, x))
    k2 = np.asarray(rhs(t + dt / 2, x + dt / 2 * k1))
    k3 = np.asarray(rhs(t + dt / 2, x + dt / 2 * k2))
    k4 = np.asarray(rhs(t + dt, x + dt * k3))
    out = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowupError("non-finite RK4 update", t=t, state=x)
    return out


def refine_dt(dt: float, omega: float) -> float:
    """Shrink dt to an integer fraction that resolves the dither (40
    samples per period)."""
    dt_max = (2 * math.pi / omega) / 40.0
    if dt <= dt_max:
        return dt
    return dt / math.ceil(dt / dt_max)


@dataclass
class Trajectory:
    """Sampled closed-loop signals on a uniform grid."""

    t: np.ndarray
    x: np.ndarray       # (N, n)
    h: np.ndarray       # (N, n) tracking-error coordinates
    u: np.ndarray
    yr: np.ndarray
    margin: np.ndarray  # safety margin yr - x1
    mode: np.ndarray    # int8: -1 none, 0 nominal, 1 override
    complete: bool = True

    @property
    def n(self):
        return self.x.shape[1]

    def to_csv(self) -> str:
        n = self.n
        header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
            + [f"h{i}" for i in range(1, n + 1)] + ["u", "yr", "H", "mode"]
        lines = [",".join(header)]
        for k in range(len(self.t)):
            row = [fmt(self.t[k])]
            row += [fmt(v) for v in self.x[k]]
            row += [fmt(v) for v in self.h[k]]
            row += [fmt(self.u[k]), fmt(self.yr[k]), fmt(self.margin[k]),
                    MODE_LABELS[int(self.mode[k])]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


@dataclass
class OvershootReport:
    """Overshoot / residual metrics of one run.

    envelope_violation is the clipped-excess of h_1 over the transient
    ceiling (NaN when the gain ordering provides no envelope weights);
    delta_source records where the averaging-distance estimate came from.
    """

    scenario: str
    gains_text: str
    max_h1: float
    t_at_max: float
    tail_abs_h1: float
    envelope_violation: float
    min_margin: float
    delta_est: float
    delta_source: str
    max_abs_u: float

    def csv_row(self) -> str:
        return ",".join([self.scenario, self.gains_text, fmt(self.max_h1),
                         fmt(self.t_at_max), fmt(self.tail_abs_h1),
                         fmt(self.envelope_violation), fmt(self.min_margin)])


def gains_text(gains: GainConfig) -> str:
    parts = [f"c{i + 1}={gains.c[i]:g}" for i in range(gains.n)]
    parts += [f"kappa_n={gains.kappa:g}", f"lambda={gains.lam:g}",
              f"beta={gains.beta:g}", f"omega={gains.omega:g}"]
    return ";".join(parts)


def _build_stage(sys, controller, gains, ref, lyap_spec, nominal_ref):
    """Return (aux0, stage) where stage(t, xs, aux, mode, h=None) -> (u,
    aux_rates); h, when given, holds the error coordinates at (t, xs)."""
    n = sys.n
    c = gains.c
    drift = sys.drift
    gain = sys.gain

    if controller in ("es", "safety-filter"):
        vc = lyap_spec._value_coeffs if lyap_spec.closed_form else None
        sq = math.sqrt(gains.omega)
        om, lam, beta = gains.omega, gains.lam, gains.beta

        def es_u(t, xs, h=None):
            if h is None:
                ys = tuple(ref.derivative(t, k) for k in range(n + 1))
                h = error_values(sys, c, xs, ys)
            s = math.sqrt(math.fsum(v * v for v in h))
            if vc is not None:
                acc = 0.0
                for coef in reversed(vc):
                    acc = acc * s + coef
                val = acc * s * s
            else:
                val = lyapunov_value_from_norm(lyap_spec, s)
            return sq * (beta * math.cos(om * t) - lam * math.sin(om * t) * val)

    if controller in ("nominal", "safety-filter"):
        nref = nominal_ref if controller == "safety-filter" else ref

        def nominal_u(t, xs):
            ys = tuple(nref.derivative(t, k) for k in range(n + 1))
            return nominal_backstepping(sys, xs, ys, gains)

    if controller == "es":
        return (), lambda t, xs, aux, mode, h=None: (es_u(t, xs, h), ())

    if controller == "nominal":
        return (), lambda t, xs, aux, mode, h=None: (nominal_u(t, xs), ())

    if controller == "nussbaum":
        def stage(t, xs, aux, mode, h=None):
            ys = tuple(ref.derivative(t, k) for k in range(n + 1))
            u, dtheta = nussbaum_control(sys, xs, ys, gains, NussbaumState(aux[0]))
            return u, (dtheta,)

        return (0.0,), stage

    if controller == "safety-filter":
        def stage(t, xs, aux, mode, h=None):
            u = nominal_u(t, xs) if mode == 0 else es_u(t, xs, h)
            return u, ()

        return (), stage

    raise KeyError(f"unknown controller id {controller!r}; known: {CONTROLLERS}")


def run_scenario(sys: SystemModel, controller: str, gains: GainConfig,
                 scenario: Scenario, *, lyap_spec: Optional[LyapunovSpec] = None,
                 psi_scale: float = DEFAULT_PSI_SCALE, theta0: float = 0.0,
                 delta_est: Optional[float] = None, delta_source: str = "configured",
                 nominal_reference="constant:0", scenario_id: Optional[str] = None):
    """Integrate one closed loop and report overshoot metrics.

    The seeking controllers need a LyapunovSpec; for the demo plant one
    is derived from the certificate drift bound scaled by ``psi_scale``
    (the unscaled certificate produces a dither far too violent for the
    averaging regime at moderate frequencies; see README).  The safety
    filter freezes its nominal/override decision at the start of each
    step so the switching signal is piecewise constant on the grid.

    Raises BlowupError (partial trajectory attached) on divergence.
    """
    if controller not in CONTROLLERS:
        raise KeyError(f"unknown controller id {controller!r}; known: {CONTROLLERS}")
    if len(scenario.x0) != sys.n:
        raise ValueError(f"x0 must have dimension {sys.n}")
    needs_dither = controller in ("es", "safety-filter")
    if needs_dither and not scenario.dither_resolved(gains.omega):
        raise ValueError(
            f"dt = {scenario.dt:g} does not resolve the dither at omega = "
            f"{gains.omega:g} (need dt <= {2 * math.pi / gains.omega / 40:g})")
    if needs_dither and lyap_spec is None:
        lyap_spec = example_lyapunov_spec(sys, gains, scale=psi_scale)
    ref = get_reference(scenario.reference)
    nominal_ref = get_reference(nominal_reference)
    if delta_est is None:
        delta_est = DEFAULT_DELTA_EST

    aux0, stage = _build_stage(sys, controller, gains, ref, lyap_spec, nominal_ref)
    n, naux = sys.n, len(aux0)
    drift, gain, c = sys.drift, sys.gain, gains.c
    nsteps = int(round(scenario.t_end / scenario.dt))
    dt = scenario.dt

    t_arr = np.empty(nsteps + 1)
    x_arr = np.empty((nsteps + 1, n))
    h_arr = np.empty((nsteps + 1, n))
    u_arr = np.empty(nsteps + 1)
    yr_arr = np.empty(nsteps + 1)
    m_arr = np.empty(nsteps + 1)
    mode_arr = np.empty(nsteps + 1, dtype=np.int8)
    is_filter = controller == "safety-filter"

    def deriv(xs, u, aux_rates):
        dx = tuple(xs[i + 1] + drift[i](xs[: i + 1]) for i in range(n - 1))
        return dx + (gain(xs) * u + drift[n - 1](xs),) + aux_rates

    def rhs(t, state, mode):
        xs = state[:n]
        u, aux_rates = stage(t, xs, state[n:], mode)
        return deriv(xs, u, aux_rates)

    def sample(k, t, state, mode):
        """Record sample k; return the controller output there, which is
        also k1's (the seeking law reuses the recorded error coordinates)."""
        xs = state[:n]
        ys = tuple(ref.derivative(t, j) for j in range(n + 1))
        h = error_values(sys, c, xs, ys)
        u, aux_rates = stage(t, xs, state[n:], mode, h)
        t_arr[k] = t
        x_arr[k] = xs
        h_arr[k] = h
        u_arr[k] = u
        yr_arr[k] = ys[0]
        m_arr[k] = ys[0] - xs[0]
        mode_arr[k] = mode
        return u, aux_rates

    state = tuple(scenario.x0) + ((theta0,) if naux else ())
    k = 0
    try:
        for k in range(nsteps):
            t = k * dt
            xs = state[:n]
            sys.check_gain_floor(xs)
            mode = -1
            if is_filter:
                mode = 0 if ref.derivative(t, 0) - xs[0] >= 0.0 else 1
            try:
                u_rec, rates = sample(k, t, state, mode)
                k1 = deriv(xs, u_rec, rates)
                s2 = tuple(v + dt / 2 * d for v, d in zip(state, k1))
                k2 = rhs(t + dt / 2, s2, mode)
                s3 = tuple(v + dt / 2 * d for v, d in zip(state, k2))
                k3 = rhs(t + dt / 2, s3, mode)
                s4 = tuple(v + dt * d for v, d in zip(state, k3))
                k4 = rhs(t + dt, s4, mode)
                state = tuple(v + dt / 6 * (a + 2 * b + 2 * cc + d)
                              for v, a, b, cc, d in zip(state, k1, k2, k3, k4))
            except (OverflowError, ValueError) as exc:
                raise BlowupError(f"arithmetic overflow: {exc}", t=t,
                                  state=np.array(state[:n])) from None
            bad = any(not math.isfinite(v) or abs(v) > _STATE_LIMIT for v in state)
            if bad:
                raise BlowupError("state left the finite range", t=(k + 1) * dt,
                                  state=np.array(state[:n]))
        t = nsteps * dt
        mode = -1
        if is_filter:
            mode = 0 if ref.derivative(t, 0) - state[0] >= 0.0 else 1
        sample(nsteps, t, state, mode)
    except BlowupError as exc:
        partial = Trajectory(t=t_arr[:k + 1].copy(), x=x_arr[:k + 1].copy(),
                             h=h_arr[:k + 1].copy(), u=u_arr[:k + 1].copy(),
                             yr=yr_arr[:k + 1].copy(), margin=m_arr[:k + 1].copy(),
                             mode=mode_arr[:k + 1].copy(), complete=False)
        exc.partial_trajectory = partial
        raise

    traj = Trajectory(t=t_arr, x=x_arr, h=h_arr, u=u_arr, yr=yr_arr,
                      margin=m_arr, mode=mode_arr)
    bounds = _auto_bounds(sys, gains)
    sid = scenario_id or _default_id(sys, controller, scenario)
    report = overshoot_report(traj, gains, bounds, delta_est,
                              scenario_id=sid, delta_source=delta_source)
    return traj, report


def _default_id(sys, controller, scenario):
    x0 = "|".join(f"{v:g}" for v in scenario.x0)  # comma-free for CSV cells
    return scenario.label or f"{sys.name}/{controller}/x0={x0}"


def _auto_bounds(sys, gains):
    """Best available bound report: envelope weights when the gain chain
    is strictly descending, cores alone otherwise, None if c_min <= 1."""
    for mode in ("descending", "uniform"):
        if check_gains(sys, gains, mode).ok:
            return bound_report(gains, mode)
    return None


def overshoot_report(traj: Trajectory, gains: GainConfig, bounds, delta_est: float,
                     scenario_id: str = "run", delta_source: str = "configured") -> OvershootReport:
    """Metrics from samples; the transient envelope is anchored at the
    trajectory's own initial error coordinates."""
    h1 = traj.h[:, 0]
    imax = int(np.argmax(h1))
    tail = traj.t >= 0.8 * traj.t[-1]
    viol = float("nan")
    if bounds is not None and bounds.envelope_weights is not None:
        env = bounds.envelope(np.abs(traj.h[0]), gains.c, traj.t, delta_est)
        viol = max(0.0, float(np.max(h1 - env)))
    return OvershootReport(
        scenario=scenario_id,
        gains_text=gains_text(gains),
        max_h1=float(h1[imax]),
        t_at_max=float(traj.t[imax]),
        tail_abs_h1=float(np.max(np.abs(h1[tail]))),
        envelope_violation=viol,
        min_margin=float(np.min(traj.margin)),
        delta_est=delta_est,
        delta_source=delta_source,
        max_abs_u=float(np.max(np.abs(traj.u))),
    )


_GAIN_KEYS = {"kappa_n": "kappa", "lambda": "lam", "beta": "beta", "omega": "omega"}


@dataclass
class SweepResult:
    rows: tuple  # (OvershootReport | None, verdict text, overrides dict)

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS + ("verdict",))]
        for report, verdict, overrides in self.rows:
            if report is None:
                lines.append(",".join([_grid_label(overrides), "", "nan", "nan",
                                       "nan", "nan", "nan", verdict]))
            else:
                lines.append(report.csv_row() + "," + verdict)
        return "\n".join(lines) + "\n"


def sweep(sys: SystemModel, controller: str, gains: GainConfig,
          scenario: Scenario, grid: dict, mode: str = "descending",
          **options) -> SweepResult:
    """Run the scenario over a parameter grid.

    Grid keys: c1..cn, kappa_n, lambda, beta, omega, x0.  Points that
    fail the gain check for ``mode`` are recorded with their verdict and
    not simulated.  Rows follow itertools.product order over the grid in
    key order, so output is order-stable.
    """
    keys = list(grid.keys())
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        g, sc = gains, scenario
        c = list(g.c)
        for key, val in overrides.items():
            if key == "x0":
                sc = replace(sc, x0=tuple(val))
            elif key in _GAIN_KEYS:
                g = replace(g, **{_GAIN_KEYS[key]: float(val)})
            elif key.startswith("c") and key[1:].isdigit():
                c[int(key[1:]) - 1] = float(val)
            else:
                raise KeyError(f"unknown sweep parameter {key!r}")
        g = replace(g, c=tuple(c))
        verdict = check_gains(sys, g, mode)
        if not verdict.ok:
            text = "invalid: " + " & ".join(verdict.failures)
            rows.append((None, text.replace(",", ";"), overrides))
            continue
        sc = replace(sc, dt=refine_dt(sc.dt, g.omega))
        label = _grid_label(overrides)
        _, report = run_scenario(sys, controller, g, sc,
                                 scenario_id=f"{_default_id(sys, controller, sc)}/{label}",
                                 **options)
        rows.append((report, "valid", overrides))
    return SweepResult(rows=tuple(rows))


def _grid_label(overrides: dict) -> str:
    parts = []
    for k, v in overrides.items():
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=" + "|".join(f"{vi:g}" for vi in v))
        else:
            parts.append(f"{k}={v:g}")
    return ";".join(parts)
