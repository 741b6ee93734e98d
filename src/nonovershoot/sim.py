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
from .model import (BlowupError, Scenario, SystemModel, get_reference, is_divergence,
                    max_dither_dt)
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
    """Classical fourth-order Runge-Kutta update, local error O(dt^5).

    The simulator steps with ``rk4_tuple_step``; this array form, with
    ``model.eval_dynamics`` as the rate, is the independent replay oracle
    that the benchmark's checks run recorded steps through, as the nested
    duals are for the synthesis."""
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


def rk4_tuple_step(f, t: float, state: tuple, dt: float, k1: tuple,
                   mid: tuple, end: tuple, arg=None) -> tuple:
    """The update of ``rk4_step`` on a tuple of floats, bit for bit, with
    the rate k1 at (t, state) given.  f(t, s, ys, arg) is the rate at a
    later node, ys the reference stack there: ``mid`` at t + dt/2, shared
    by k2 and k3, and ``end`` at t + dt."""
    k2 = f(t + dt / 2, tuple(v + dt / 2 * d for v, d in zip(state, k1)), mid, arg)
    k3 = f(t + dt / 2, tuple(v + dt / 2 * d for v, d in zip(state, k2)), mid, arg)
    k4 = f(t + dt, tuple(v + dt * d for v, d in zip(state, k3)), end, arg)
    return tuple(v + dt / 6 * (a + 2 * b + 2 * cc + d)
                 for v, a, b, cc, d in zip(state, k1, k2, k3, k4))


def refine_dt(dt: float, omega: float) -> float:
    """Shrink dt to an integer fraction that resolves the dither
    (``model.max_dither_dt``)."""
    dt_max = max_dither_dt(omega)
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
        cols = (self.t, *self.x.T, *self.h.T, self.u, self.yr, self.margin)
        row = ",".join(["%.17g"] * len(cols)) + ",%s"     # '%.17g' % v == fmt(v)
        parts = [",".join(header)]
        for a in range(0, len(self.t), _CSV_ROWS):
            block = [col[a:a + _CSV_ROWS].tolist() for col in cols]
            block.append([MODE_LABELS[m] for m in self.mode[a:a + _CSV_ROWS].tolist()])
            # one exact-size string per block: a %-formatted row keeps its
            # over-allocated buffer, a joined string does not
            parts.append("\n".join(row % vals for vals in zip(*block)))
        return "\n".join(parts) + "\n"


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


def _build_stage(sys, controller, gains, lyap_spec):
    """Return (aux0, stage) where stage(t, xs, ys, aux, mode, h=None) ->
    (u, aux_rates); ys is the derivative stack at t of the reference the
    law tracks, and h, when given, the error coordinates at (t, xs)."""
    c = gains.c

    if controller in ("es", "safety-filter"):
        vc = lyap_spec._value_coeffs if lyap_spec.closed_form else None
        sq = math.sqrt(gains.omega)
        om, lam, beta = gains.omega, gains.lam, gains.beta

        def es_stage(t, xs, ys, aux, mode, h=None):
            if h is None:
                h = error_values(sys, c, xs, ys)
            s = math.sqrt(math.fsum(v * v for v in h))    # as control.lyapunov_value
            if vc is not None:
                acc = 0.0
                for coef in reversed(vc):
                    acc = acc * s + coef
                val = acc * s * s
            else:
                val = lyapunov_value_from_norm(lyap_spec, s)
            return sq * (beta * math.cos(om * t) - lam * math.sin(om * t) * val), ()

    if controller == "es":
        return (), es_stage

    if controller == "nominal":
        return (), lambda t, xs, ys, aux, mode, h=None: (
            nominal_backstepping(sys, xs, ys, gains), ())

    if controller == "nussbaum":
        def stage(t, xs, ys, aux, mode, h=None):
            u, dtheta = nussbaum_control(sys, xs, ys, gains, NussbaumState(aux[0]))
            return u, (dtheta,)

        return (0.0,), stage

    if controller == "safety-filter":
        def stage(t, xs, ys, aux, mode, h=None):
            if mode == 0:
                return nominal_backstepping(sys, xs, ys, gains), ()
            return es_stage(t, xs, ys, aux, mode, h)

        return (), stage

    raise KeyError(f"unknown controller id {controller!r}; known: {CONTROLLERS}")


_FLUSH_ROWS = 256   # samples buffered by _Recorder between flushes
_CSV_ROWS = 256     # rows Trajectory.to_csv renders into one string


class _Recorder:
    """Trajectory samples, appended one tuple per sample and flushed into
    preallocated arrays every _FLUSH_ROWS rows: an item write into a numpy
    array costs about as much as a step's own bookkeeping, and an
    unbounded list would hold every sample twice."""

    def __init__(self, size, n):
        self.cols = (np.empty(size), np.empty((size, n)), np.empty((size, n)),
                     np.empty(size), np.empty(size), np.empty(size, dtype=np.int8))
        self.rows = []      # (t, x, h, u, yr, mode) since the last flush
        self.count = 0      # rows already in the arrays

    def append(self, row):
        rows = self.rows
        rows.append(row)
        if len(rows) == _FLUSH_ROWS:
            self.flush()

    def flush(self):
        if self.rows:
            end = self.count + len(self.rows)
            for arr, vals in zip(self.cols, zip(*self.rows)):
                arr[self.count:end] = vals
            self.count = end
            self.rows.clear()

    def trajectory(self, complete=True) -> Trajectory:
        """The recorded rows, exactly; a partial record is copied out."""
        self.flush()
        t, x, h, u, yr, mode = (a if len(a) == self.count else a[:self.count].copy()
                                for a in self.cols)
        return Trajectory(t=t, x=x, h=h, u=u, yr=yr, margin=yr - x[:, 0], mode=mode,
                          complete=complete)


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

    Each step evaluates the tracked reference's derivative stack once per
    RK4 node (start, midpoint, end).

    Raises BlowupError, with the samples recorded so far attached as
    ``partial_trajectory``, on divergence: the state leaving the finite
    range, an ``OverflowError``, or a math-domain ``ValueError`` (see
    ``model.is_divergence``).  Any other exception propagates unchanged.
    """
    if controller not in CONTROLLERS:
        raise KeyError(f"unknown controller id {controller!r}; known: {CONTROLLERS}")
    if len(scenario.x0) != sys.n:
        raise ValueError(f"x0 must have dimension {sys.n}")
    needs_dither = controller in ("es", "safety-filter")
    if needs_dither and not scenario.dither_resolved(gains.omega):
        raise ValueError(
            f"dt = {scenario.dt:g} does not resolve the dither at omega = "
            f"{gains.omega:g} (need dt <= {max_dither_dt(gains.omega):g})")
    if needs_dither and lyap_spec is None:
        lyap_spec = example_lyapunov_spec(sys, gains, scale=psi_scale)
    ref = get_reference(scenario.reference)
    nominal_ref = get_reference(nominal_reference)
    if delta_est is None:
        delta_est = DEFAULT_DELTA_EST

    aux0, stage = _build_stage(sys, controller, gains, lyap_spec)
    n, naux = sys.n, len(aux0)
    drift, gain, c = sys.drift, sys.gain, gains.c
    nsteps = scenario.nsteps
    dt = scenario.dt
    is_filter = controller == "safety-filter"
    rec = _Recorder(nsteps + 1, n)
    record = rec.append

    def deriv(xs, u, aux_rates):
        dx = tuple(xs[i + 1] + drift[i](xs[: i + 1]) for i in range(n - 1))
        return dx + (gain(xs) * u + drift[n - 1](xs),) + aux_rates

    def rhs(t, state, ys, mode):
        xs = state[:n]
        u, aux_rates = stage(t, xs, ys, state[n:], mode)
        return deriv(xs, u, aux_rates)

    def sample(t, state):
        """Record the sample at (t, state).  Return the step's safety mode,
        the reference its law tracks, and the controller output there,
        which is also k1's (the seeking law reuses the recorded error
        coordinates, and a law tracking ``ref`` its stack)."""
        xs = state[:n]
        ys = ref.derivatives(t, n)
        mode = -1
        if is_filter:
            mode = 0 if ys[0] - xs[0] >= 0.0 else 1
        tracked = nominal_ref if mode == 0 else ref
        h = error_values(sys, c, xs, ys)
        u, aux_rates = stage(t, xs, ys if tracked is ref else tracked.derivatives(t, n),
                             state[n:], mode, h)
        record((t, xs, h, u, ys[0], mode))
        return mode, tracked, u, aux_rates

    state = tuple(scenario.x0) + ((theta0,) if naux else ())
    t = 0.0
    try:
        try:
            for k in range(nsteps):
                t = k * dt
                xs = state[:n]
                sys.check_gain_floor(xs)
                mode, tracked, u, rates = sample(t, state)
                state = rk4_tuple_step(rhs, t, state, dt, deriv(xs, u, rates),
                                       tracked.derivatives(t + dt / 2, n),
                                       tracked.derivatives(t + dt, n), mode)
                if any(not math.isfinite(v) or abs(v) > _STATE_LIMIT for v in state):
                    raise BlowupError("state left the finite range", t=(k + 1) * dt,
                                      state=np.array(state[:n]))
            t = nsteps * dt
            sample(t, state)
        except (OverflowError, ValueError) as exc:
            if not is_divergence(exc):
                raise
            raise BlowupError(f"arithmetic divergence: {exc}", t=t,
                              state=np.array(state[:n])) from None
    except BlowupError as exc:
        exc.partial_trajectory = rec.trajectory(complete=False)
        raise

    traj = rec.trajectory()
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
                lines.append(",".join([grid_label(overrides), "", "nan", "nan",
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
    not simulated; a point whose run diverges is recorded with the verdict
    "diverged at t=...: <cause>" and the grid goes on.  Rows follow
    itertools.product order over the grid in key order, so output is
    order-stable.
    """
    keys = list(grid.keys())
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        g, sc = grid_point(gains, scenario, overrides)
        verdict = check_gains(sys, g, mode)
        if not verdict.ok:
            text = "invalid: " + " & ".join(verdict.failures)
            rows.append((None, text.replace(",", ";"), overrides))
            continue
        sc = replace(sc, dt=refine_dt(sc.dt, g.omega))
        label = grid_label(overrides)
        try:
            _, report = run_scenario(sys, controller, g, sc,
                                     scenario_id=f"{_default_id(sys, controller, sc)}/{label}",
                                     **options)
        except BlowupError as exc:
            text = f"diverged at t={exc.t:.6g}: {exc}"
            rows.append((None, text.replace(",", ";"), overrides))
            continue
        rows.append((report, "valid", overrides))
    return SweepResult(rows=tuple(rows))


def grid_point(gains: GainConfig, scenario: Scenario, overrides: dict):
    """(gains, scenario) with the overrides of one grid point applied; see
    ``sweep`` for the keys.  KeyError for an unknown key."""
    g, sc = gains, scenario
    c = list(g.c)
    for key, val in overrides.items():
        if key == "x0":
            sc = replace(sc, x0=tuple(val))
        elif key in _GAIN_KEYS:
            g = replace(g, **{_GAIN_KEYS[key]: float(val)})
        elif key.startswith("c") and key[1:].isdigit() and 1 <= int(key[1:]) <= len(c):
            c[int(key[1:]) - 1] = float(val)
        else:
            raise KeyError(f"unknown sweep parameter {key!r}; known: c1..c{len(c)}, "
                           + ", ".join(_GAIN_KEYS) + ", x0")
    return replace(g, c=tuple(c)), sc


def grid_label(overrides: dict) -> str:
    parts = []
    for k, v in overrides.items():
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=" + "|".join(f"{vi:g}" for vi in v))
        else:
            parts.append(f"{k}={v:g}")
    return ";".join(parts)
