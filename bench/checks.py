"""Output checks for the benchmark's operations.

Each check returns a list of failure messages (empty when the output is
correct).  They run outside the timed calls.

* Every run: complete, finite, and the report fields finite.
* The law check: at a few grid samples the recorded error coordinates and
  input are recomputed with the library's public functions
  (``error_coords``, ``es_control``, ``nominal_backstepping``,
  ``nussbaum_control``), and the next state with the public ``rk4_step``
  over ``eval_dynamics``.  This holds for any seed and catches a wrong law
  or integrator at the 1e-9 level.
* CSV: header, row count, and sampled rows parse back to the trajectory.
* Recorded values (default seed only): see ``compare_recorded``.
"""

import math

import numpy as np

LAW_RTOL = 1e-9
MODE_LABELS = {-1: "-", 0: "nominal", 1: "override"}

# Bounds that hold on every seed: criterion 1's overshoot ceiling and
# criterion 7's safety floor -(D2 core + delta_est + 0.1).
MAX_H1_CEILING = 0.45
MIN_MARGIN_FLOOR = -(0.30303 + 0.1 + 0.1)


def _close(a, b, rtol=LAW_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _finite_report(rep):
    fails = []
    for field in ("max_h1", "t_at_max", "tail_abs_h1", "min_margin", "max_abs_u"):
        if not math.isfinite(getattr(rep, field)):
            fails.append(f"report {field} = {getattr(rep, field)!r} is not finite")
    env = rep.envelope_violation
    if not (math.isfinite(env) or math.isnan(env)):
        fails.append(f"report envelope_violation = {env!r}")
    return fails


def _law(nn, sysm, controller, gains, ref, spec, nominal_ref, mode):
    """Closed-loop input (u, aux rates) of one controller, built from the
    library's tested law functions."""
    n = sysm.n

    def es(t, s):
        h = nn.error_coords(sysm, s[:n], ref.stack(t, n), gains)
        return nn.es_control(spec, gains, t, h), ()

    def nominal(t, s, r=ref):
        return nn.nominal_backstepping(sysm, s[:n], r.stack(t, n), gains), ()

    def nussbaum(t, s):
        u, dtheta = nn.nussbaum_control(sysm, s[:n], ref.stack(t, n), gains,
                                        nn.NussbaumState(s[n]))
        return u, (dtheta,)

    if controller == "es":
        return es
    if controller == "nominal":
        return nominal
    if controller == "nussbaum":
        return nussbaum
    if mode == 0:       # safety filter, frozen over the step
        return lambda t, s: nominal(t, s, nominal_ref)
    return es


def run_output(nn, sysm, controller, gains, scenario, spec, nominal_ref, theta0,
               traj, rep):
    """Check one ``run_scenario`` result against the tested law functions."""
    n = sysm.n
    nsteps = int(round(scenario.t_end / scenario.dt))
    if not traj.complete or len(traj.t) != nsteps + 1:
        return [f"trajectory incomplete: {len(traj.t)} of {nsteps + 1} samples"]
    fails = []
    for name in ("t", "x", "h", "u", "yr", "margin"):
        if not np.all(np.isfinite(getattr(traj, name))):
            fails.append(f"trajectory {name} is not finite")
    fails += _finite_report(rep)
    if fails:
        return fails

    ref = nn.get_reference(scenario.reference)
    nref = nn.get_reference(nominal_ref) if nominal_ref is not None else None
    dt = scenario.dt
    # The comparator's adaptation state is not recorded, so only its first
    # step (theta = theta0) can be replayed.
    samples = [0] if controller == "nussbaum" else \
        sorted({0, nsteps // 3, 2 * nsteps // 3, nsteps - 1})
    for k in samples:
        t, x = float(traj.t[k]), traj.x[k]
        ys = ref.stack(t, n)
        if not _close(traj.t[k], k * dt):
            fails.append(f"t[{k}] = {traj.t[k]!r}, expected {k * dt!r}")
        h = nn.error_coords(sysm, x, ys, gains)
        if not all(_close(a, b) for a, b in zip(traj.h[k], h)):
            fails.append(f"h[{k}] = {list(traj.h[k])} but error_coords gives {list(h)}")
        if not (_close(traj.yr[k], ys[0]) and _close(traj.margin[k], ys[0] - x[0])):
            fails.append(f"yr/H at sample {k} disagree with the reference")
        mode = -1
        if controller == "safety-filter":
            mode = 0 if ys[0] - x[0] >= 0.0 else 1
        if int(traj.mode[k]) != mode:
            fails.append(f"mode[{k}] = {int(traj.mode[k])}, expected {mode}")
            continue
        law = _law(nn, sysm, controller, gains, ref, spec, nref, mode)
        state = np.concatenate([x, [theta0]]) if controller == "nussbaum" else x
        u, _ = law(t, state)
        if not _close(traj.u[k], u):
            fails.append(f"u[{k}] = {traj.u[k]!r} but the {controller} law gives {u!r}")

        def rhs(tt, s, law=law):
            u, aux = law(tt, s)
            return np.concatenate([nn.eval_dynamics(sysm, s[:n], u), aux])

        nxt = nn.rk4_step(rhs, t, state, dt)[:n]
        if not all(_close(a, b) for a, b in zip(traj.x[k + 1], nxt)):
            fails.append(f"x[{k + 1}] = {list(traj.x[k + 1])} but rk4_step over the "
                         f"{controller} law gives {list(nxt)}")
    if controller in ("es", "safety-filter") and rep.max_h1 > MAX_H1_CEILING \
            and traj.h[0, 0] < 0:
        fails.append(f"overshoot max_h1 = {rep.max_h1:.6g} > {MAX_H1_CEILING}")
    if controller == "safety-filter" and rep.min_margin < MIN_MARGIN_FLOOR:
        fails.append(f"safety margin min_H = {rep.min_margin:.6g} < {MIN_MARGIN_FLOOR:.6g}")
    return fails


def csv_output(traj, text):
    """The CSV has the documented columns and round-trips sampled rows."""
    n = traj.x.shape[1]
    lines = text.split("\n")
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
        + [f"h{i}" for i in range(1, n + 1)] + ["u", "yr", "H", "mode"]
    if lines[0].split(",") != header:
        return [f"CSV header {lines[0]!r}"]
    rows = len(traj.t)
    if len(lines) != rows + 2 or lines[-1] != "":
        return [f"CSV has {len(lines) - 2} rows, expected {rows}"]
    fails = []
    for k in sorted({0, rows // 2, rows - 1}):
        fields = lines[k + 1].split(",")
        want = [traj.t[k], *traj.x[k], *traj.h[k], traj.u[k], traj.yr[k],
                traj.margin[k]]
        if len(fields) != len(header) or [float(v) for v in fields[:-1]] != list(want) \
                or fields[-1] != MODE_LABELS[int(traj.mode[k])]:
            fails.append(f"CSV row {k} does not round-trip: {lines[k + 1]!r}")
    return fails


def sweep_output(result, grid, outs):
    """Every grid point valid, finite and nonovershooting.  The sweeps share
    their base point (kappa_n = 1.1, omega = 60), whose reports must agree
    exactly."""
    (key, values), = grid.items()
    if len(result.rows) != len(values):
        return [f"sweep over {key} returned {len(result.rows)} rows for {len(values)} points"]
    fails = []
    for report, verdict, overrides in result.rows:
        if report is None or verdict != "valid":
            fails.append(f"grid point {overrides} not simulated: {verdict}")
            continue
        fails += [f"{overrides}: {msg}" for msg in _finite_report(report)]
        if report.max_h1 > MAX_H1_CEILING:
            fails.append(f"{overrides}: max_h1 = {report.max_h1:.6g} > {MAX_H1_CEILING}")
    other = outs.get("sweep.kappa_n")
    if key == "omega" and other is not None and not fails:
        base = result.rows[0][0]
        ref = other.rows[0][0]
        if (base.max_h1, base.tail_abs_h1, base.min_margin) != \
                (ref.max_h1, ref.tail_abs_h1, ref.min_margin):
            fails.append("sweeps disagree at their shared base point")
    return fails


def deviation_output(study, omegas):
    """Finite deviations that shrink with frequency, as criterion 4 pins:
    non-increasing within 5% and the last at most half the first."""
    if tuple(study.omegas) != tuple(omegas):
        return [f"deviation study omegas {study.omegas}"]
    d = study.deviations
    if any(study.blowups) or not all(math.isfinite(v) and v > 0.0 for v in d):
        return [f"deviations {d} (blowups {study.blowups})"]
    if not (all(b <= 1.05 * a for a, b in zip(d, d[1:])) and d[-1] <= 0.5 * d[0]):
        return [f"deviations {d} do not shrink with the dither frequency"]
    return []


def compare_recorded(observed, expected, tolerance):
    """Compare observed values with recorded ones: |obs - rec| must stay
    within tolerance['abs'] + tolerance['rel'] * |rec|."""
    fails = []
    for key, rec in expected.items():
        obs = observed.get(key)
        if obs is None:
            fails.append(f"{key}: not produced (recorded {rec!r})")
        elif not abs(obs - rec) <= tolerance["abs"] + tolerance["rel"] * abs(rec):
            fails.append(f"{key} = {obs!r} differs from recorded {rec!r}")
    return fails
