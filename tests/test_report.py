"""``overshoot_report`` against the report as first written: one pass per
metric, and the ceiling evaluated at every sample."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonovershoot import GainConfig, bound_report, overshoot_report, sim
from nonovershoot.sim import gains_text

FIELDS = ("scenario", "gains_text", "max_h1", "t_at_max", "tail_abs_h1", "envelope_violation",
          "min_margin", "delta_est", "max_abs_u")


def reference_report(traj, gains, bounds, delta_est, scenario_id="run") -> dict:
    """The report's fields as the first ``overshoot_report`` computed them."""
    h1 = traj.h[:, 0]
    imax = int(h1.argmax())
    tail = traj.t >= 0.8 * traj.t[-1]
    viol = float("nan")
    if bounds is not None and bounds.envelope_weights is not None:
        env = bounds.envelope(traj.h[0].tolist(), gains.c, traj.t, delta_est)
        viol = max(0.0, float((h1 - env).max()))
    return dict(scenario=scenario_id, gains_text=gains_text(gains), max_h1=float(h1[imax]),
                t_at_max=float(traj.t[imax]), tail_abs_h1=float(abs(h1[tail]).max()),
                envelope_violation=viol, min_margin=float(traj.margin.min()),
                delta_est=delta_est, max_abs_u=float(abs(traj.u).max()))


def _case(n, rows, dt, seed, level, spread, levels, h0_scale, special):
    """A run's record of rows samples on the grid k * dt, n states: h1 about
    level + spread * U(-1, 1), rounded to levels values where levels (so
    that its maximum ties), the first sample's h scaled by h0_scale, and
    special, (row, value), written into h1."""
    rng = np.random.default_rng(seed)
    record = rng.uniform(-1.0, 1.0, size=(rows, 2 * n + 4))
    record[:, 0] = np.arange(rows) * dt
    h1 = level + spread * rng.uniform(-1.0, 1.0, size=rows)
    if levels:
        h1 = level + spread * np.round(h1 * levels) / levels
    record[:, n + 1] = h1
    record[0, n + 1:2 * n + 1] *= h0_scale
    if special is not None:
        record[special[0] % rows, n + 1] = special[1]
    record[:, -1] = rng.integers(-1, 2, size=rows)
    return sim._trajectory(record)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 4))
    c = sorted(draw(st.lists(st.floats(1.05, 6.0), min_size=n, max_size=n, unique=True)),
               reverse=True)
    gains = GainConfig(c=tuple(c), kappa=draw(st.floats(0.2, 20.0)), lam=4.0, beta=0.8,
                       omega=60.0)
    mode = draw(st.sampled_from(["descending", "descending", "uniform", None]))
    bounds = None if mode is None else bound_report(gains, mode)
    delta = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    floor = 1.0 / (gains.kappa * math.prod(c)) + delta
    # h1 below the floor, straddling it, or above it
    level = floor + draw(st.sampled_from([-2.0, -0.5, 0.0, 0.3, 2.0]))
    traj = _case(n, draw(st.integers(1, 3000)),
                 draw(st.sampled_from([1e-3, 0.25, 0.1, 1 / 3, 2e-4])),
                 draw(st.integers(0, 2 ** 32 - 1)), level,
                 draw(st.sampled_from([0.0, 0.01, 0.5, 1.0])),
                 draw(st.sampled_from([0, 0, 2, 16])),
                 draw(st.sampled_from([0.0, 1.0, 10.0])),
                 draw(st.one_of(st.none(), st.tuples(
                     st.integers(0, 3000),
                     st.sampled_from([math.nan, math.inf, -math.inf, floor, 1e300])))))
    return traj, gains, bounds, delta


def _same(report, ref: dict):
    assert {f: repr(getattr(report, f)) for f in FIELDS} == {f: repr(v) for f, v in ref.items()}


@given(cases())
@settings(max_examples=300)
@example((_case(2, 6, 0.25, 5, 1.0, 0.5, 0, 1.0, None), GainConfig(
    c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0), None, 0.1))
def test_report_equals_the_reference_bit_for_bit(case):
    traj, gains, bounds, delta = case
    with np.errstate(invalid="ignore"):     # inf - inf, inf * 0 where special is inf
        _same(overshoot_report(traj, gains, bounds, delta, scenario_id="x"),
              reference_report(traj, gains, bounds, delta, scenario_id="x"))


def test_the_tail_can_start_on_a_sample():
    # 0.8 * 1.25 is 1.0, the fifth sample: the tail is its last two rows
    traj = _case(2, 6, 0.25, 5, 1.0, 0.5, 0, 1.0, None)
    assert traj.t[4] == 0.8 * traj.t[-1]
    gains = GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    rep = overshoot_report(traj, gains, bound_report(gains, "descending"), 0.0)
    assert rep.tail_abs_h1 == max(abs(traj.h[4, 0]), abs(traj.h[5, 0]))
