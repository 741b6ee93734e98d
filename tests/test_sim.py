import math

import numpy as np
import pytest

from nonovershoot import (BlowupError, DriftBound, GainConfig, LyapunovSpec, Reference,
                          Scenario, SineReference, SystemModel, bound_report, dualnum,
                          error_coords, es_control, eval_dynamics, example_lyapunov_spec,
                          get_reference, nominal_backstepping, refine_dt, rk4_step,
                          run_scenario, state_from_errors, sweep)
from nonovershoot.sim import DEFAULT_PSI_SCALE, fmt, gains_text

from conftest import chain_integrator, random_gains, random_poly_system


def chain_gains():
    return GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)


# --- integrator -------------------------------------------------------------------

def test_rk4_exponential_decay():
    x = np.array([1.0])
    for k in range(10):
        x = rk4_step(lambda t, v: -v, k * 0.1, x, 0.1)
    assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_rk4_constant_field():
    x = rk4_step(lambda t, v: np.zeros_like(v), 0.0, np.array([2.0, -3.0]), 0.5)
    assert x == pytest.approx([2.0, -3.0])


def test_rk4_unit_rate_exact():
    x = np.array([1.0])
    for k in range(4):
        x = rk4_step(lambda t, v: np.ones_like(v), k * 0.25, x, 0.25)
    assert x[0] == 2.0


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_step(lambda t, v: v, 0.0, np.array([1.0]), 0.0)


def test_rk4_flags_nonfinite():
    with pytest.raises(BlowupError):
        rk4_step(lambda t, v: v * float("inf"), 0.0, np.array([1.0]), 0.1)


def test_refine_dt():
    assert refine_dt(1e-3, 60.0) == 1e-3
    refined = refine_dt(1e-3, 240.0)
    assert refined == pytest.approx(5e-4)
    assert refined <= 2 * math.pi / 240.0 / 40.0
    k = 1e-3 / refine_dt(1e-3, 960.0)
    assert k == pytest.approx(round(k))


# --- run_scenario -----------------------------------------------------------------

def test_regulation_equilibrium_is_exact():
    sys = chain_integrator(2)
    sc = Scenario(x0=(0.0, 0.0), t_end=2.0, dt=1e-3, reference="constant:0")
    traj, rep = run_scenario(sys, "nominal", chain_gains(), sc)
    assert rep.max_h1 <= 1e-9
    assert rep.tail_abs_h1 <= 1e-9
    assert np.max(np.abs(traj.u)) <= 1e-9


def test_trajectory_grid_invariants(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    traj, _ = run_scenario(demo, "es", gains, sc)
    assert len(traj.t) == 1001
    steps = np.diff(traj.t)
    assert np.allclose(steps, 1e-3, rtol=0, atol=1e-12)
    for col in (traj.x, traj.h, traj.u, traj.yr, traj.margin):
        assert np.all(np.isfinite(col))
        assert len(col) == len(traj.t)
    assert traj.complete


def test_recorded_input_matches_library_law(demo, gains):
    # the simulator's seeking law is the public control law, bit for bit:
    # every es sample, and every override sample of the safety filter
    spec = example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)
    es, _ = run_scenario(demo, "es", gains, Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3),
                         lyap_spec=spec)
    filt, _ = run_scenario(demo, "safety-filter", gains,
                           Scenario(x0=(0.2, 0.0), t_end=1.0, dt=1e-3), lyap_spec=spec)
    override = filt.mode == 1
    assert override.sum() > 500
    for traj, rows in ((es, np.ones(len(es.t), dtype=bool)), (filt, override)):
        for t, h, u in zip(traj.t[rows], traj.h[rows], traj.u[rows]):
            assert u == es_control(spec, gains, t, h)


def test_dither_resolution_precondition(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=5e-3)
    with pytest.raises(ValueError):
        run_scenario(demo, "es", gains, sc)
    # the same step is fine for the dither-free comparator
    run_scenario(demo, "nussbaum", gains, Scenario(x0=(-0.5, 0.0), t_end=0.1, dt=5e-3))


def test_unknown_controller(demo, gains):
    with pytest.raises(KeyError):
        run_scenario(demo, "pid", gains, Scenario(x0=(0, 0), t_end=1.0, dt=1e-3))


def test_blowup_keeps_partial_trajectory(demo, gains):
    cert = example_lyapunov_spec(demo, gains, scale=1.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    with pytest.raises(BlowupError) as exc_info:
        run_scenario(demo, "es", gains, sc, lyap_spec=cert)
    partial = exc_info.value.partial_trajectory
    assert not partial.complete
    assert 0 < len(partial.t) < 1001
    assert np.all(np.isfinite(partial.x))


def test_safety_filter_mode_column(demo, gains):
    sc = Scenario(x0=(0.2, 0.0), t_end=2.0, dt=1e-3)
    traj, rep = run_scenario(demo, "safety-filter", gains, sc)
    # mode decided from the margin sign at every sample
    assert np.all((traj.margin >= 0) == (traj.mode == 0))
    assert set(np.unique(traj.mode)) <= {0, 1}
    assert rep.min_margin < 0  # starts unsafe


def test_csv_format(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    traj, _ = run_scenario(demo, "es", gains, sc)
    lines = traj.to_csv().splitlines()
    assert lines[0] == "t,x1,x2,h1,h2,u,yr,H,mode"
    assert len(lines) == 12
    cell = lines[1].split(",")[1]
    assert cell == fmt(-0.5)
    assert lines[1].split(",")[-1] == "-"


def test_csv_seventeen_digits():
    assert fmt(1 / 3) == "0.33333333333333331"
    assert fmt(0.1) == "0.10000000000000001"


def test_determinism_bitwise(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    a, _ = run_scenario(demo, "es", gains, sc)
    b, _ = run_scenario(demo, "es", gains, sc)
    assert a.to_csv() == b.to_csv()


def test_gain_floor_holds_along_demo_trajectory(demo, gains):
    # the squared input gain never grazes its declared floor on a real run
    sc = Scenario(x0=(-0.5, 0.0), t_end=5.0, dt=1e-3)
    traj, _ = run_scenario(demo, "es", gains, sc)
    g2 = (0.2 * np.sin(traj.x[:, 1]) + 1.2) ** 2
    assert np.min(g2) >= demo.xi1 - 1e-12


def test_envelope_violation_small_for_both_inits(demo, gains):
    for x0 in ((-0.5, 0.0), (0.2, 0.0)):
        sc = Scenario(x0=x0, t_end=5.0, dt=1e-3)
        _, rep = run_scenario(demo, "es", gains, sc)
        assert rep.envelope_violation <= 0.1


def test_report_states_delta_source(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.5, dt=1e-3)
    _, rep = run_scenario(demo, "es", gains, sc, delta_est=0.37,
                          delta_source="study")
    assert rep.delta_est == 0.37
    assert rep.delta_source == "study"


def test_scalar_plant_paths():
    # n = 1: no stabilizing stages, trivial error coordinate
    sys = chain_integrator(1)
    g = GainConfig(c=(2.0,), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    sc = Scenario(x0=(0.4,), t_end=4.0, dt=1e-3, reference="constant:1")
    traj, rep = run_scenario(sys, "nominal", g, sc)
    assert abs(traj.x[-1, 0] - 1.0) < 1e-3
    from nonovershoot import DriftBound, LyapunovSpec

    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 0.1), offset=0.0), 2.0, 1.1)
    traj2, _ = run_scenario(sys, "es", g, sc, lyap_spec=spec)
    assert traj2.complete and np.all(np.isfinite(traj2.h))


# --- report ------------------------------------------------------------------------

def test_report_on_reference_run():
    sys = chain_integrator(2)
    sc = Scenario(x0=(0.0, 0.0), t_end=1.0, dt=1e-3, reference="constant:0")
    _, rep = run_scenario(sys, "nominal", chain_gains(), sc)
    assert rep.max_h1 == pytest.approx(0.0, abs=1e-12)
    assert rep.envelope_violation == pytest.approx(0.0, abs=1e-12)


def test_report_envelope_anchored_at_initial_errors(demo, gains):
    sc = Scenario(x0=(0.2, 0.0), t_end=1.0, dt=1e-3)
    traj, rep = run_scenario(demo, "es", gains, sc, delta_est=0.1)
    bounds = bound_report(gains, "descending")
    # h(0) = [0.2, 0.8]; envelope at t=0 is d2 + delta + 0.2 + 2*0.8
    env0 = bounds.envelope(np.abs(traj.h[0]), gains.c, 0.0, 0.1)
    assert env0 == pytest.approx(0.30303 + 0.1 + 0.2 + 1.6, abs=1e-5)
    assert rep.envelope_violation == 0.0
    assert rep.delta_est == 0.1
    assert rep.delta_source == "configured"


def test_report_csv_row(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.5, dt=1e-3)
    _, rep = run_scenario(demo, "es", gains, sc)
    row = rep.csv_row().split(",")
    assert len(row) == 7
    assert row[0] == "example/es/x0=-0.5|0"
    assert row[1] == gains_text(gains)


def test_gains_text(gains):
    assert gains_text(gains) == "c1=2;c2=1.5;kappa_n=1.1;lambda=4;beta=0.8;omega=60"


# --- sweep -------------------------------------------------------------------------

def test_sweep_empty_grid(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.1, dt=1e-3)
    result = sweep(demo, "es", gains, sc, {})
    assert result.to_csv().splitlines()[0].endswith("verdict")
    assert len(result.rows) == 1  # product of nothing is one empty point


def test_sweep_invalid_point_not_simulated(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.1, dt=1e-3)
    result = sweep(demo, "es", gains, sc, {"lambda": [4.0, 0.1]}, mode="descending")
    assert result.rows[0][1] == "valid"
    assert result.rows[1][0] is None
    assert result.rows[1][1].startswith("invalid")
    lines = result.to_csv().splitlines()
    assert len(lines) == 3


def test_sweep_refines_dt_for_fast_dither(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    result = sweep(demo, "es", gains, sc, {"omega": [60.0, 960.0]})
    assert all(v == "valid" for _, v, _ in result.rows)


def test_sweep_row_order_stable(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    grid = {"kappa_n": [1.1, 3.0], "beta": [0.8, 0.9]}
    result = sweep(demo, "es", gains, sc, grid)
    labels = [row[2] for row in result.rows]
    assert labels == [{"kappa_n": 1.1, "beta": 0.8}, {"kappa_n": 1.1, "beta": 0.9},
                      {"kappa_n": 3.0, "beta": 0.8}, {"kappa_n": 3.0, "beta": 0.9}]


def test_sweep_rejects_unknown_key(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    with pytest.raises(KeyError):
        sweep(demo, "es", gains, sc, {"mass": [1.0]})


def test_sweep_records_divergent_point_and_goes_on(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    result = sweep(demo, "es", gains, sc, {"x0": [(0.0, 0.4), (-0.5, 0.0)]}, psi_scale=1.0)
    assert len(result.rows) == 2
    (clean, ok, _), (none, verdict, overrides) = result.rows
    assert ok == "valid" and clean.max_h1 < 0.1
    assert none is None and overrides == {"x0": (-0.5, 0.0)}
    assert verdict.startswith("diverged at t=") and "," not in verdict
    lines = result.to_csv().splitlines()
    assert len(lines) == 3 and lines[2].startswith("x0=-0.5|0,")
    assert lines[2].endswith(verdict)


def test_sweep_x0_axis(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    result = sweep(demo, "es", gains, sc, {"x0": [(-0.5, 0.0), (0.2, 0.0)]})
    assert len(result.rows) == 2
    assert "x0=0.2|0" in result.rows[1][0].scenario


# --- higher-order plants and evaluation counts --------------------------------------

def test_nominal_run_on_five_state_plant_replays():
    sys = random_poly_system(5, 3)
    gains = random_gains(5, 3, descending=True)
    ref = get_reference("sine04")
    x0 = state_from_errors(sys, [-0.1, 0.0, 0.0, 0.0, 0.0], ref.stack(0.0, 5), gains)
    dt = 1e-3
    traj, _ = run_scenario(sys, "nominal", gains,
                             Scenario(x0=tuple(x0), t_end=0.05, dt=dt))
    assert traj.complete and len(traj.t) == 51 and np.all(np.isfinite(traj.x))

    def law(t, v):
        return nominal_backstepping(sys, v, ref.stack(t, 5), gains)

    assert traj.u[0] == pytest.approx(law(0.0, x0), rel=1e-12)
    assert traj.h[0] == pytest.approx(error_coords(sys, x0, ref.stack(0.0, 5), gains),
                                      rel=1e-12, abs=1e-15)
    x1 = rk4_step(lambda t, v: eval_dynamics(sys, v, law(t, v)), 0.0, x0, dt)
    assert traj.x[1] == pytest.approx(x1, rel=1e-12, abs=1e-15)


def test_unsupported_drift_operation_is_not_divergence():
    # math.sin cannot take the jets the synthesis pass feeds the drift
    sys = SystemModel(n=2, drift=(lambda xs: math.sin(xs[0]), lambda xs: 0.0),
                      gain=lambda xs: 1.0, xi1=1.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    with pytest.raises(TypeError):
        run_scenario(sys, "nominal", chain_gains(), sc)


def test_four_controller_evaluations_per_step():
    # nominal law on a chain: each step reads the gain once for the floor
    # check and twice per RK4 stage (law + plant), the last sample once
    calls = []
    base = chain_integrator(2)
    sys = SystemModel(n=2, drift=base.drift, xi1=1.0,
                      gain=lambda xs: calls.append(1) or 1.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference="constant:0")
    run_scenario(sys, "nominal", chain_gains(), sc)
    assert len(calls) == 10 * (1 + 4 * 2) + 1


# --- per-node reference stacks, partial records, error classification ---------------

def test_one_reference_stack_per_rk4_node(demo, gains):
    # start (shared by the record and k1), midpoint (k2 and k3), end
    calls = []

    class CountedSine(SineReference):
        def derivatives(self, t, n):
            calls.append(t)
            return super().derivatives(t, n)

    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=CountedSine())
    run_scenario(demo, "es", gains, sc)
    assert len(calls) == 3 * 10 + 1


def _exp_plant():
    return SystemModel(n=2, drift=(lambda xs: dualnum.exp(xs[0]), lambda xs: 0.0),
                       gain=lambda xs: 1.0, xi1=1.0)


def _log_plant():
    return SystemModel(n=2, drift=(lambda xs: 0.0, lambda xs: math.log(xs[0])),
                       gain=lambda xs: 1.0, xi1=1.0)


@pytest.mark.parametrize("plant, controller, x0, rows, cause", [
    (_exp_plant, "nominal", (710.0, 0.0), 0, "range"),   # overflow in the first sample
    (_log_plant, "es", (-0.5, 0.0), 1, "domain"),        # math-domain error in k1
])
def test_partial_trajectory_holds_exactly_the_recorded_rows(plant, controller, x0,
                                                            rows, cause):
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0)), 1.5, 1.1)
    sc = Scenario(x0=x0, t_end=0.01, dt=1e-3, reference="constant:0")
    with pytest.raises(BlowupError, match=cause) as exc_info:
        run_scenario(plant(), controller, chain_gains(), sc, lyap_spec=spec)
    partial = exc_info.value.partial_trajectory
    assert not partial.complete
    assert [len(a) for a in (partial.t, partial.x, partial.h, partial.u, partial.yr,
                             partial.margin, partial.mode)] == [rows] * 7
    assert np.array_equal(partial.t, np.arange(rows) * 1e-3)
    assert np.array_equal(partial.x, np.array([x0] * rows).reshape(rows, 2))
    assert np.all(partial.mode == -1)
    assert len(partial.to_csv().splitlines()) == rows + 1


class _FaultyReference(Reference):
    def derivative(self, t, k):
        raise ValueError("bug")


def test_fault_in_user_code_is_not_divergence(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=_FaultyReference())
    with pytest.raises(ValueError, match="^bug$"):
        run_scenario(demo, "es", gains, sc)
