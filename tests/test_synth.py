import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonovershoot import (DriftBound, GainConfig, InitSignError, Scenario, SystemModel,
                          bound_report, check_gains, default_drift_bound, dualnum,
                          error_coords, error_drift, eval_dynamics, gain_floors,
                          get_reference, demo_gains, nominal_backstepping, run_scenario,
                          scale_drift_bound, state_from_errors, virtual_controllers)
from nonovershoot import sim, synth
from nonovershoot.sim import rk4_step
from nonovershoot.model import singular_gain
from nonovershoot.synth import Bound, Tape, _alpha, _alpha_rate, error_values, render, trace

from conftest import chain_integrator, random_gains, random_poly_system


def ref0(n):
    return get_reference("sine04").stack(0.0, n)


# --- stabilizing functions -----------------------------------------------------

def test_first_stage_demo(demo, gains):
    val, dx, dy = virtual_controllers(demo, [-0.5, 0.0], ref0(2), gains)[0]
    assert val == pytest.approx(1.0)
    assert dx == pytest.approx([-2.0])
    assert dy == pytest.approx([2.0])


def test_first_stage_zero_error():
    sys = chain_integrator(2)
    ys = get_reference("constant:0.7").stack(0.0, 2)
    val, _, _ = virtual_controllers(sys, [0.7, 0.0], ys, demo_gains())[0]
    assert val == 0.0


def test_stack_empty_for_scalar_plant():
    sys = chain_integrator(1)
    g = GainConfig(c=(2.0,), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    assert virtual_controllers(sys, [0.3], get_reference("sine04").stack(0.0, 1), g) == []


def _fd_stage_partials(sys, x, ys, gains, i, eps=1e-6):
    """Central finite differences of stage value i (1-based) as the oracle."""
    def value(xv, yv):
        return virtual_controllers(sys, xv, yv, gains)[i - 1][0]

    dx, dy = [], []
    for k in range(i):
        xp, xm = np.array(x, float), np.array(x, float)
        xp[k] += eps
        xm[k] -= eps
        dx.append((value(xp, ys) - value(xm, ys)) / (2 * eps))
        yp, ym = np.array(ys, float), np.array(ys, float)
        yp[k] += eps
        ym[k] -= eps
        dy.append((value(x, yp) - value(x, ym)) / (2 * eps))
    return np.array(dx), np.array(dy)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partials_match_finite_differences_chain(n):
    sys = chain_integrator(n)
    gains = random_gains(n, seed=3)
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.5, 1.5, size=n)
    ys = get_reference("sine04").stack(rng.uniform(0, 10), n)
    stack = virtual_controllers(sys, x, ys, gains)
    for i, (_, dx, dy) in enumerate(stack, start=1):
        fdx, fdy = _fd_stage_partials(sys, x, ys, gains, i)
        assert dx == pytest.approx(fdx, rel=1e-6, abs=1e-8)
        assert dy == pytest.approx(fdy, rel=1e-6, abs=1e-8)


@given(st.integers(0, 200), st.sampled_from([2, 3, 4]))
@settings(max_examples=25)
def test_partials_exact_random_systems(seed, n):
    sys = random_poly_system(n, seed)
    gains = random_gains(n, seed)
    rng = np.random.default_rng(seed + 2)
    x = rng.uniform(-1.5, 1.5, size=n)
    ys = get_reference("sine04").stack(rng.uniform(0, 10), n)
    stack = virtual_controllers(sys, x, ys, gains)
    for i, (_, dx, dy) in enumerate(stack, start=1):
        fdx, fdy = _fd_stage_partials(sys, x, ys, gains, i)
        scale = np.maximum(1.0, np.abs(fdx))
        assert np.all(np.abs(dx - fdx) / scale <= 1e-6)
        scale = np.maximum(1.0, np.abs(fdy))
        assert np.all(np.abs(dy - fdy) / scale <= 1e-6)


# --- error coordinates -----------------------------------------------------------

def test_error_coords_demo(demo, gains):
    assert error_coords(demo, [-0.5, 0.0], ref0(2), gains) == pytest.approx([-0.5, -0.6])


def test_error_coords_unsafe_init(demo, gains):
    assert error_coords(demo, [0.2, 0.0], ref0(2), gains) == pytest.approx([0.2, 0.8])


def test_error_coords_on_manifold(demo, gains):
    ys = ref0(2)
    x = state_from_errors(demo, [0.0, 0.0], ys, gains)
    assert error_coords(demo, x, ys, gains) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_state_from_errors_demo(demo, gains):
    assert state_from_errors(demo, [-0.5, -0.6], ref0(2), gains) == pytest.approx([-0.5, 0.0])


@given(st.integers(0, 200), st.sampled_from([2, 3, 4]))
@settings(max_examples=30)
def test_triangular_inversion_roundtrip(seed, n):
    sys = random_poly_system(n, seed)
    gains = random_gains(n, seed)
    rng = np.random.default_rng(seed + 5)
    for _ in range(4):
        h = rng.uniform(-3, 3, size=n)
        ys = get_reference("sine04").stack(rng.uniform(0, 20), n)
        back = error_coords(sys, state_from_errors(sys, h, ys, gains), ys, gains)
        assert np.max(np.abs(back - h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))


def test_roundtrip_demo_100_random(demo, gains):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        h = rng.uniform(-4, 4, size=2)
        ys = get_reference("sine04").stack(rng.uniform(0, 50), 2)
        back = error_coords(demo, state_from_errors(demo, h, ys, gains), ys, gains)
        worst = max(worst, float(np.max(np.abs(back - h))))
    assert worst <= 1e-12


# --- residual drift --------------------------------------------------------------

def test_error_drift_demo(demo, gains):
    assert error_drift(demo, [-0.5, 0.0], ref0(2), gains) == pytest.approx(1.05)


def test_error_drift_chain_on_manifold():
    sys = chain_integrator(3)
    gains = random_gains(3, seed=1)
    ys = get_reference("constant:1.5").stack(0.0, 3)
    x = state_from_errors(sys, [0.0, 0.0, 0.0], ys, gains)
    assert error_drift(sys, x, ys, gains) == pytest.approx(0.0, abs=1e-13)


def test_error_drift_matches_trajectory_derivative(demo, gains):
    # open loop (u = 0): the last error coordinate's time derivative IS the drift
    ref = get_reference("sine04")
    dt = 1e-4
    x = np.array([-0.3, 0.2])
    xs = [x.copy()]
    for k in range(2):
        x = rk4_step(lambda t, v: eval_dynamics(demo, v, 0.0), k * dt, x, dt)
        xs.append(x.copy())
    h_last = [error_coords(demo, xs[k], ref.stack(k * dt, 2), gains)[-1] for k in range(3)]
    fd = (h_last[2] - h_last[0]) / (2 * dt)
    psi = error_drift(demo, xs[1], ref.stack(dt, 2), gains)
    assert abs(fd - psi) <= 1e-4 * (1 + abs(psi))


# --- certificate drift bound ------------------------------------------------------

def test_default_bound_demo_values(demo, gains):
    bound = default_drift_bound(demo, gains)
    assert bound.growth(0.0) == 0.0
    assert bound.offset == pytest.approx(1.16)
    # growth(r) = r^2 + 8 r for c1 = 2
    assert bound.growth(1.0) == pytest.approx(9.0)
    assert bound.growth(2.0) == pytest.approx(20.0)


def test_default_bound_dominates_drift_on_grid(demo, gains):
    bound = default_drift_bound(demo, gains)
    ref = get_reference("sine04")
    hs = np.linspace(-5, 5, 21)
    for t in np.linspace(0.0, 50.0, 21):
        ys = ref.stack(t, 2)
        for h1 in hs:
            for h2 in hs:
                x = state_from_errors(demo, [h1, h2], ys, gains)
                psi = error_drift(demo, x, ys, gains)
                r = math.hypot(h1, h2)
                assert abs(psi) <= bound.envelope(r) + 1e-9


def test_default_bound_rejects_other_systems(gains):
    with pytest.raises(ValueError):
        default_drift_bound(chain_integrator(2), gains)


def test_scale_drift_bound(demo, gains):
    bound = default_drift_bound(demo, gains)
    scaled = scale_drift_bound(bound, 0.5)
    assert scaled.offset == pytest.approx(0.58)
    assert scaled.growth(2.0) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        scale_drift_bound(bound, 0.0)


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_scale_drift_bound_rejects_non_finite_scale(demo, gains, scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        scale_drift_bound(default_drift_bound(demo, gains), scale)


def test_drift_bound_validation():
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(1.0, 1.0))  # nonzero constant
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(0.0, -1.0))
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(0.0, 1.0), offset=-0.1)


@pytest.mark.parametrize("coeffs, offset", [
    ((0.0, 1.0, math.nan), 0.0), ((0.0, math.inf), 0.0),
    ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf)])
def test_drift_bound_rejects_non_finite_values(coeffs, offset):
    with pytest.raises(ValueError, match="must be (nonnegative and )?finite"):
        DriftBound(growth_coeffs=coeffs, offset=offset)


@pytest.mark.parametrize("field", ["c", "kappa", "lam", "beta", "omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_gain_config_rejects_non_finite_values(field, value):
    good = dict(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    name = "c2" if field == "c" else field
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
        GainConfig(**{**good, field: (2.0, value) if field == "c" else value})


# --- gain floors -------------------------------------------------------------------

def test_gain_floor_demo_value(demo, gains):
    floors = gain_floors(demo, [-0.5, 0.0], ref0(2), gains)
    assert abs(floors[0] - 0.8) <= 1e-12


def test_gain_floor_consistency_with_error_coords(demo, gains):
    # c1 = 2 > max(0.8, 1) must push the second error negative
    h = error_coords(demo, [-0.5, 0.0], ref0(2), gains)
    assert h[1] == pytest.approx(-0.6)
    assert h[1] < 0


def test_gain_floor_rejects_nonnegative_start(demo, gains):
    with pytest.raises(InitSignError):
        gain_floors(demo, [0.0, 0.0], ref0(2), gains)  # exactly on the boundary
    with pytest.raises(InitSignError):
        gain_floors(demo, [0.2, 0.0], ref0(2), gains)


@given(st.integers(0, 300), st.sampled_from([2, 3, 4]))
@settings(max_examples=30)
def test_floor_selection_forces_negative_chain(seed, n):
    sys = random_poly_system(n, seed)
    rng = np.random.default_rng(seed + 9)
    ys = get_reference("sine04").stack(0.0, n)
    x0 = rng.uniform(-1.5, 1.5, size=n)
    x0[0] = ys[0] - rng.uniform(0.1, 1.5)  # start strictly below the reference
    c = [1.0] * n
    g = random_gains(n, seed)
    for i in range(n - 1):
        trial = GainConfig(c=tuple(c), kappa=g.kappa, lam=g.lam, beta=g.beta,
                           omega=g.omega)
        floors = gain_floors(sys, x0, ys, trial)
        c[i] = max(floors[i], 1.0) + 0.5
    c[n - 1] = 1.5
    final = GainConfig(c=tuple(c), kappa=g.kappa, lam=g.lam, beta=g.beta,
                       omega=g.omega)
    h0 = error_coords(sys, x0, ys, final)
    assert np.all(h0 < 0)


# --- gain checks and bound report --------------------------------------------------

def test_check_gains_demo_descending(demo, gains):
    verdict = check_gains(demo, gains, "descending")
    assert verdict.ok
    assert "valid" in verdict.render()


def test_check_gains_lambda_beta_violated(demo):
    g = GainConfig(c=(2.0, 1.5), kappa=1.1, lam=1.0, beta=0.5, omega=60.0)
    verdict = check_gains(demo, g, "uniform")
    assert not verdict.ok
    assert any("lam*beta" in f for f in verdict.failures)
    # diagnostics spell out both sides of the violated inequality
    text = verdict.render()
    assert "VIOLATED" in text and "0.5" in text and "1" in text


def test_check_gains_nonstrict_chain(demo):
    g = GainConfig(c=(1.5, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    assert not check_gains(demo, g, "descending").ok


def test_check_gains_floor_mode(demo, gains):
    verdict = check_gains(demo, gains, "floors", x0=[-0.5, 0.0], yr_stack=ref0(2))
    assert verdict.ok
    with pytest.raises(ValueError):
        check_gains(demo, gains, "floors")
    with pytest.raises(ValueError):
        check_gains(demo, gains, "mode-nine")


@given(c=st.lists(st.sampled_from([0.5, 1.0, 1.2, 1.5, 2.0, 3.0]), min_size=1, max_size=4),
       lam=st.sampled_from([0.5, 1.25, 4.0]), xi1=st.sampled_from([0.2, 0.8, 1.0]))
def test_descending_bounds_are_the_descending_verdicts(c, lam, xi1):
    # a run's report reads these bounds: where check_gains's descending mode
    # fails (lam * beta = 0.8 * lam against 1/xi1, the chain), none
    sys = chain_integrator(len(c))
    sys = SystemModel(n=sys.n, drift=sys.drift, gain=sys.gain, xi1=xi1)
    g = GainConfig(c=tuple(c), kappa=1.1, lam=lam, beta=0.8, omega=60.0)
    bounds = synth.descending_bounds(sys, g)
    if check_gains(sys, g, "descending").ok:
        assert bounds == bound_report(g, "descending")
    else:
        assert bounds is None


def test_bound_report_values(gains):
    rep = bound_report(gains, "descending")
    assert rep.residual_core == pytest.approx(1.34840, abs=1e-5)
    assert rep.overshoot_core == pytest.approx(0.30303, abs=1e-5)
    assert rep.envelope_weights == pytest.approx((1.0, 2.0))
    assert rep.c_min == 1.5


def test_bound_report_uniform_has_no_envelope(gains):
    rep = bound_report(gains, "uniform")
    assert rep.envelope_weights is None
    with pytest.raises(ValueError):
        rep.envelope([0.1, 0.1], gains.c, 0.0, 0.1)


def test_bound_cores_shrink_with_gains():
    base = demo_gains()
    b0 = bound_report(base, "uniform")
    for bump in ({"c": (3.0, 1.5)}, {"c": (2.0, 1.8)}, {"kappa": 2.0}):
        import dataclasses

        g = dataclasses.replace(base, **bump)
        b = bound_report(g, "uniform")
        assert b.residual_core < b0.residual_core or bump == {"c": (3.0, 1.5)}
        assert b.overshoot_core < b0.overshoot_core
    # d1 depends on min c_i only: raising the minimum must shrink it
    g = dataclasses.replace(base, c=(2.0, 1.8))
    assert bound_report(g, "uniform").residual_core < b0.residual_core


def test_bound_report_needs_cmin_above_one():
    g = GainConfig(c=(2.0, 0.9), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    with pytest.raises(ValueError):
        bound_report(g, "uniform")


def test_envelope_formula(gains):
    rep = bound_report(gains, "descending")
    env0 = rep.envelope([0.2, 0.8], gains.c, 0.0, 0.1)
    assert env0 == pytest.approx(0.30303 + 0.1 + 0.2 + 2.0 * 0.8, abs=1e-5)
    env_inf = rep.envelope([0.2, 0.8], gains.c, 1e6, 0.1)
    assert env_inf == pytest.approx(rep.overshoot_core + 0.1)


def test_gain_config_validation():
    with pytest.raises(ValueError):
        GainConfig(c=(2.0, -1.0), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    with pytest.raises(ValueError):
        GainConfig(c=(2.0,), kappa=0.0, lam=4.0, beta=0.8, omega=60.0)


# --- Taylor pass against the nested-dual oracle -------------------------------------

def trig_exp_system(n, seed):
    """Random polynomial plant with dualnum.sin / dualnum.exp terms added to
    every drift."""
    base = random_poly_system(n, seed)
    rng = np.random.default_rng(seed + 77)
    amp = rng.uniform(-0.5, 0.5, size=(n, 2))

    def make_drift(i):
        def drift(xs, poly=base.drift[i], a=amp[i]):
            return (poly(xs) + a[0] * dualnum.sin(xs[0] * xs[i])
                    + a[1] * dualnum.exp(0.5 * xs[i]))
        return drift

    return SystemModel(n=n, drift=tuple(make_drift(i) for i in range(n)),
                       gain=base.gain, xi1=base.xi1, name=f"trig{n}s{seed}")


def _oracle(sys, x, ys, gains):
    """Error coordinates, coupled coordinates, residual drifts (uncoupled,
    coupled) and open-loop rates of h_1..h_{n-1}, all from nested duals."""
    n, xs, ys = sys.n, tuple(x), tuple(ys)
    stages = virtual_controllers(sys, x, ys, gains)
    h = [xs[0] - ys[0]] + [xs[i] - stages[i - 1][0] - ys[i] for i in range(1, n)]
    z = [xs[0] - ys[0]] + [xs[i] - _alpha(sys, gains.c, i, xs, ys, True) - ys[i]
                           for i in range(1, n)]
    # rate of a_i from its explicit partials: sum_k da/dx_k xdot_k + da/dy^(k-1) y^(k)
    flow = [xs[k + 1] + sys.drift[k](xs[:k + 1]) for k in range(n - 1)]
    rates = [0.0] + [float(np.dot(dx, flow[:i]) + np.dot(dy, ys[1:i + 1]))
                     for i, (_, dx, dy) in enumerate(stages, start=1)]
    h_rates = [flow[i] - ys[i + 1] - rates[i] for i in range(n - 1)]
    base = sys.drift[n - 1](xs) - ys[n]
    drifts = [base if n == 1 else base - _alpha_rate(sys, gains.c, n - 1, xs, ys, c)
              for c in (False, True)]
    return np.array(h), np.array(z), drifts, h_rates


def _close(got, want, rel=1e-12):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("trig", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(seed=st.integers(0, 200))
@settings(max_examples=4)
def test_taylor_pass_matches_nested_duals(seed, n, trig):
    sys = trig_exp_system(n, seed) if trig else random_poly_system(n, seed)
    gains = random_gains(n, seed)
    rng = np.random.default_rng(seed + 11)
    ys = get_reference("sine04").stack(rng.uniform(0, 20), n)
    x = rng.uniform(-1.0, 1.0, size=n)
    x[0] = ys[0] - rng.uniform(0.1, 1.0)      # below the reference, for the floors
    h, z, drifts, h_rates = _oracle(sys, x, ys, gains)

    assert _close(error_coords(sys, x, ys, gains), h)
    assert _close(error_values(sys, gains.c, x, ys, couple=True), z)
    assert _close(error_drift(sys, x, ys, gains), drifts[0])
    assert _close(error_drift(sys, x, ys, gains, couple=True), drifts[1])
    if np.all(h[:-1] != 0.0):
        floors = gain_floors(sys, x, ys, gains)
        # floor_i = -rate_i / h_i; compare the rates, which carry the rounding
        assert _close(-floors * h[:-1], h_rates)
    assert _close(state_from_errors(sys, h, ys, gains), x)
    assert _close(error_coords(sys, state_from_errors(sys, h, ys, gains), ys, gains), h)


def test_unsupported_drift_operation_is_a_type_error():
    sys = SystemModel(n=2, drift=(lambda xs: math.sin(xs[0]), lambda xs: 0.0),
                      gain=lambda xs: 1.0, xi1=1.0)
    ys = ref0(2)
    # order 0 stays on floats, so the values still work ...
    assert error_coords(sys, [0.1, 0.2], ys, demo_gains())[0] == pytest.approx(0.1 - ys[0])
    # ... but a rate needs the drift on a jet
    with pytest.raises(TypeError):
        error_drift(sys, [0.1, 0.2], ys, demo_gains())


# --- the plant's tapes -------------------------------------------------------------
#
# Each tape is pinned bit for bit against the Taylor pass by the loops that
# write it out: h, z and drift by test_sim.py's
# test_generated_step_equals_the_library_laws_bit_for_bit, residual and
# state by test_averaging.py's
# test_generated_averaged_step_equals_rk4_over_averaged_rhs.

TAPE_NAMES = {"h", "z", "residual", "state", "drift", "gain"}


def test_every_traceable_plant_gets_its_tapes(demo):
    for sys in (demo, random_poly_system(4, 1), trig_exp_system(3, 2), chain_integrator(1)):
        assert set(sys._tapes) == TAPE_NAMES
        # traced, not the call tapes of an untraceable plant (below); the
        # random plants' gains use math.sin, which the loops call
        assert not any(tape.calls for name, tape in sys._tapes.items() if name != "gain")
        assert sys._tapes["gain"].calls is (sys.name.startswith(("poly", "trig")))
        if sys._tapes["gain"].calls:        # one call of the gain that the loops bind
            xs = "".join(f"x{i}, " for i in range(sys.n))
            assert _written(sys._tapes["gain"], sys.n) == ([f"v0 = gain(({xs}))"], ["v0"])


# where a drift cannot be traced, each tape is one call of its pass
# (synth.PLANT_PASSES) over the tape's input names, then one entry per item
# of the call's result; written out over those names, its lines and outs
CALL_TAPES_N2 = {
    "h": (["v0 = passes['h'](plant, (c0, c1, ), (x0, x1, ), (y0, y1, y2, ))",
           "v1 = v0[0]", "v2 = v0[1]"], ["v1", "v2"]),
    "z": (["v0 = passes['z'](plant, (c0, c1, ), (x0, x1, ), (y0, y1, y2, ))",
           "v1 = v0[0]", "v2 = v0[1]", "v3 = v0[2]"], ["v1", "v2", "v3"]),
    "residual": (["v0 = passes['residual'](plant, (c0, c1, ), (x0, x1, ), (y0, y1, y2, ))",
                  "v1 = v0[0]"], ["v1"]),
    "state": (["v0 = passes['state'](plant, (c0, c1, ), (x0, x1, ), (y0, y1, y2, ))",
               "v1 = v0[0]", "v2 = v0[1]"], ["v1", "v2"]),
    "drift": (["v0 = passes['drift'](plant, (c0, c1, ), (x0, x1, ), (y0, y1, y2, ))",
               "v1 = v0[0]", "v2 = v0[1]"], ["v1", "v2"]),
}


def _written(tape, n):
    """(lines, outs) of a call tape written out over its own input names."""
    assert tape.calls
    [(lines, outs)] = render([(tape, "v", [f"x{i}" for i in range(n)], "y")])
    return lines, outs


def test_untraceable_drift_keeps_the_taylor_pass():
    # math.sin needs a float: the plant is still built, and the functions
    # that need that drift on a series keep raising TypeError (see above)
    sys = SystemModel(n=2, drift=(lambda xs: math.sin(xs[0]), lambda xs: 0.0),
                      gain=lambda xs: 1.0, xi1=1.0)
    # a drift on numpy arrays may sum in another order on floats: not traced
    arr = SystemModel(n=2, drift=(lambda xs: np.dot([0.5], xs), lambda xs: 0.0),
                      gain=lambda xs: 1.0, xi1=1.0)
    for plant in (sys, arr):
        tapes = plant._tapes
        assert set(tapes) == TAPE_NAMES
        for name, written in CALL_TAPES_N2.items():
            assert _written(tapes[name], 2) == written
        # an item of the call's result is an entry over the call's name
        assert tapes["z"].entries[2] == ("v2", "{}[1]", ("v0",), False)
    lin = SystemModel(n=2, drift=(lambda xs: 0.5 * xs[0], lambda xs: 0.0),
                      gain=lambda xs: 1.0, xi1=1.0)
    x, ys, g = [0.1, 0.2], ref0(2), demo_gains()
    assert error_drift(arr, x, ys, g) == pytest.approx(error_drift(lin, x, ys, g), rel=1e-12)


@pytest.mark.parametrize("value", [None, np.float32(0.5), np.array(0.5)])
def test_a_drift_result_that_is_no_float_keeps_the_drift_call(value):
    # the tape writes a constant result as a float literal only where it is
    # one; anything else leaves the plant untraced, and it is still built
    # with a drift tape that calls the drift
    sys = SystemModel(n=1, drift=(lambda xs: value,), gain=lambda xs: 1.0, xi1=1.0)
    assert _written(sys._tapes["drift"], 1) == (
        ["v0 = passes['drift'](plant, (c0, ), (x0, ), (y0, y1, ))", "v1 = v0[0]"], ["v1"])


def test_tapes_are_not_a_field(demo):
    from dataclasses import fields, replace
    assert "_tapes" not in {f.name for f in fields(demo)}
    assert replace(demo) == demo and hash(replace(demo)) == hash(demo)


# --- rendering: value numbering and nesting ------------------------------------------

def _traced(*entries, outs):
    """A traced tape of the (name, form, operands) entries, none of which
    raises."""
    return Tape(entries=tuple(e + (False,) for e in entries), outs=outs)


def test_an_operation_that_two_segments_share_is_rendered_once():
    # x0 * x1 and x1 * x0 are one operation (IEEE * commutes); x0 - x1 and
    # x1 - x0 are two
    a = _traced(("v0", "{} * {}", ("x0", "x1")), ("v1", "{} + {}", ("v0", "y0")),
                ("v2", "{} - {}", ("x0", "x1")), outs=("v1", "v2"))
    b = _traced(("v0", "{} * {}", ("x1", "x0")), ("v1", "{} - {}", ("v0", "x0")),
                ("v2", "{} - {}", ("x1", "x0")), outs=("v1", "v2"))
    assert render([(a, "a", ["s0", "s1"], "ya"), (b, "b", ["s0", "s1"], "ya")]) == [
        [["a0 = s0 * s1", "a1 = a0 + ya0", "a2 = s0 - s1"], ["a1", "a2"]],
        [["b1 = a0 - s0", "b2 = s1 - s0"], ["b1", "b2"]]]


def test_a_repeated_result_reads_the_first_and_a_later_segment_reads_earlier_outs():
    # the residual is rendered over the state's outs (the averaged node);
    # a result that repeats an earlier one is written as that one's name
    state = _traced(("v0", "{} + {}", ("x0", "y0")), ("v1", "{} + {}", ("x0", "y0")),
                    outs=("v1", "v0"))
    residual = _traced(("v0", "{} * {}", ("x0", "x1")), ("v1", "{} * {}", ("v0", "x1")),
                       outs=("v1",))
    assert render([(state, "w", ["p0"], "y"), (residual, "v", state, "y")]) == [
        [["w0 = p0 + y0"], ["w0", "w0"]], [["v1 = (w0 * w0) * w0"], ["v1"]]]


def test_a_law_is_traced_over_named_inputs_and_a_tapes_outs():
    # a text argument is one input of that name, a tape's outs are x0..,
    # which the segment's xs then names; the guard is written as a statement
    z = _traced(("v0", "{} - {}", ("x0", "y0")), outs=("v0", "(0.0)"))
    law = trace(lambda zd, g: (zd[0] + zd[1]) / dualnum.guard(g, 1e-9, singular_gain),
                [z], "g")
    assert [e[1].format(*e[2]) for e in law.entries] == [
        "x0 + x1", "if abs(g) < 1e-09: raise singular_gain(g)", "v0 / g"]
    assert render([(z, "z", ["s0"], "ya"), (law, "u", z, "")]) == [
        [["z0 = s0 - ya0"], ["z0", "(0.0)"]],
        [["if abs(g) < 1e-09: raise singular_gain(g)", "u2 = (z0 + (0.0)) / g"], ["u2"]]]


def test_a_call_line_in_two_segments_is_kept_twice():
    # a call runs user code, which may count its calls: never merged, unlike
    # the same text traced
    call = Tape(entries=(("v0", "plant.drift[0](({}, ))", ("x0",), True),), outs=("v0",),
                calls=True)
    assert render([(call, "f", ["s0"], ""), (call, "g", ["s0"], "")]) == [
        [["f0 = plant.drift[0]((s0, ))"], ["f0"]], [["g0 = plant.drift[0]((s0, ))"], ["g0"]]]
    traced = _traced(("v0", "plant.drift[0](({}, ))", ("x0",)), outs=("v0",))
    assert render([(traced, "f", ["s0"], ""), (traced, "g", ["s0"], "")]) == [
        [["f0 = plant.drift[0]((s0, ))"], ["f0"]], [[], ["f0"]]]


def test_a_call_tape_keeps_only_the_items_its_reader_reads():
    # a kernel over a coordinate call that reads its last two items: the
    # call and those items are written, the first item is not, and its out
    # stays in place so that x1, x2 still name the items read; a traced
    # tape is left as it is
    call = synth._call_tape("z", ["c0"], ["x0", "x1"], ["y0", "y1", "y2"])
    law = trace(lambda zd: zd[1] - zd[2], [call])
    read = synth.items_read(call, law)
    assert read.outs == call.outs and read.entries == call.entries[:1] + call.entries[2:]
    assert [lines for lines, _ in render([(read, "z", ["s0", "s1"], "ya"),
                                          (law, "u", read, "")])] == [
        ["z0 = passes['z'](plant, (c0, ), (s0, s1, ), (ya0, ya1, ya2, ))", "z2 = z0[1]",
         "z3 = z0[2]"], ["u0 = z2 - z3"]]
    traced = _traced(("v0", "{} - {}", ("x0", "y0")), outs=("v0",))
    assert synth.items_read(traced, law) == traced


def test_exact_identities_are_not_written_and_run_constants_are_bound_once():
    # x / 1, 1 * x and x - 0.0 are x for every x; x + 0.0 and x - (-0.0) map
    # -0.0 to +0.0 and stay.  An operation over run constants alone that
    # cannot raise is written once per run, in the bound lines, and its
    # repeat in a later segment (or render) reads that name
    tape = _traced(("v0", "{} / {}", ("x0", "1")), ("v1", "{} * {}", ("1", "v0")),
                   ("v2", "{} - {}", ("v1", "0.0")), ("v3", "{} + {}", ("v2", "0.0")),
                   ("v4", "-{}", ("c0",)), ("v5", "{} * {}", ("v4", "v3")),
                   ("v6", "{} - {}", ("v5", "(-0.0)")), ("v7", "{} * {}", ("y0", "y1")),
                   outs=("v6", "v7"))
    bound = Bound(["c0"])
    assert render([(tape, "v", ["s0"], ["(0.5)", "r0"])], bound) == [
        [["v6 = (b0 * (s0 + 0.0)) - (-0.0)", "v7 = (0.5) * r0"], ["v6", "v7"]]]
    assert bound.lines == ["b0 = -c0"]
    bound.names.add("r0")
    assert render([(tape, "w", ["p0"], ["(0.5)", "r0"])], bound) == [
        [["w6 = (b0 * (p0 + 0.0)) - (-0.0)"], ["w6", "b1"]]]
    assert bound.lines == ["b0 = -c0", "b1 = (0.5) * r0"]


def test_the_n4_nominal_loop_negates_no_gain_and_divides_by_no_one():
    source = sim._step_source(random_poly_system(4, 0), "nominal", None, "call")
    assert re.findall(r"^ *(b\d+) = -c(\d)$", source, re.M) == [
        ("b0", "0"), ("b1", "1"), ("b2", "2"), ("b3", "3")]
    assert len(re.findall(r"-c\d", source)) == 4
    assert not re.search(r"/ 1\b|\b1 \*|\* 1\b| - 0\.0\b", source)


def test_an_operation_that_can_raise_is_written_even_when_unread():
    div = Tape(entries=(("v0", "{} / {}", ("x0", "x1"), True),
                        ("v1", "{} * {}", ("x0", "x1"), False),
                        ("v2", "{} + {}", ("v1", "x0"), False)), outs=("v2",))
    assert render([(div, "v", ["s0", "s1"], "")]) == [
        [["v0 = s0 / s1", "v2 = (s0 * s1) + s0"], ["v2"]]]


def test_long_single_use_chains_are_split_and_stay_bit_identical():
    # a 300-term sum is one chain of single-use operations: written into a
    # single expression it would nest past the parser's limit, and the
    # generated loop that writes out the drift and z tapes would not compile
    coef = np.random.default_rng(3).uniform(-1.0, 1.0, size=300)

    def drift(xs):
        acc = 0.0
        for k in coef:
            acc = acc + k * xs[0]
        return acc

    sys = SystemModel(n=2, drift=(drift, lambda xs: xs[0] * xs[1]), gain=lambda xs: 1.0,
                      xi1=1.0)
    for tape in sys._tapes.values():
        assert not tape.calls
        [(lines, _)] = render([(tape, "v", ["x0", "x1"], "y")])
        assert max((line.count("(") for line in lines), default=0) < 100
    gains = GainConfig(c=(1.5, 1.2), kappa=1.0, lam=4.0, beta=0.8, omega=60.0)
    ref = get_reference("sine04")
    traj, _ = run_scenario(sys, "nominal", gains,
                           Scenario(x0=(0.3, -0.7), t_end=3e-3, dt=1e-3, reference=ref))
    for t, x, u in zip(traj.t, traj.x, traj.u):
        assert u == nominal_backstepping(sys, x, ref.stack(t, 2), gains)
