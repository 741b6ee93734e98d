import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonovershoot import (DriftBound, GainConfig, InitSignError, SystemModel,
                          bound_report, check_gains, default_drift_bound, dualnum,
                          error_coords, error_drift, eval_dynamics, gain_floors,
                          get_reference, demo_gains, scale_drift_bound,
                          state_from_errors, virtual_controllers)
from nonovershoot.control import standard_error_coords
from nonovershoot.sim import rk4_step
from nonovershoot.synth import _alpha, _alpha_rate

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


def test_drift_bound_validation():
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(1.0, 1.0))  # nonzero constant
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(0.0, -1.0))
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(0.0, 1.0), growth_fn=lambda r: r)
    with pytest.raises(ValueError):
        DriftBound(growth_coeffs=(0.0, 1.0), offset=-0.1)


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
    assert _close(standard_error_coords(sys, x, ys, gains), z)
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
