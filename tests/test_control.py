import math

import numpy as np
import pytest
from scipy.integrate import quad

from nonovershoot import (DriftBound, GainConfig, LyapunovSpec, NussbaumState,
                          SafetySwitch, Scenario, es_control, example_lyapunov_spec,
                          get_reference, lyapunov_grad_last, lyapunov_value,
                          lyapunov_weight, nominal_backstepping, nussbaum_control,
                          run_scenario, safety_filter)
from nonovershoot.control import SingularGainError, ideal_input, nussbaum_gain
from nonovershoot.synth import coupled_values, error_values

from conftest import chain_integrator


@pytest.fixture(scope="module")
def spec(demo, gains):
    return example_lyapunov_spec(demo, gains)


def ref0(n=2):
    return get_reference("sine04").stack(0.0, n)


# --- radial weight -------------------------------------------------------------

def test_weight_at_zero_no_offset():
    bound = DriftBound(growth_coeffs=(0.0, 1.0), offset=0.0)
    spec0 = LyapunovSpec(drift_bound=bound, c_n=1.5, kappa=1.1)
    assert lyapunov_weight(spec0, 0.0) == pytest.approx(1.5)


def test_weight_demo_value(spec):
    # 1.5 + 1.1*(1.16 + 1.16^2)
    assert lyapunov_weight(spec, 0.0) == pytest.approx(4.25616)


def test_weight_strictly_increasing(spec):
    rs = np.arange(0.0, 10.0, 0.05)
    vals = [lyapunov_weight(spec, r) for r in rs]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    for r in rs:
        assert lyapunov_weight(spec, r + 1e-3) > lyapunov_weight(spec, r)


def test_weight_floor_is_cn(spec, gains):
    for r in np.linspace(0, 20, 101):
        assert lyapunov_weight(spec, r) >= gains.c[-1]


def test_weight_rejects_negative_radius(spec):
    with pytest.raises(ValueError):
        lyapunov_weight(spec, -0.1)


@pytest.mark.parametrize("c_n, kappa", [(math.nan, 1.1), (math.inf, 1.1), (1.5, math.nan),
                                        (1.5, math.inf), (0.0, 1.1), (1.5, -1.0)])
def test_spec_rejects_non_positive_or_non_finite_constants(c_n, kappa):
    bound = DriftBound(growth_coeffs=(0.0, 1.0))
    with pytest.raises(ValueError, match="^(c_n|kappa) must be positive and finite, got "):
        LyapunovSpec(drift_bound=bound, c_n=c_n, kappa=kappa)


# --- Lyapunov value -------------------------------------------------------------

def test_value_zero(spec):
    assert lyapunov_value(spec, [0.0, 0.0]) == 0.0


def test_value_radial_symmetry(spec):
    h = np.array([0.3, -0.7])
    for perm in ([0.3, -0.7], [-0.7, 0.3], [0.7, 0.3]):
        assert lyapunov_value(spec, perm) == pytest.approx(lyapunov_value(spec, h))


def test_value_against_midpoint_riemann(spec):
    # brute-force quadrature oracle: 1e6-point midpoint rule over [0, 1],
    # with the weight evaluated through its own polynomial coefficients
    npts = 1_000_000
    r = (np.arange(npts) + 0.5) / npts
    coeffs = np.array(spec._weight_coeffs)
    w = np.zeros_like(r)
    for ck in coeffs[::-1]:
        w = w * r + ck
    riemann = float(np.mean(r * w))
    assert lyapunov_value(spec, [1.0, 0.0]) == pytest.approx(riemann, abs=1e-8)


# --- gradient --------------------------------------------------------------------

def test_grad_zero(spec):
    assert lyapunov_grad_last(spec, [0.0, 0.0]) == 0.0


def test_grad_matches_finite_difference(spec):
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        h = rng.uniform(-2, 2, size=2)
        hp, hm = h.copy(), h.copy()
        hp[-1] += eps
        hm[-1] -= eps
        fd = (lyapunov_value(spec, hp) - lyapunov_value(spec, hm)) / (2 * eps)
        got = lyapunov_grad_last(spec, h)
        assert got == pytest.approx(fd, rel=1e-5)


def test_grad_sign_follows_last_component(spec):
    rng = np.random.default_rng(4)
    for _ in range(50):
        h = rng.uniform(-3, 3, size=2)
        if h[-1] == 0:
            continue
        assert math.copysign(1, lyapunov_grad_last(spec, h)) == math.copysign(1, h[-1])


# --- seeking law -----------------------------------------------------------------

def test_es_at_t_zero_kills_value_channel(spec, gains):
    for h in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.3]):
        assert es_control(spec, gains, 0.0, h) == pytest.approx(
            math.sqrt(60.0) * 0.8)


def test_es_pure_dither_at_zero_error(spec, gains):
    for t in (0.1, 0.73, 2.2):
        want = math.sqrt(60.0) * 0.8 * math.cos(60.0 * t)
        assert es_control(spec, gains, t, [0.0, 0.0]) == pytest.approx(want)


def test_es_quarter_period_with_unit_value(spec, gains):
    # find |h| with V = 1 by bisection, then the beta channel is dead
    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lyapunov_value(spec, [mid, 0.0]) < 1.0:
            lo = mid
        else:
            hi = mid
    s1 = 0.5 * (lo + hi)
    t = math.pi / (2 * gains.omega)
    got = es_control(spec, gains, t, [s1, 0.0])
    assert got == pytest.approx(-math.sqrt(60.0) * 4.0, rel=1e-9)


def test_es_magnitude_bound(spec, gains):
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = rng.uniform(0, 20)
        h = rng.uniform(-2, 2, size=2)
        bound = math.sqrt(gains.omega) * (gains.beta
                                          + gains.lam * lyapunov_value(spec, h))
        assert abs(es_control(spec, gains, t, h)) <= bound + 1e-12


def test_dither_integrates_to_zero_over_period(spec, gains):
    # frozen error: both channels are plain sinusoids over one period
    h = [0.4, -0.2]
    period = 2 * math.pi / gains.omega
    val, err = quad(lambda t: es_control(spec, gains, t, h), 0.0, period,
                    epsabs=1e-12, limit=200)
    assert abs(val) <= 1e-9


# --- known-gain law ---------------------------------------------------------------

def test_nominal_zero_at_equilibrium():
    sys = chain_integrator(2)
    g = GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    ys = get_reference("constant:0").stack(0.0, 2)
    assert nominal_backstepping(sys, [0.0, 0.0], ys, g) == 0.0


def test_nominal_regulates_demo(demo, gains):
    # simulation oracle: closed loop from [-0.2, 0] settles fast
    sc = Scenario(x0=(-0.2, 0.0), t_end=12.0, dt=1e-3, reference="constant:0")
    traj, _ = run_scenario(demo, "nominal", gains, sc)
    late = traj.t >= 10.0
    assert np.max(np.abs(traj.x[late, 0])) < 0.02


def test_nominal_bounded_on_grid(demo, gains):
    ys = ref0()
    for x1 in np.linspace(-2, 2, 9):
        for x2 in np.linspace(-2, 2, 9):
            assert abs(nominal_backstepping(demo, [x1, x2], ys, gains)) < 1e3


def test_nominal_singular_gain(gains):
    from nonovershoot import SystemModel

    sys_zero = SystemModel(n=2, drift=(lambda xs: 0.0, lambda xs: 0.0),
                           gain=lambda xs: 1e-12, xi1=1e-30, name="nearzero")
    with pytest.raises(SingularGainError):
        nominal_backstepping(sys_zero, [0.1, 0.0], ref0(), gains)


# --- oscillatory-gain comparator ---------------------------------------------------

def test_nussbaum_zero_adaptation_gives_zero_input(demo, gains):
    u, _ = nussbaum_control(demo, [-0.5, 0.0], ref0(), gains, NussbaumState(0.0))
    assert u == 0.0


def test_nussbaum_at_pi(demo, gains):
    x, ys = [-0.5, 0.0], ref0()
    a_ideal = ideal_input(coupled_values(demo, gains.c, x, ys), gains.c[-1])
    u, _ = nussbaum_control(demo, x, ys, gains, NussbaumState(math.pi))
    assert u == pytest.approx(-math.pi**2 * a_ideal, rel=1e-12)
    assert nussbaum_gain(math.pi) == pytest.approx(-math.pi**2)


def test_nussbaum_adaptation_rate_sign(demo, gains):
    # rate is -ideal * z_n: verify against hand evaluation at the demo init
    x, ys = [-0.5, 0.0], ref0()
    a_ideal = ideal_input(coupled_values(demo, gains.c, x, ys), gains.c[-1])
    # z = h here (couple changes nothing for n = 2 first stage): z2 = -0.6
    assert a_ideal == pytest.approx(-1.5 * -0.6 - (-0.5) - 1.05)
    _, dtheta = nussbaum_control(demo, x, ys, gains, NussbaumState(0.0))
    assert dtheta == pytest.approx(-a_ideal * -0.6)


def test_nussbaum_energy_identity(demo, gains):
    # theta(t) - theta(0) equals the integral of its rate along the run
    sc = Scenario(x0=(-0.5, 0.0), t_end=5.0, dt=1e-3)
    traj, _ = run_scenario(demo, "nussbaum", gains, sc)
    ref = get_reference("sine04")
    # reconstruct theta by integrating the recorded rate ingredients
    rates = np.empty(len(traj.t))
    theta = np.empty(len(traj.t))
    th = 0.0
    for k, t in enumerate(traj.t):
        ys = ref.stack(t, 2)
        a_ideal = ideal_input(coupled_values(demo, gains.c, traj.x[k], ys), gains.c[-1])
        z = error_values(demo, gains.c, traj.x[k], ys, couple=True)
        rates[k] = -a_ideal * z[-1]
    integral = np.concatenate([[0.0], np.cumsum((rates[1:] + rates[:-1]) / 2) * 1e-3])
    # u = N(theta)*ideal lets us recover theta' implicitly; instead rerun the
    # loop and compare input reconstruction at matching theta values
    u_rec = np.array([nussbaum_gain(integral[k]) * ideal_input(
        coupled_values(demo, gains.c, traj.x[k], ref.stack(traj.t[k], 2)), gains.c[-1])
        for k in range(len(traj.t))])
    assert np.max(np.abs(u_rec - traj.u)) <= 2e-3 * (1 + np.max(np.abs(traj.u)))


# --- safety filter ------------------------------------------------------------------

def test_safety_filter_selection():
    sw = SafetySwitch()
    assert safety_filter(0.0, 0.1, 0.1, 7.0, -3.0, sw) == 7.0
    assert sw.mode == "nominal"
    assert safety_filter(1.0, 0.1, -0.1, 7.0, -3.0, sw) == -3.0
    assert sw.mode == "override"
    assert sw.last_switch_time == 1.0
    # boundary belongs to the safe set
    assert safety_filter(2.0, 0.1, 0.0, 7.0, -3.0, sw) == 7.0
    assert sw.last_switch_time == 2.0


def test_safety_filter_no_switch_without_transition():
    sw = SafetySwitch()
    safety_filter(0.0, 0.0, 1.0, 1.0, 2.0, sw)
    assert sw.last_switch_time is None
    safety_filter(1.0, 0.0, 2.0, 1.0, 2.0, sw)
    assert sw.last_switch_time is None


def test_comparator_overshoot_is_moderate_for_any_start_guess(demo, gains):
    """No adaptation start produces a large positive overshoot here.

    With the output starting below the reference, a wrong gain guess
    drives the output further down (never up), and a near-zero guess
    merely lets the open-loop drift push the output ~0.46 above the
    reference before adaptation catches it.  Documents why no fixed
    overshoot level (such as 0.5) separates the comparator from the
    seeking law here; acceptance criterion 6 instead checks that the
    theta0 = 0 run breaks the transient overshoot ceiling.
    """
    sc = Scenario(x0=(-0.5, 0.0), t_end=20.0, dt=1e-3)
    peaks = {}
    for theta0 in (0.0, 1.0, 2.0, math.pi):
        _, rep = run_scenario(demo, "nussbaum", gains, sc, theta0=theta0)
        peaks[theta0] = rep.max_h1
    assert max(peaks.values()) < 0.5
    assert peaks[0.0] == pytest.approx(0.4562, abs=2e-3)
    # wrong-direction guesses overshoot downward, not upward
    assert peaks[2.0] < 0.05 and peaks[math.pi] < 0.05
