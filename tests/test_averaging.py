import math

import numpy as np
import pytest

from nonovershoot import (BlowupError, GainConfig, Reference, Scenario, averaged_rhs, bound_report,
                          deviation_study, dither_coupling, effective_damping,
                          error_coords, example_lyapunov_spec, get_reference,
                          lyapunov_weight, rk4_step, simulate_averaged)
from nonovershoot.sim import DEFAULT_PSI_SCALE

from conftest import chain_integrator


@pytest.fixture(scope="module")
def cert(demo, gains):
    return example_lyapunov_spec(demo, gains)  # unscaled certificate


@pytest.fixture(scope="module")
def soft(demo, gains):
    return example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)


def test_averaged_rest_point_chain():
    sys = chain_integrator(2)
    g = GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    from nonovershoot import DriftBound, LyapunovSpec

    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0), offset=0.0), 1.5, 1.1)
    out = averaged_rhs(sys, spec, g, "constant:0", 0.0, [0.0, 0.0])
    assert out == pytest.approx([0.0, 0.0])


def test_averaged_first_component_demo(demo, gains, cert):
    out = averaged_rhs(demo, cert, gains, "sine04", 0.0, [-0.5, -0.6])
    assert out[0] == pytest.approx(0.4)


def test_averaged_damping_opposes_last_component(demo, gains, cert):
    rng = np.random.default_rng(8)
    for _ in range(40):
        h = rng.uniform(-2, 2, size=2)
        if h[1] == 0:
            continue
        full = averaged_rhs(demo, cert, gains, "sine04", 0.3, h)
        # remove the drift part to isolate the damping term
        x = None
        from nonovershoot import error_drift, state_from_errors

        ys = get_reference("sine04").stack(0.3, 2)
        x = state_from_errors(demo, h, ys, gains)
        damping = full[1] - error_drift(demo, x, ys, gains)
        assert math.copysign(1, damping) == -math.copysign(1, h[1])


def test_halved_coefficient(demo, gains, cert):
    h = [-0.5, -0.6]
    ys = get_reference("sine04").stack(0.0, 2)
    from nonovershoot import error_drift, state_from_errors

    x = state_from_errors(demo, h, ys, gains)
    drift = error_drift(demo, x, ys, gains)
    full = averaged_rhs(demo, cert, gains, "sine04", 0.0, h)[1] - drift
    half = averaged_rhs(demo, cert, gains, "sine04", 0.0, h, halved=True)[1] - drift
    assert half == pytest.approx(0.5 * full, rel=1e-12)


def test_effective_damping_worst_case_gain(demo, gains, cert):
    # squared gain hits its floor value 1 at x2 = -pi/2
    x = (0.0, -math.pi / 2)
    got = effective_damping(demo, cert, gains, x, 0.0)
    assert got == pytest.approx(3.2 * 4.25616, rel=1e-6)


def test_effective_damping_floors(demo, gains, cert):
    rng = np.random.default_rng(9)
    kappa = gains.kappa
    bound = cert.drift_bound
    for _ in range(100):
        x = rng.uniform(-3, 3, size=2)
        r = rng.uniform(0, 5)
        mu = effective_damping(demo, cert, gains, x, r)
        assert mu >= gains.c[-1] - 1e-12
        assert mu >= kappa * bound.envelope(r) - 1e-12


# --- coupling coefficient -------------------------------------------------------

def test_coupling_cos_sin():
    assert dither_coupling(math.cos, math.sin, 2 * math.pi) == pytest.approx(0.5, abs=1e-9)


def test_coupling_cos_cos():
    assert dither_coupling(math.cos, math.cos, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_coupling_sin_sin():
    assert dither_coupling(math.sin, math.sin, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


def test_coupling_antisymmetry_identity():
    v12 = dither_coupling(math.cos, math.sin, 2 * math.pi)
    v21 = dither_coupling(math.sin, math.cos, 2 * math.pi)
    assert v12 - v21 == pytest.approx(1.0, abs=1e-8)


def test_coupling_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        dither_coupling(lambda s: math.cos(s) + 0.1, math.sin, 2 * math.pi)


def test_coupling_rejects_bad_period():
    with pytest.raises(ValueError):
        dither_coupling(math.cos, math.sin, 0.0)


# --- averaged trajectories -------------------------------------------------------

def test_self_comparison_is_zero(demo, gains, cert):
    sc = Scenario(x0=(-0.5, 0.0), t_end=2.0, dt=1e-3)
    a = simulate_averaged(demo, cert, gains, sc)
    b = simulate_averaged(demo, cert, gains, sc)
    assert np.max(np.abs(a - b)) == 0.0


def _stable_dt(demo, gains, cert, h0, t_end):
    # explicit RK4 needs dt below ~2.8 / damping; the certificate weight
    # makes the damping enormous at large radius, so scale dt to the init,
    # then shrink it to a whole fraction of the horizon
    r0 = float(np.linalg.norm(h0))
    mu_max = 3.2 * 1.96 * lyapunov_weight(cert, r0)
    return t_end / math.ceil(t_end / min(1e-3, 2.0 / mu_max))


def test_averaged_ultimate_bound_across_inits(demo, gains, cert):
    # residual ceiling sqrt(1/(kappa*(c_min - 1))) + 1e-2, inits in the
    # |h(0)| <= 5 ball
    rep = bound_report(gains, "uniform")
    for h0 in ([-0.5, -0.6], [1.2, -0.8], [0.0, 2.0], [-2.4, 0.7]):
        dt = _stable_dt(demo, gains, cert, h0, t_end=8.0)
        sc = Scenario(x0=(-0.5, 0.0), t_end=8.0, dt=dt)
        out = simulate_averaged(demo, cert, gains, sc, h0=h0)
        t = np.arange(len(out)) * dt
        tail = np.linalg.norm(out[t >= 6.4], axis=1)
        assert np.max(tail) <= rep.residual_core + 1e-2


def test_averaged_lyapunov_decrease_above_residual(demo, gains, cert):
    # whenever W = |h|^2/2 exceeds 1.01x its residual level, dW/dt < 0
    level = 1.0 / (2 * gains.kappa * (gains.c_min - 1.0))
    ref = get_reference("sine04")
    seen_above = 0
    for h0 in ([-2.0, 2.5], [1.5, -3.0]):
        dt = _stable_dt(demo, gains, cert, h0, t_end=2.0)
        sc = Scenario(x0=(-0.5, 0.0), t_end=2.0, dt=dt)
        out = simulate_averaged(demo, cert, gains, sc, h0=h0)
        for k in range(0, len(out), 5):
            h = out[k]
            w = 0.5 * float(h @ h)
            if w > 1.01 * level:
                dw = float(h @ averaged_rhs(demo, cert, gains, ref, k * dt, h))
                assert dw < 0.0
                seen_above += 1
    assert seen_above > 0  # the check must not be vacuous


def test_deviation_study_records_blowup(demo, gains, cert):
    # the unscaled certificate makes the dithered loop escape at omega = 60
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    study = deviation_study(demo, cert, gains, sc, [60.0])
    assert study.blowups == (True,)
    assert math.isnan(study.deviations[0])
    assert "1" in study.to_csv().splitlines()[1].split(",")[2]


def test_deviation_study_shrinks_with_frequency(demo, gains, soft):
    sc = Scenario(x0=(-0.5, 0.0), t_end=2.0, dt=1e-3)
    study = deviation_study(demo, soft, gains, sc, [60.0, 240.0])
    assert study.blowups == (False, False)
    assert study.deviations[1] < study.deviations[0]
    assert study.delta_estimate(60.0) == study.deviations[0]
    with pytest.raises(KeyError):
        study.delta_estimate(999.0)


def test_deviation_study_csv_shape(demo, gains, soft):
    sc = Scenario(x0=(-0.5, 0.0), t_end=1.0, dt=1e-3)
    study = deviation_study(demo, soft, gains, sc, [60.0])
    lines = study.to_csv().splitlines()
    assert lines[0] == "omega,max_deviation,blowup_flag"
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "0"


def test_simulate_averaged_is_rk4_over_averaged_rhs(demo, gains, soft):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.2, dt=1e-3)
    ref = get_reference(sc.reference)
    h = error_coords(demo, sc.x0, ref.stack(0.0, 2), gains)
    want = [h]
    for k in range(200):
        h = rk4_step(lambda t, v: averaged_rhs(demo, soft, gains, ref, t, v),
                     k * sc.dt, h, sc.dt)
        want.append(h)
    assert np.array_equal(simulate_averaged(demo, soft, gains, sc), np.array(want))


def test_simulate_averaged_passes_faults_through(demo, gains, soft):
    class Faulty(Reference):
        def derivative(self, t, k):
            raise ValueError("bug")

    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=Faulty())
    with pytest.raises(ValueError, match="^bug$"):
        simulate_averaged(demo, soft, gains, sc, h0=[0.1, 0.0])


def test_simulate_averaged_rejects_non_finite_reference(demo, gains, soft):
    # the same error averaged_rhs raises at the same node
    class Blowing(Reference):
        def derivative(self, t, k):
            return math.inf if t > 0.0042 else 0.0

    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=Blowing())
    with pytest.raises(BlowupError, match="non-finite reference value") as info:
        simulate_averaged(demo, soft, gains, sc, h0=[0.1, 0.0])
    assert info.value.t == pytest.approx(0.0045)   # midpoint of step 4
    with pytest.raises(BlowupError, match="non-finite reference value"):
        averaged_rhs(demo, soft, gains, sc.reference, info.value.t, [0.1, 0.0])
