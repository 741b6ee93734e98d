import itertools
import math
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nonovershoot import (BlowupError, DriftBound, GainConfig, LyapunovSpec, Reference, Scenario,
                          SystemModel, averaged_rhs, bound_report, deviation_study,
                          dither_coupling, effective_damping, error_coords,
                          example_lyapunov_spec, get_reference, lyapunov_weight, rk4_step,
                          simulate_averaged)
from nonovershoot.model import _STATE_LIMIT
from nonovershoot.sim import DEFAULT_PSI_SCALE

from conftest import (NO_SHRINK, chain_integrator, negated_gain, random_gains,
                      random_poly_system)
from test_sim import _FAMILIES, _hex


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


@pytest.mark.parametrize("inner, outer", list(itertools.product((math.cos, math.sin), repeat=2)))
def test_coupling_matches_scipys_simpson_rules(inner, outer):
    # the numpy rules reproduce scipy's simpson over scipy's cumulative_simpson
    from scipy.integrate import cumulative_simpson, simpson

    grid = np.linspace(0.0, 2 * math.pi, 8193)
    fi, fo = np.array([inner(s) for s in grid]), np.array([outer(s) for s in grid])
    want = simpson(fo * cumulative_simpson(fi, x=grid, initial=0.0), x=grid) / (2 * math.pi)
    assert dither_coupling(inner, outer, 2 * math.pi) == pytest.approx(want, abs=1e-11)


def test_coupling_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        dither_coupling(lambda s: math.cos(s) + 0.1, math.sin, 2 * math.pi)


@pytest.mark.parametrize("c", [(2.0,), (2.0, 1.5, 1.2)])
def test_averaged_run_rejects_a_gain_count_off_the_state_dimension(demo, soft, c):
    gains = GainConfig(c=c, kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError, match=f"^{len(c)} rate gains c1..c{len(c)} given; "
                                         "system 'example' has 2 states$"):
        simulate_averaged(demo, soft, gains, sc)


@pytest.mark.parametrize("options, message", [
    ({"h0": (math.nan, 0.0)}, "h0 must be 2 finite numbers, got (nan, 0.0)"),
    ({"h0": [0.1, -math.inf]}, "h0 must be 2 finite numbers, got [0.1, -inf]"),
    ({"h0": (0.1,)}, "h0 must be 2 finite numbers, got (0.1,)"),
    ({"h0": (0.1, 0.0, 0.0)}, "h0 must be 2 finite numbers, got (0.1, 0.0, 0.0)"),
    ({"x0": (-0.5,)}, "x0 must have dimension 2"),
    ({"x0": (-0.5, 0.0, 7.0)}, "x0 must have dimension 2"),
    ({"x0": (-0.5, 0.0, 7.0), "h0": (0.1, 0.0)}, "x0 must have dimension 2"),
])
def test_averaged_run_rejects_a_bad_start(demo, gains, soft, options, message):
    # bad input, not divergence, a broadcast error, an index error, a math
    # domain error or a run on the first items of x0
    options = dict(options)
    sc = Scenario(x0=options.pop("x0", (-0.5, 0.0)), t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_averaged(demo, soft, gains, sc, **options)
    if "h0" not in options:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            deviation_study(demo, soft, gains, sc, [60.0])


def test_averaged_rhs_rejects_a_gain_count_off_the_state_dimension(demo, soft):
    gains = GainConfig(c=(2.0, 1.5, 1.2), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    with pytest.raises(ValueError, match="^3 rate gains c1..c3 given; "
                                         "system 'example' has 2 states$"):
        averaged_rhs(demo, soft, gains, "sine04", 0.0, [0.1, 0.0])


@pytest.mark.parametrize("hbar", [[0.1, 0.2, 0.3], [0.1], 0.1, [[0.1, 0.2]]])
def test_averaged_rhs_rejects_an_hbar_off_the_state_dimension(demo, soft, gains, hbar):
    # it returned a 3-vector for three items
    with pytest.raises(ValueError, match="^hbar must have dimension 2$"):
        averaged_rhs(demo, soft, gains, "sine04", 0.0, hbar)


def test_coupling_rejects_bad_period():
    # NaN would return nan silently, inf would end in a math domain error
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^period must be positive and finite, "
                                             f"got {period!r}$"):
            dither_coupling(math.cos, math.sin, period)


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


@pytest.mark.parametrize("linear", [True, False])
@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(seed=st.integers(0, 200), dt=st.floats(1e-4, 2e-3),
       h0=st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5))
@settings(max_examples=3, phases=NO_SHRINK)
def test_generated_averaged_step_equals_rk4_over_averaged_rhs(seed, dt, halved, linear, h0,
                                                              n, family):
    # every step of the generated loop is rk4_step over averaged_rhs, bit for
    # bit: traced and untraced drifts, both coefficients, a linear or a
    # quadratic growth envelope, whose weights have 3 and 5 coefficients and
    # so run two compiled loops, and the plant with its gain negated
    base = _FAMILIES[family](n, seed)
    gains = random_gains(n, seed)
    growth = (0.0, 1.0) if linear else (0.0, 1.0, 0.5)
    spec = LyapunovSpec(DriftBound(growth_coeffs=growth, offset=0.1), gains.c[-1], gains.kappa)
    assert len(spec._weight_coeffs) == (3 if linear else 5)
    ref = get_reference("sine04")

    def replay(sys):
        h = np.array(h0[:n])
        want = [_hex(h)]
        for k in range(3):
            sc = Scenario(x0=(0.0,) * n, t_end=(k + 1) * dt, dt=dt, reference=ref)
            try:
                got = simulate_averaged(sys, spec, gains, sc, h0=h0[:n], halved=halved)
            except BlowupError as exc:      # a stiff random plant may leave the float range
                try:
                    h = rk4_step(lambda t, v: averaged_rhs(sys, spec, gains, ref, t, v,
                                                           halved=halved), k * dt, h, dt)
                except (OverflowError, ValueError) as cause:    # the same arithmetic error
                    assert str(exc) == f"arithmetic divergence: {cause}"
                    return
                except BlowupError:     # a non-finite update
                    assert str(exc) == "averaged system diverged"
                    return
                assert str(exc) == "averaged system diverged"
                assert np.max(np.abs(h)) > _STATE_LIMIT
                return
            h = rk4_step(lambda t, v: averaged_rhs(sys, spec, gains, ref, t, v, halved=halved),
                         k * dt, h, dt)
            want.append(_hex(h))
            assert [_hex(row) for row in got] == want

    replay(base)
    replay(negated_gain(base))


def test_averaged_system_diverges_past_the_full_loops_range():
    # x' = 100 x + u: hbar grows about 10% a step and passes 1e9 while
    # finite; the averaged loop stops there, as the full loop does
    plant = SystemModel(n=1, drift=(lambda xs: 100.0 * xs[0],), gain=lambda xs: 1.0, xi1=1.0)
    gains = GainConfig(c=(1.5,), kappa=1.0, lam=0.1, beta=0.1, omega=60.0)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1e-12)), 1.5, 1.0)
    sc = Scenario(x0=(0.0,), t_end=0.5, dt=1e-3, reference="constant:0")
    with pytest.raises(BlowupError, match="^averaged system diverged$") as info:
        simulate_averaged(plant, spec, gains, sc, h0=[1.0])
    h, k = np.array([1.0]), 0
    while abs(h[0]) <= _STATE_LIMIT:
        h = rk4_step(lambda t, v: averaged_rhs(plant, spec, gains, "constant:0", t, v),
                     k * 1e-3, h, 1e-3)
        k += 1
    assert info.value.t == k * 1e-3 < 0.5
    assert np.array_equal(info.value.state, h)
    assert np.all(np.isfinite(h))


def test_averaged_runs_on_a_fresh_plant_make_equal_drift_calls():
    # the inverse map is traced when the plant is built, so the first
    # averaged run calls the drifts as often as the next: never, for a plant
    # whose drifts are traced
    calls = []
    base = random_poly_system(3, 4)
    plant = SystemModel(n=3, gain=base.gain, xi1=base.xi1,
                        drift=tuple(lambda xs, d=d: calls.append(1) or d(xs)
                                    for d in base.drift))
    gains = random_gains(3, 4, descending=True)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0)), gains.c[-1], gains.kappa)
    sc = Scenario(x0=(0.0, 0.0, 0.0), t_end=0.01, dt=1e-3)
    counts = []
    for _ in range(2):
        calls.clear()
        simulate_averaged(plant, spec, gains, sc, h0=[-0.1, 0.0, 0.0])
        counts.append(len(calls))
    assert counts == [0, 0]
