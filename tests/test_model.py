import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonovershoot import (BlowupError, ConstantReference, GainFloorViolation, Reference,
                          Scenario, SineReference, SystemModel, eval_dynamics,
                          get_reference, get_system, reference_stack, refine_dt)

from nonovershoot.model import is_divergence

from conftest import chain_integrator, random_poly_system


def test_eval_dynamics_demo_drift_only(demo):
    assert eval_dynamics(demo, [-0.5, 0.0], 0.0) == pytest.approx([0.0, 0.25])


def test_eval_dynamics_demo_gain_channel(demo):
    # gain at x2 = 0 is exactly 1.2
    assert eval_dynamics(demo, [0.0, 0.0], 1.0) == pytest.approx([0.0, 1.2])


def test_eval_dynamics_zero_drift_chain():
    sys = chain_integrator(4)
    x = np.array([0.3, -1.2, 0.7, 2.0])
    assert eval_dynamics(sys, x, 0.0) == pytest.approx([-1.2, 0.7, 2.0, 0.0])


def test_eval_dynamics_rejects_bad_dim(demo):
    with pytest.raises(ValueError):
        eval_dynamics(demo, [1.0, 2.0, 3.0], 0.0)


def test_eval_dynamics_nonfinite_input(demo):
    with pytest.raises(BlowupError):
        eval_dynamics(demo, [0.0, 0.0], float("inf"))


def test_example_fields(demo):
    assert demo.n == 2
    assert demo.xi1 == 1.0
    assert demo.drift[1]((-0.5, 0.0)) == pytest.approx(0.25)
    assert demo.gain((0.0, math.pi / 2)) == pytest.approx(1.4)


def test_example_gain_floor_is_tight(demo):
    # oracle: minimise gain^2 over a fine grid of x2
    grid = np.linspace(-2 * math.pi, 2 * math.pi, 100001)
    gmin = min((0.2 * math.sin(v) + 1.2) ** 2 for v in grid)
    assert gmin >= demo.xi1 - 1e-9
    assert gmin == pytest.approx(demo.xi1, abs=1e-8)


def test_gain_floor_monitor_trips():
    sys = SystemModel(n=1, drift=(lambda xs: 0.0,), gain=lambda xs: xs[0],
                      xi1=0.25, name="crossing")
    sys.check_gain_floor([1.0])
    with pytest.raises(GainFloorViolation):
        sys.check_gain_floor([0.1])


def test_reference_stack_sine_at_zero():
    assert reference_stack("sine04", 0.0, 2) == pytest.approx([0.0, -0.4, 0.0], abs=1e-15)


def test_reference_stack_sine_quarter_period():
    got = reference_stack("sine04", math.pi / 0.8, 1)
    assert got == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_reference_stack_constant():
    assert reference_stack("constant:2.5", 13.7, 4) == pytest.approx([2.5, 0, 0, 0, 0])


def test_reference_unknown_id():
    with pytest.raises(KeyError):
        get_reference("warble")


def test_reference_derivative_consistency():
    # central finite difference of derivative k reproduces derivative k+1
    ref = get_reference("sine04")
    rng = np.random.default_rng(7)
    eps = 1e-6
    for t in rng.uniform(0.0, 50.0, size=100):
        for k in range(3):
            fd = (ref.derivative(t + eps, k) - ref.derivative(t - eps, k)) / (2 * eps)
            want = ref.derivative(t, k + 1)
            assert fd == pytest.approx(want, rel=1e-6, abs=1e-7)


class _CubicReference(Reference):
    """y = a t^3, defining only the per-order derivative."""

    def __init__(self, a):
        self.a = a

    def derivative(self, t, k):
        a = self.a
        return (a * t ** 3, 3 * a * t * t, 6 * a * t, 6 * a)[k] if k < 4 else 0.0


_moderate = st.floats(-1e3, 1e3, allow_nan=False)


@given(_moderate, st.floats(-5.0, 5.0), st.floats(-1e4, 1e4), st.integers(0, 8))
def test_derivatives_equal_per_order_values(amplitude, rate, t, n):
    # the stack the simulator reads matches derivative(t, k) bit for bit
    for ref in (SineReference(amplitude, rate), ConstantReference(amplitude),
                _CubicReference(amplitude)):
        got = ref.derivatives(t, n)
        assert type(got) is tuple
        want = [ref.derivative(t, k) for k in range(n + 1)]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert np.array_equal(ref.stack(t, n), want)


class _ShiftedSine(SineReference):
    """A SineReference whose value is redefined; it inherits the stack."""

    def derivative(self, t, k):
        return super().derivative(t, k) + (1.0 if k == 0 else 0.0)


def test_sine_subclass_redefining_derivative_gets_its_stack():
    ref = _ShiftedSine()
    assert ref.derivatives(0.3, 2) == tuple(ref.derivative(0.3, k) for k in range(3))
    assert ref.derivatives(0.3, 2)[0] == SineReference().derivative(0.3, 0) + 1.0


@pytest.mark.parametrize("call", [
    lambda: math.sqrt(-2.5), lambda: math.log(-3.0), lambda: math.log(0),
    lambda: math.log10(-7.0), lambda: math.sin(-math.inf), lambda: math.cos(-math.inf),
    lambda: math.tan(-math.inf), lambda: math.acos(1.5), lambda: math.asin(-4.0),
    lambda: math.atanh(-3.0), lambda: math.acosh(0.5), lambda: math.pow(-8.0, 1 / 3),
], ids=["sqrt", "log", "log0", "log10", "sin", "cos", "tan", "acos", "asin",
        "atanh", "acosh", "pow"])
def test_math_domain_errors_are_divergence(call):
    # other arguments than the ones is_divergence learns its texts from
    with pytest.raises(ValueError) as info:
        call()
    assert is_divergence(info.value)


def test_other_errors_are_not_divergence():
    assert is_divergence(OverflowError("math range error"))
    assert not is_divergence(ValueError("bug"))
    assert not is_divergence(KeyError("math domain error"))


@given(st.integers(0, 500), st.integers(2, 4))
def test_strict_feedback_probe(seed, n):
    # perturbing x_j for j > i never changes drift_i
    sys = random_poly_system(n, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(-2, 2, size=n)
    for i in range(n):
        base = sys.drift[i](tuple(x[: i + 1]))
        x2 = x.copy()
        x2[i + 1:] += rng.uniform(0.5, 2.0, size=n - i - 1)
        assert sys.drift[i](tuple(x2[: i + 1])) == base


def test_system_registry(demo):
    assert get_system("example").name == "example"
    with pytest.raises(KeyError):
        get_system("nope")


def test_register_custom_system():
    from nonovershoot import register_system

    register_system("test-chain", lambda: chain_integrator(3))
    assert get_system("test-chain").n == 3


def test_system_validation():
    with pytest.raises(ValueError):
        SystemModel(n=2, drift=(lambda xs: 0.0,), gain=lambda xs: 1.0, xi1=1.0)
    with pytest.raises(ValueError):
        SystemModel(n=1, drift=(lambda xs: 0.0,), gain=lambda xs: 1.0, xi1=-1.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(x0=(0.0,), t_end=0.0, dt=1e-3)
    sc = Scenario(x0=(0.0, 0.0), t_end=1.0, dt=1e-3)
    assert sc.dither_resolved(60.0)
    assert not sc.dither_resolved(1000.0)


@pytest.mark.parametrize("t_end, nearest", [(0.0104, "0.01 or 0.011"), (5e-4, "0.001")])
def test_scenario_rejects_horizon_off_the_step_grid(t_end, nearest):
    with pytest.raises(ValueError, match=f"nearest valid t_end: {nearest}$"):
        Scenario(x0=(0.0, 0.0), t_end=t_end, dt=1e-3)


def test_scenario_step_count():
    assert Scenario(x0=(0.0,), t_end=0.0104, dt=1.3e-3).nsteps == 8
    # a refined step still divides the horizon
    assert Scenario(x0=(0.0,), t_end=1.0, dt=refine_dt(1e-3, 960.0)).nsteps == 7000
