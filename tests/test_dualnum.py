import math

import numpy as np
import pytest

from nonovershoot import dualnum
from nonovershoot.dualnum import Dual, Jet


def test_arithmetic_derivative():
    # f(x) = x^2 * sin(x) + 3/x, f'(x) = 2x sin x + x^2 cos x - 3/x^2
    def f(args):
        x = args[0]
        return x * x * dualnum.sin(x) + 3.0 / x

    x0 = 1.3
    got = dualnum.partial(f, [x0], 0)
    want = 2 * x0 * math.sin(x0) + x0 * x0 * math.cos(x0) - 3.0 / x0**2
    assert got == pytest.approx(want, rel=1e-12)


def test_partial_of_independent_slot_is_zero():
    assert dualnum.partial(lambda a: a[0] * a[0], [2.0, 5.0], 1) == 0.0


def test_nested_mixed_partial():
    # f(x, y) = sin(x * y): d2f/dxdy = cos(xy) - xy sin(xy)
    x0, y0 = 0.7, -1.1

    def dfdy(args):
        return dualnum.partial(lambda b: dualnum.sin(b[0] * b[1]), [args[0], args[1]], 1)

    got = dualnum.partial(dfdy, [x0, y0], 0)
    want = math.cos(x0 * y0) - x0 * y0 * math.sin(x0 * y0)
    assert got == pytest.approx(want, rel=1e-12)


def test_division_and_power():
    d = Dual(2.0, 1.0)
    q = (d ** 3) / d
    assert q.re == pytest.approx(4.0)
    assert q.eps == pytest.approx(4.0)  # d/dx x^2 at 2
    r = 1.0 / d
    assert r.eps == pytest.approx(-0.25)


def test_power_rejects_bad_exponent():
    with pytest.raises(TypeError):
        Dual(2.0, 1.0) ** 0.5


def test_value_strips_layers():
    assert dualnum.value(Dual(Dual(3.0, 1.0), 2.0)) == 3.0
    assert dualnum.value(5.0) == 5.0


def test_exp():
    got = dualnum.partial(lambda a: dualnum.exp(2.0 * a[0]), [0.3], 0)
    assert got == pytest.approx(2 * math.exp(0.6), rel=1e-12)


# --- numpy scalars on the left -----------------------------------------------

def test_numpy_scalar_times_dual_is_dual():
    got = np.float64(0.3) * Dual(1.0, 2.0)
    assert type(got) is Dual
    assert got.re == 0.3 * 1.0 and got.eps == 0.3 * 2.0


def test_numpy_scalar_times_jet_is_jet():
    got = np.float64(0.3) * Jet([1.0, 2.0, -4.0])
    assert type(got) is Jet
    assert got.c == [0.3 * 1.0, 0.3 * 2.0, 0.3 * -4.0]
    assert type(np.float64(1.5) + Jet([1.0, 2.0])) is Jet
    assert (np.float64(1.5) - Jet([1.0, 2.0])).c == [0.5, -2.0]


# --- truncated Taylor series ---------------------------------------------------

def _time_series(t0, order):
    """Jet of the identity s -> t0 + s."""
    return Jet([t0, 1.0] + [0.0] * (order - 1))


def test_jet_elementary_series():
    t0 = 0.7
    x = _time_series(t0, 4)
    fact = [1.0, 1.0, 2.0, 6.0, 24.0]
    # derivatives of sin, cos, exp at t0 divided by m!
    sin_d = [math.sin(t0), math.cos(t0), -math.sin(t0), -math.cos(t0), math.sin(t0)]
    cos_d = [math.cos(t0), -math.sin(t0), -math.cos(t0), math.sin(t0), math.cos(t0)]
    assert dualnum.sin(x).c == pytest.approx([d / f for d, f in zip(sin_d, fact)], rel=1e-14)
    assert dualnum.cos(x).c == pytest.approx([d / f for d, f in zip(cos_d, fact)], rel=1e-14)
    assert dualnum.exp(2.0 * x).c == pytest.approx(
        [math.exp(2 * t0) * 2.0**m / f for m, f in enumerate(fact)], rel=1e-14)


def test_jet_division_and_power():
    x = _time_series(0.0, 4)
    # 1/(1 - s) = 1 + s + s^2 + ...
    assert (1.0 / (1.0 - x)).c == [1.0] * 5
    assert ((x + 1.0) ** 3).c == [1.0, 3.0, 3.0, 1.0, 0.0]
    assert ((x + 1.0) ** 3 / (x + 1.0)).c == pytest.approx([1.0, 2.0, 1.0, 0.0, 0.0])
    assert (x ** 0).c == [1.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(TypeError):
        x ** 0.5


def test_jet_keeps_the_shorter_length():
    a, b = Jet([1.0, 2.0, 3.0]), Jet([4.0, 5.0])
    assert (a + b).c == [5.0, 7.0]
    assert (a * b).c == [4.0, 13.0]
    assert (a - 1.0).c == [0.0, 2.0, 3.0]


def test_jet_rejects_unsupported_operations():
    with pytest.raises(TypeError):
        math.sin(Jet([0.1, 1.0]))
    with pytest.raises(TypeError):
        Jet([0.1, 1.0]) * Dual(1.0, 1.0)
