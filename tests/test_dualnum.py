import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nonovershoot import dualnum, synth
from nonovershoot.dualnum import Dual, Jet, Rec


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


def test_rec_records_each_operation_in_order():
    tape = []
    x, y = Rec(tape, "x0"), Rec(tape, "x1")
    out = dualnum.sin(2.0 * x - np.float64(0.5)) / y + x ** 2
    # an entry is the operation's form and its operands' texts
    assert tape[:2] == [("v0", "{} * {}", ("2.0", "x0"), False),
                        ("v1", "{} - {}", ("v0", "0.5"), False)]
    assert [(name, form.format(*ops)) for name, form, ops, _ in tape] == [
        ("v0", "2.0 * x0"), ("v1", "v0 - 0.5"), ("v2", "sin(v1)"),
        ("v3", "v2 / x1"), ("v4", "x0 ** 2"), ("v5", "v3 + v4")]
    assert out.name == "v5"
    # operations that can raise on some input are marked
    assert [may_raise for *_, may_raise in tape] == [False, False, True, True, True, False]


def test_rec_through_a_jet_records_the_series_arithmetic():
    # exp(a^2), a = x0 + s: the product series, then e' = (a^2)' e term by
    # term, every operation kept as the jet code runs it
    tape = []
    a = Jet([Rec(tape, "x0"), 1.0])
    out = dualnum.exp(a * a)
    assert [(name, form.format(*ops)) for name, form, ops, _ in tape] == [
        ("v0", "x0 * x0"), ("v1", "x0 * 1.0"), ("v2", "1.0 * x0"), ("v3", "v1 + v2"),
        ("v4", "exp(v0)"), ("v5", "1 * v3"), ("v6", "v5 * v4"), ("v7", "0.0 + v6"),
        ("v8", "v7 / 1")]
    assert [r.name for r in out.c] == ["v4", "v8"]


def test_rec_records_sqrt_fsum_and_a_guard():
    tape = []
    x, y = Rec(tape, "x0"), Rec(tape, "x1")
    out = dualnum.sqrt(dualnum.fsum([x * x, y, 1.0]))
    assert dualnum.guard(y, 1e-9, ZeroDivisionError) is y
    assert tape[1][1:3] == ("fsum(({}, {}, {}, ))", ("v0", "x1", "1.0"))
    assert tape[3][1:3] == ("if abs({0}) < 1e-09: raise ZeroDivisionError({0})", ("x1",))
    assert [(name, form.format(*ops)) for name, form, ops, _ in tape] == [
        ("v0", "x0 * x0"), ("v1", "fsum((v0, x1, 1.0, ))"), ("v2", "sqrt(v1)"),
        ("v3", "if abs(x1) < 1e-09: raise ZeroDivisionError(x1)")]
    assert out.name == "v2"
    assert [may_raise for *_, may_raise in tape] == [False, True, True, True]
    # on floats they are math's, and the guard passes NaN as the rule does
    assert dualnum.sqrt(2.0) == math.sqrt(2.0) and dualnum.fsum([0.1] * 10) == 1.0
    assert dualnum.guard(-2e-9, 1e-9, ZeroDivisionError) == -2e-9
    assert math.isnan(dualnum.guard(math.nan, 1e-9, ZeroDivisionError))
    with pytest.raises(ZeroDivisionError):
        dualnum.guard(-1e-12, 1e-9, ZeroDivisionError)


def test_rec_refuses_anything_that_needs_its_value():
    x = Rec([], "x0")
    for needs_value in (float, bool, math.sin, abs, lambda v: v < 0.0,
                        lambda v: v == 0.0, lambda v: np.asarray([v])):
        with pytest.raises(TypeError):
            needs_value(x)


# --- the two-term fsum ---------------------------------------------------------------

def _two_term_fsum():
    """dualnum.fsum of two recorded values, as a generated loop writes it."""
    tape = synth.trace(lambda a, b: dualnum.fsum([a, b]), "a", "b")
    [(lines, [out])] = synth.render([(tape, "v", [], "")])
    scope = dict(synth.TAPE_SCOPE)
    exec("def two(a, b):\n" + "".join(f"    {line}\n" for line in lines)
         + f"    return {out}\n", scope)
    return scope["two"], lines


_TWO, _TWO_LINES = _two_term_fsum()


def _outcome(fn, a, b):
    """The result's bits (any NaN alike), or the error raised and its text."""
    try:
        v = fn(a, b)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "nan" if math.isnan(v) else v.hex()


def test_two_recorded_terms_are_a_sum_and_a_guard_not_a_call():
    assert _TWO_LINES == ["v1 = (0.0 + a) + b", "if not abs(v1) < inf: fsum((a, b, ))"]


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.1,
            1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan)


def test_two_term_fsum_equals_math_fsum_on_every_special_pair():
    # signed zeros (-0.0 + -0.0 is -0.0, fsum's +0.0), subnormals, an
    # overflow (fsum raises) and inf - inf (fsum raises), infinities, NaNs
    for a, b in itertools.product(_SPECIAL, repeat=2):
        want = _outcome(lambda u, v: math.fsum((u, v)), a, b)
        assert _outcome(_TWO, a, b) == want, (a, b)
    assert _outcome(_TWO, -0.0, -0.0) == "0x0.0p+0" != (-0.0 + -0.0).hex()
    assert _outcome(_TWO, 1e308, 1e308) == ("OverflowError", "intermediate overflow in fsum")


@given(st.floats(), st.floats())
def test_two_term_fsum_equals_math_fsum_bit_for_bit(a, b):
    assert _outcome(_TWO, a, b) == _outcome(lambda u, v: math.fsum((u, v)), a, b)
    assert _outcome(_TWO, a, b) == _outcome(lambda u, v: dualnum.fsum([u, v]), a, b)
