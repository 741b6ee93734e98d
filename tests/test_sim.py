import ast
import itertools
import locale
import math
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from nonovershoot import (BlowupError, DriftBound, GainConfig, GainFloorViolation,
                          LyapunovSpec, NussbaumState, Reference, Scenario, SineReference,
                          SystemModel, bound_report, dualnum, error_coords, es_control,
                          eval_dynamics, example_lyapunov_spec, example_system,
                          get_reference, nominal_backstepping, nussbaum_control, refine_dt,
                          rk4_step, run_scenario, simulate_averaged, state_from_errors,
                          sweep)
from nonovershoot import averaging, control, model, native, sim, synth
from nonovershoot.synth import coords_and_drift
from nonovershoot.sim import DEFAULT_PSI_SCALE, fmt, gains_text

from conftest import (NO_SHRINK, chain_integrator, negated_gain, random_gains,
                      random_poly_system)
from test_synth import trig_exp_system


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


def test_seeking_law_tracks_either_control_direction(demo, gains):
    # the paper's title claim at g < 0: es on the demo plant and on the same
    # plant with its gain negated, one Lyapunov shape, stays under the
    # transient ceiling both ways and peaks alike (0.24370 vs 0.24379)
    spec = example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=15.0, dt=1e-3)
    reports = [run_scenario(plant, "es", gains, sc, lyap_spec=spec)[1]
               for plant in (demo, negated_gain(demo))]
    assert [rep.envelope_violation for rep in reports] == [0.0, 0.0]
    assert abs(reports[0].max_h1 - reports[1].max_h1) <= 1e-3


@pytest.mark.parametrize("c", [(2.0,), (2.0, 1.5, 1.2)])
@pytest.mark.parametrize("controller", sim.CONTROLLERS)
def test_run_rejects_a_gain_count_off_the_state_dimension(demo, c, controller):
    gains = GainConfig(c=c, kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError, match=f"^{len(c)} rate gains c1..c{len(c)} given; "
                                         "system 'example' has 2 states$"):
        run_scenario(demo, controller, gains, sc)


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
    # its last samples, the escape, are the largest a run records
    assert partial.to_csv() == _row_loop_csv(partial)


def test_safety_filter_mode_column(demo, gains):
    sc = Scenario(x0=(0.2, 0.0), t_end=2.0, dt=1e-3)
    traj, rep = run_scenario(demo, "safety-filter", gains, sc)
    # mode decided from the margin sign at every sample
    assert np.all((traj.margin >= 0) == (traj.mode == 0))
    assert set(np.unique(traj.mode)) <= {0, 1}
    assert rep.min_margin < 0  # starts unsafe


def _nan_stack(t):
    return (math.nan,) * 3


def test_the_filters_mode_rule_is_one_kernel(gains, monkeypatch):
    # shifted to margin >= 0.05, the rule moves the loop's mode column (on
    # a fresh plant, whose loops are traced anew), safety_filter's choice
    # and the stack the fault diagnosis reads
    monkeypatch.setattr(control, "nominal_mode",
                        lambda y, x1: dualnum.nonnegative(y - x1 - 0.05))
    sc = Scenario(x0=(-0.02, 0.0), t_end=1.0, dt=1e-3)     # margin 0.02 at t = 0
    traj, _ = run_scenario(example_system(), "safety-filter", gains, sc)
    assert np.any((traj.margin >= 0) & (traj.margin < 0.05))
    assert np.array_equal(traj.mode == 0, traj.margin - 0.05 >= 0)
    for margin, u in ((0.02, -3.0), (0.06, 7.0)):
        assert control.safety_filter(0.0, 0.0, margin, 7.0, -3.0, control.SafetySwitch()) == u
    # y(0) = -0.0, so x1 = -0.02 is the margin 0.02: the seeking law's stack
    ref_d = model.bound_stack(SineReference(), 2)
    assert sim._reference_fault(ref_d, _nan_stack, 0.0, -0.02, 1e-3, False) is None
    assert sim._reference_fault(ref_d, _nan_stack, 0.0, -0.06, 1e-3, False) == 0.0


def test_a_negative_zero_margin_keeps_the_filter_nominal(demo, gains):
    # sine04's y(0) is -0.0, so from x1 = 0.0 the margin is -0.0, which is
    # on the boundary, in the safe set
    sc = Scenario(x0=(0.0, 0.0), t_end=0.01, dt=1e-3)
    traj, _ = run_scenario(demo, "safety-filter", gains, sc)
    assert traj.margin[0] == 0.0 and math.copysign(1.0, traj.margin[0]) < 0
    assert traj.mode[0] == 0
    assert control.safety_filter(0.0, 0.0, -0.0, 7.0, -3.0, control.SafetySwitch()) == 7.0
    ref_d = model.bound_stack(SineReference(), 2)
    assert sim._reference_fault(ref_d, _nan_stack, 0.0, 0.0, 1e-3, False) == 0.0


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


def _row_loop_csv(traj):
    """The trajectory CSV rendered row by row with '%.17g' % row, as the
    renderer did before its vectorised kernel: the oracle of to_csv."""
    n = traj.n
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
        + [f"h{i}" for i in range(1, n + 1)] + ["u", "yr", "H", "mode"]
    cols = (traj.t, *traj.x.T, *traj.h.T, traj.u, traj.yr, traj.margin)
    row = ",".join(["%.17g"] * len(cols)) + ",%s"
    lines = [row % (*vals, control.MODE_LABELS[m])
             for *vals, m in zip(*(col.tolist() for col in cols), traj.mode.tolist())]
    return "\n".join([",".join(header)] + lines) + "\n"


def _trajectory_of(values, n=1, mode=None):
    """A Trajectory whose 2n + 4 float columns are the given (rows, 2n + 4)
    values, mode -1 unless given."""
    values = np.asarray(values, dtype=float)
    rows = len(values)
    return sim.Trajectory(t=values[:, 0], x=values[:, 1:1 + n], h=values[:, 1 + n:1 + 2 * n],
                          u=values[:, 1 + 2 * n], yr=values[:, 2 + 2 * n],
                          margin=values[:, 3 + 2 * n],
                          mode=np.full(rows, -1, np.int8) if mode is None else mode)


def _csv_cells(values):
    """to_csv's text of each value, from a trajectory with a row per value
    whose float cells all hold it."""
    values = np.asarray(values, dtype=float)
    lines = _trajectory_of(np.repeat(values[:, None], 6, axis=1)).to_csv().split("\n")
    cells = [line.split(",") for line in lines[1:-1]]
    assert all(len(set(row[:-1])) == 1 for row in cells)
    return [row[0] for row in cells]


_float_bits = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@given(st.lists(st.one_of(_float_bits, st.floats()), min_size=1, max_size=40))
def test_csv_kernel_writes_every_float_as_fmt_does(values):
    assert _csv_cells(values) == [fmt(v) for v in values]


@pytest.mark.parametrize("path", ["python", "compiled"])
@given(values=st.lists(st.one_of(_float_bits, st.floats()), min_size=1, max_size=40))
def test_csv_writes_every_float_as_fmt_does_on_each_path(path, values):
    # the property above takes whichever path the rows rendered so far in
    # the process select; this one takes each
    with native.forced(path):
        assert _csv_cells(values) == [fmt(v) for v in values]
    assert native.PATHS[-1] == ("to_csv", path)


def test_csv_kernel_matches_fmt_across_its_window():
    # log-uniform magnitudes over [1e-13, 1e19], either sign, and values
    # with few significant digits (trailing zeros dropped)
    rng = np.random.default_rng(24)
    wide = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-13, 19, 20000)
    short = np.round(rng.uniform(-1e4, 1e4, 5000)) / 10.0 ** rng.integers(0, 16, 5000)
    values = np.concatenate([wide, short])
    assert _csv_cells(values) == [fmt(v) for v in values]


def _edge_values():
    """Values at the edges of the kernel's window and of its text forms,
    either sign, and past them."""
    values = [1e-5, 9.9999999999999991e-05, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e16, 1e17, native._CSV_LO, native._CSV_HI,
              -0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf]
    for k in range(-13, 19):
        x = float(f"1e{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values += [math.nextafter(native._CSV_LO, 0.0), math.nextafter(native._CSV_HI, 0.0)]
    return values + [-v for v in values]


def test_csv_kernel_edge_values():
    # 17-digit ties round to even
    assert _csv_cells([1250000000000000.25, 1250000000000000.75]) == \
        ["1250000000000000.2", "1250000000000000.8"]
    # double(1e-11) has exponent -12; the double below 1e-4 is the largest
    # value in the e form
    assert _csv_cells([1e-11, 9.9999999999999991e-05, 1e-4]) == \
        ["9.9999999999999994e-12", "9.9999999999999991e-05", "0.0001"]
    values = _edge_values()
    assert _csv_cells(values) == [fmt(v) for v in values]


def _ties():
    """Doubles x whose x * 10**j, j = 16 - k for the decimal exponent k of
    their 17 digits, is an odd multiple of 1/2 (a 17-digit tie): x = a /
    2**(j + 1) for odd a, which exist for j = 1..24; either sign."""
    values = []
    for j in range(1, 25):
        lo = -(-2 * 10 ** 16 // 5 ** j) | 1        # the least odd a with a * 5**j / 2 >= 1e16
        for a in (lo, lo + 2, lo + 1234567890, (2 * 10 ** 17 - 1) // 5 ** j | 1):
            if a < 1 << 53 and 10 ** 16 <= a * 5 ** j // 2 < 10 ** 17:
                values.append(math.ldexp(a, -j - 1))
    return values + [-v for v in values]


@pytest.mark.parametrize("path", ["python", "compiled"])
def test_csv_edge_values_on_each_path(path):
    # across the widened window: 1e-k and its neighbours for k = 11..41,
    # past both of its ends, and log-uniform magnitudes over [1e-41, 1e-11];
    # random 64-bit patterns (NaN payloads, subnormals, huge values);
    # 17-digit ties; -0.0, -nan (written nan) and -inf
    values = _edge_values()
    for k in range(11, 42):
        x = float(f"1e-{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, 1.0)]
    rng = np.random.default_rng(29)
    values += list(rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-41, -11, 5000))
    values += rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float).tolist()
    ties = _ties()
    assert len(ties) > 150
    for x in ties:
        twice = Fraction(abs(x)) * 2 * 10 ** (16 - int(f"{x:.16e}".split("e")[1]))
        assert twice.denominator == 1 and twice.numerator % 2
    with native.forced(path):
        assert _csv_cells(values + ties) == [fmt(v) for v in values + ties]
        assert _csv_cells([-0.0, -math.nan, -math.inf]) == ["-0", "nan", "-inf"]
    assert native.PATHS[-1] == ("to_csv", path)


def test_csv_cells_outside_the_window_ignore_a_comma_locale(tmp_path, monkeypatch):
    # the kernel's sprintf would write the locale's decimal point; it runs
    # in the C locale, as Python's '%.17g' does whatever LC_NUMERIC says
    if shutil.which("localedef") is None:
        pytest.skip("no localedef to build a locale with a decimal comma")
    subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8", str(tmp_path / "de_DE.UTF-8")],
                   capture_output=True, timeout=120)
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "de_DE.UTF-8")
    except locale.Error:
        pytest.skip("the locale with a decimal comma could not be built")
    try:
        assert locale.localeconv()["decimal_point"] == ","
        values = [1e300, -5e-324, 2.5e-40, 1e17, -math.inf, 0.5]
        with native.forced("compiled"):
            assert _csv_cells(values) == [fmt(v) for v in values]
        assert native.PATHS[-1] == ("to_csv", "compiled")
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)


def _mixed_trajectory(n, rows):
    """A trajectory of random floats, about 2% of them zeros, non-finite,
    subnormal or huge, and random mode labels."""
    rng = np.random.default_rng([n, rows])
    shape = (rows, 2 * n + 4)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-14, 20, shape)
    special = rng.random(values.shape) < 0.02
    values[special] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300],
                                 int(special.sum()))
    return _trajectory_of(values, n, mode=rng.integers(-1, 2, rows).astype(np.int8))


@pytest.mark.parametrize("rows", [0, 1, sim._CSV_ROWS - 1, sim._CSV_ROWS, sim._CSV_ROWS + 1,
                                  1001])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_csv_equals_the_row_loop(n, rows):
    # row counts about the _CSV_ROWS block edges, every mode label, and
    # cells outside the kernel's window (zeros, non-finite, subnormal and
    # huge values)
    traj = _mixed_trajectory(n, rows)
    assert traj.to_csv() == _row_loop_csv(traj)


@pytest.mark.parametrize("path", ["python", "compiled"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_csv_equals_the_row_loop_on_each_path(n, path):
    for rows in (0, 1, sim._CSV_ROWS - 1, sim._CSV_ROWS, sim._CSV_ROWS + 1, 1001):
        traj = _mixed_trajectory(n, rows)
        with native.forced(path):
            assert traj.to_csv() == _row_loop_csv(traj)
        assert native.PATHS[-1] == ("to_csv", path)


def test_csv_of_a_strided_or_narrow_typed_record_equals_the_row_loop():
    # the kernel reads each column at its own stride; other dtypes are
    # converted to float first
    values = _mixed_trajectory(2, 300)
    traj = sim.Trajectory(t=values.t[::-1], x=np.asfortranarray(values.x),
                          h=np.linspace(-1, 1, 600, dtype=np.float32).reshape(300, 2),
                          u=np.arange(300),
                          yr=np.repeat(values.yr[:150], 2), margin=values.margin,
                          mode=values.mode.astype(np.int64))
    for path in ("python", "compiled"):
        with native.forced(path):
            assert traj.to_csv() == _row_loop_csv(traj)


def test_csv_rejects_columns_of_unequal_length():
    traj = _trajectory_of(np.ones((3, 6)))
    traj.u = traj.u[:2]
    with pytest.raises(ValueError, match="unequal"):
        traj.to_csv()


def test_csv_rejects_an_unknown_mode():
    for mode in (np.array([0, 2, 1], np.int8), [0.5, 0, 1], [-0.9, 0, 1], [math.nan, 0, 1]):
        traj = _trajectory_of(np.ones((3, 6)), mode=np.asarray(mode))
        for path in ("python", "compiled"):
            with native.forced(path), pytest.raises(ValueError, match="^mode column holds "
                                                    "values other than -1, 0 and 1$"):
                traj.to_csv()


@pytest.mark.parametrize("x, h", [(np.ones((2, 2)), np.ones((2, 3))),
                                  (np.ones(2), np.ones(2)), (np.ones((2, 1)), np.ones(2))])
def test_csv_rejects_x_and_h_of_other_shapes(x, h):
    traj = _trajectory_of(np.ones((2, 6)))
    traj.x, traj.h = x, h
    with pytest.raises(ValueError, match=re.escape(f"got x {x.shape} and h {h.shape}")):
        traj.to_csv()


def test_csv_rendering_stays_block_wise():
    # the kernel renders _CSV_ROWS rows at a time: a 50 s demo-sized
    # trajectory peaks at the returned string, the blocks' strings it is
    # joined from and one block's arrays
    rows = 50001
    rng = np.random.default_rng(5)
    values = rng.standard_normal((rows, 8))
    values[:, 0] = np.arange(rows) * 1e-3
    traj = _trajectory_of(values, 2, mode=np.zeros(rows, np.int8))
    tracemalloc.start()
    try:
        text = traj.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sys.getsizeof(text)
    assert native.PATHS[-1] == ("to_csv", "compiled")


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


def test_report_csv_row(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.5, dt=1e-3)
    _, rep = run_scenario(demo, "es", gains, sc)
    row = rep.csv_row().split(",")
    assert len(row) == 7
    assert row[0] == "example/es/x0=-0.5|0"
    assert row[1] == gains_text(gains)


@pytest.mark.parametrize("text", ["a,b", "a\nb", "a\r", ","])
def test_a_label_or_name_that_would_split_a_csv_cell_is_rejected(demo, text):
    # the label, or the plant's name through the default run id, is the
    # first cell of a report row and of a sweep row
    with pytest.raises(ValueError, match="^scenario label must not contain a comma or "
                                         f"a line break, got {re.escape(repr(text))}$"):
        Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, label=text)
    with pytest.raises(ValueError, match="^system name must not contain a comma or "
                                         f"a line break, got {re.escape(repr(text))}$"):
        SystemModel(n=demo.n, drift=demo.drift, gain=demo.gain, xi1=demo.xi1, name=text)


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


@pytest.mark.parametrize("mode", ["floors", "nope"])
def test_sweep_rejects_a_mode_other_than_uniform_or_descending(demo, gains, mode, monkeypatch):
    # floors mode needs each point's x0, which the gain check does not get:
    # rejected before the first point runs
    monkeypatch.setattr(sim, "run_scenario", None)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    with pytest.raises(ValueError, match="^sweep mode must be 'uniform' or 'descending', "
                                         f"got '{mode}'$"):
        sweep(demo, "es", gains, sc, {"kappa_n": [1.1]}, mode=mode)


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


def test_sweep_runs_dither_free_laws_at_the_scenario_step(demo, gains, monkeypatch):
    # omega does not enter the nominal law, so its rows must not depend on it
    steps = []
    run = sim.run_scenario
    monkeypatch.setattr(sim, "run_scenario",
                        lambda s, c, g, sc, **kw: steps.append(sc.dt) or run(s, c, g, sc, **kw))
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    rows = sweep(demo, "nominal", gains, sc, {"omega": [60.0, 960.0]}).rows
    fields = ("max_h1", "t_at_max", "tail_abs_h1", "envelope_violation", "min_margin",
              "max_abs_u")
    assert [[getattr(r, f) for f in fields] for r, _, _ in rows] == \
        [[getattr(rows[0][0], f) for f in fields]] * 2
    assert steps == [1e-3, 1e-3]
    steps.clear()
    sweep(demo, "es", gains, sc, {"omega": [960.0]})
    assert steps == [refine_dt(1e-3, 960.0)]


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


def test_four_controller_evaluations_per_step(monkeypatch):
    # each law on a chain: each RK4 node reads the gain once, for the floor
    # check, the known-gain law and the plant rate alike; the last sample once.
    # float() of a recording scalar raises before the count, so the gain is
    # not traced and the loop calls it (a traced gain is never called)
    calls = []
    base = chain_integrator(2)
    sys = SystemModel(n=2, drift=base.drift, xi1=1.0,
                      gain=lambda xs: calls.append(float(xs[0])) or 1.0)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0), offset=0.1), 1.5, 1.1)
    # every controller; the filter from a safe and from an unsafe start
    for controller, x1 in [*((c, -0.5) for c in sim.CONTROLLERS), ("safety-filter", 0.5)]:
        calls.clear()
        sc = Scenario(x0=(x1, 0.0), t_end=0.01, dt=1e-3, reference="constant:0")
        run_scenario(sys, controller, chain_gains(), sc, lyap_spec=spec)
        assert len(calls) == 10 * 4 + 1, (controller, x1)
    # the law itself runs at every node too: where the drifts cannot be
    # traced, each law evaluation calls the Taylor pass once (z, coupled,
    # for the nominal law, h for es), so sample-and-hold would show; each
    # sample's recorded h is one more h pass for nominal, and each node's
    # plant rate one call of the drift pass, which calls each drift once
    passes = []
    for name in ("z", "h", "drift"):
        monkeypatch.setitem(synth.PLANT_PASSES, name,
                            lambda *a, name=name, fn=synth.PLANT_PASSES[name]:
                            passes.append(name) or fn(*a))
    sys = _untraced_poly_system(2, 3)       # a fresh plant: its steps compile here
    gains = random_gains(2, 3, descending=True)
    ref = get_reference("sine04")
    x0 = state_from_errors(sys, [-0.1, 0.0], ref.stack(0.0, 2), gains)
    sc = Scenario(x0=tuple(x0), t_end=0.01, dt=1e-3, reference=ref)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0), offset=0.1),
                        gains.c[-1], gains.kappa)
    for controller, counts in (("nominal", {"z": 10 * 4 + 1, "h": 10 + 1, "drift": 10 * 4}),
                               ("es", {"h": 10 * 4 + 1, "drift": 10 * 4})):
        passes.clear()
        run_scenario(sys, controller, gains, sc, lyap_spec=spec)
        assert {k: passes.count(k) for k in set(passes)} == counts


# every controller from x = 0.5 below the constant reference 1, and the safety
# filter also from 1.5 above it, where it runs the seeking law
_FLOOR_STARTS = [*(pytest.param(c, 0.5, id=c) for c in ("es", "nominal", "nussbaum")),
                 pytest.param("safety-filter", 0.5, id="safety-filter-safe"),
                 pytest.param("safety-filter", 1.5, id="safety-filter-unsafe")]


def _floor_run(controller, x0, gain):
    """Ten steps of controller on dx/dt = gain(x) * u + 1 from x0."""
    sys = SystemModel(n=1, drift=(lambda xs: 1.0,), xi1=1.0, gain=gain)
    g = GainConfig(c=(2.0,), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0), offset=0.1), 2.0, 1.1)
    sc = Scenario(x0=(x0,), t_end=0.01, dt=1e-3, reference="constant:1")
    return run_scenario(sys, controller, g, sc, lyap_spec=spec, theta0=0.5)


@pytest.mark.parametrize("node", [1, 2, 3, 4])
@pytest.mark.parametrize("controller, x0", _FLOOR_STARTS)
def test_gain_floor_is_checked_at_every_rk4_node(controller, x0, node):
    # the floor is broken only at the state of the first step's given node
    # (node 1's is the first sample, nodes 2 to 4 are no grid sample); the
    # float() keeps the gain from tracing, so each node calls it
    visited = []
    _floor_run(controller, x0, lambda xs: visited.append(float(xs[0])) or 1.0)
    at = visited[node - 1]
    with pytest.raises(GainFloorViolation, match=re.escape(f"at x = [{at!r}]")):
        _floor_run(controller, x0, lambda xs: 0.5 if float(xs[0]) == at else 1.0)


@pytest.mark.parametrize("controller, x0", _FLOOR_STARTS)
def test_gain_floor_is_not_checked_at_the_last_sample(controller, x0):
    # the last sample is no node of a step taken: a floor broken only at
    # the final grid state leaves the run complete
    full, _ = _floor_run(controller, x0, lambda xs: 1.0)
    x_end = full.x[-1, 0]
    traj, _ = _floor_run(controller, x0, lambda xs: 0.5 if float(xs[0]) == x_end else 1.0)
    assert traj.complete
    assert np.array_equal(traj.x, full.x) and np.array_equal(traj.h, full.h)


def _drift_calls_of_two_runs(base):
    """Drift calls of two nominal runs on a fresh plant with base's drifts."""
    calls = []
    sys = SystemModel(n=3, gain=base.gain, xi1=base.xi1,
                      drift=tuple(lambda xs, d=d: calls.append(1) or d(xs)
                                  for d in base.drift))
    gains = random_gains(3, 4, descending=True)
    ref = get_reference("sine04")
    x0 = state_from_errors(base, [-0.1, 0.0, 0.0], ref.stack(0.0, 3), gains)
    sc = Scenario(x0=tuple(x0), t_end=0.01, dt=1e-3)
    counts = []
    for _ in range(2):
        calls.clear()
        run_scenario(sys, "nominal", gains, sc)
        counts.append(len(calls))
    return counts


def test_runs_on_a_fresh_plant_make_equal_drift_calls():
    # the plant's tapes are traced when the plant is built, so the first
    # run traces nothing and calls the drifts as often as the next: never,
    # for a plant whose drifts are traced
    assert _drift_calls_of_two_runs(random_poly_system(3, 4)) == [0, 0]


def test_runs_on_a_fresh_untraced_plant_make_equal_drift_calls():
    # where the drifts cannot be traced, the node calls them
    counts = _drift_calls_of_two_runs(_untraced_poly_system(3, 4))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("controller", sim.CONTROLLERS)
def test_generated_loop_calls_the_drifts_only_where_they_cannot_be_traced(controller):
    ncoef = 3 if controller in sim.DITHERED else None
    for plant, traced in ((random_poly_system(3, 4), True), (_untraced_poly_system(3, 4), False)):
        source = sim._step_source(plant, controller, ncoef, "sine", "constant")
        assert ("passes['drift'](plant, " in source) is not traced
        assert "plant.drift[" not in source


@pytest.mark.parametrize("controller", sim.DITHERED)
def test_an_untraced_loop_reads_each_call_result_item_from_one_name(controller):
    # a call tape's outs are names: each item of a call's result is unpacked
    # into one name (e1 = e0[0]), which the law and the record then read
    source = sim._step_source(_untraced_poly_system(2, 3), controller, 3, "sine", "constant")
    subscripts = re.findall(r"\b[a-z]\d+(?:\[\d+\])+", source)
    unpacked = re.findall(r"^ *\w+ = ([a-z]\d+(?:\[\d+\])+)$", source, re.M)
    assert subscripts and sorted(subscripts) == sorted(unpacked)


def _node_function(source, law):
    """The text of the node function node_<law> in a loop's source."""
    found = re.search(rf"^    def node_{law}\(.*?\n(?=    \S)", source, re.M | re.S)
    assert found, f"no node_{law} in the loop"
    return found.group(0)


@pytest.mark.parametrize("plant", [example_system,
                                   *(lambda n=n: random_poly_system(n, 5) for n in range(1, 5)),
                                   lambda: _untraced_poly_system(2, 3)],
                         ids=["demo", "poly1", "poly2", "poly3", "poly4", "untraced"])
def test_the_safety_filters_loop_holds_the_laws_own_node_functions(plant):
    # the filter's steps are the nominal and seeking laws' own: their node
    # functions, verbatim (the nominal law's on a stack of the nominal
    # reference's kind), and the seeking law's node 1 from its error
    # coordinates (the first line after the es loop's stack lines) and RK4
    # body in the override branch, which records mode 1 where es records
    # -1; no node function takes the mode
    plant = plant()
    es = sim._step_source(plant, "es", 3, "sine")
    body = es[es.index("\n                e"):es.index("\n                if not (")]
    body = body.replace("\n", "\n    ").replace("] = -1.0\n", "] = 1.0\n")
    for nom in ("sine", "call"):
        filt = sim._step_source(plant, "safety-filter", 3, "sine", nom)
        assert _node_function(sim._step_source(plant, "nominal", None, nom), "nominal") in filt
        assert _node_function(es, "es") in filt
        assert body + "\n                if not (" in filt
        assert "mode" not in filt


@pytest.mark.parametrize("delta_est", [-5.0, -1e-9, math.nan, math.inf])
def test_run_rejects_a_negative_or_non_finite_delta_est(demo, gains, delta_est):
    # a negative allowance would shrink the transient envelope
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError, match=f"^delta_est must be nonnegative and finite, "
                                         f"got {delta_est!r}$"):
        run_scenario(demo, "es", gains, sc, delta_est=delta_est)


@pytest.mark.parametrize("controller", ["nussbaum", "es"])
@pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
def test_run_rejects_a_non_finite_theta0(demo, gains, controller, theta0):
    # a non-finite start of the comparator's adaptation is bad input, not
    # the state leaving the finite range at the first step
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    with pytest.raises(ValueError, match=f"^theta0 must be finite, got {theta0!r}$"):
        run_scenario(demo, controller, gains, sc, theta0=theta0)


# --- per-node reference stacks, partial records, error classification ---------------

def test_one_reference_stack_per_rk4_node(demo, gains):
    # start (shared by the record and k1), midpoint (k2 and k3), end
    calls = []

    class CountedSine(SineReference):      # each stack reads order 0 once
        def derivative(self, t, k):
            if k == 0:
                calls.append(t)
            return super().derivative(t, k)

    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=CountedSine())
    run_scenario(demo, "es", gains, sc)
    assert len(calls) == 3 * 10 + 1


def test_safety_filter_tracking_its_nominal_reference_fetches_both_stacks(demo, gains):
    # one object as both references is bound twice: at every node time the
    # nominal law reads the nominal stack, and node 1 the tracked one too
    calls = []

    class CountedSine(SineReference):      # each stack reads order 0 once
        def derivative(self, t, k):
            if k == 0:
                calls.append(t)
            return super().derivative(t, k)

    ref = CountedSine(amplitude=1.0)        # starts safe: the nominal law runs
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=ref)
    traj, _ = run_scenario(demo, "safety-filter", gains, sc, nominal_reference=ref)
    assert np.all(traj.mode == 0)
    assert len(calls) == 4 * 10 + 2


@pytest.mark.parametrize("x0, mode, reads", [((-0.5, 0.0), 0, (11, 31)),
                                               ((0.2, 0.0), 1, (31, 0))])
def test_safety_filter_reads_the_nominal_stack_only_in_nominal_mode(demo, gains, x0, mode,
                                                                     reads):
    # node 1 reads the tracked stack, for the margin and the recorded h; the
    # nominal law reads the nominal one at every node, the seeking law the
    # tracked one
    calls = {}

    class CountedSine(SineReference):      # each stack reads order 0 once
        def derivative(self, t, k):
            if k == 0:
                calls[self.amplitude] = calls.get(self.amplitude, 0) + 1
            return super().derivative(t, k)

    tracked, nominal = CountedSine(amplitude=1.0), CountedSine(amplitude=0.5)
    sc = Scenario(x0=x0, t_end=0.01, dt=1e-3, reference=tracked)
    traj, _ = run_scenario(demo, "safety-filter", gains, sc, nominal_reference=nominal)
    assert np.all(traj.mode == mode)
    assert (calls.get(1.0, 0), calls.get(0.5, 0)) == reads


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


class _JumpReference(Reference):
    """Zero up to t = start, level from there on; its rates are zero."""

    def __init__(self, start, level):
        self.start, self.level = start, level

    def derivative(self, t, k):
        return self.level if k == 0 and t >= self.start else 0.0


def _gainless_integrator():
    """x' = 0 * u: the input never reaches the state, so the comparator's
    theta can leave the range while x stays at rest (the floor 1e-13 is
    below the check's slack, so gain 0 passes it)."""
    return SystemModel(n=1, drift=(lambda xs: 0.0,), gain=lambda xs: 0.0, xi1=1e-13)


@pytest.mark.parametrize("controller", ["es", "nominal", "safety-filter", "nussbaum"])
@pytest.mark.parametrize("k", [255, 256, 257])
def test_range_failure_at_step_k_keeps_rows_0_to_k(controller, k):
    # the reference jumps between node 1 and node 2 of step k, so step k is
    # the first to leave the finite range (the seeking law's V grows as
    # |h|^4, so a lower jump keeps its end state finite): rows 0..k are
    # kept, and the error carries the end of step k, its replay through the
    # library laws
    dt = 1e-3
    plant = _gainless_integrator() if controller == "nussbaum" else chain_integrator(1)
    gains = GainConfig(c=(1.5,), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0)), 1.5, 1.1)
    ref = _JumpReference((k + 0.25) * dt, 1e2 if controller == "es" else 1e15)
    sc = Scenario(x0=(0.0,), t_end=300 * dt, dt=dt, reference=ref)
    with pytest.raises(BlowupError, match="^state left the finite range$") as info:
        run_scenario(plant, controller, gains, sc, lyap_spec=spec, nominal_reference=ref)
    partial = info.value.partial_trajectory
    assert len(partial.t) == k + 1
    assert np.array_equal(partial.t, np.arange(k + 1) * dt)
    assert info.value.t == (k + 1) * dt
    # the comparator's theta is not recorded; at rest it stays at theta0 = 0
    state = np.array(list(partial.x[k]) + ([0.0] if controller == "nussbaum" else []))
    law = _oracle_law(plant, controller, gains, spec, ref, ref, k * dt, state)

    def rhs(tt, s):
        u, aux = law(tt, s)
        return np.concatenate([eval_dynamics(plant, s[:1], u), aux])

    end = rk4_step(rhs, k * dt, state, dt)
    assert _hex(info.value.state) == _hex(end[:1])
    assert np.max(np.abs(end)) > sim._STATE_LIMIT
    if controller == "nussbaum":      # theta alone left the range
        assert list(info.value.state) == [0.0]


@pytest.mark.parametrize("nsteps", [255, 256, 257])
def test_runs_of_any_length_keep_every_sample(demo, gains, nsteps):
    # every sample, the last one included
    sc = Scenario(x0=(-0.5, 0.0), t_end=300e-3, dt=1e-3)
    full, _ = run_scenario(demo, "es", gains, sc)
    short, _ = run_scenario(demo, "es", gains, Scenario(x0=sc.x0, t_end=nsteps * 1e-3,
                                                         dt=1e-3))
    assert short.complete and len(short.t) == nsteps + 1
    for name in ("t", "x", "h", "u", "yr", "margin", "mode"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:nsteps + 1])


class _BlowingReference(Reference):
    """Zero up to t = start, infinite from there on."""

    def __init__(self, start):
        self.start = start

    def derivative(self, t, k):
        return math.inf if t >= self.start else 0.0


@pytest.mark.parametrize("controller, tracked", [
    ("es", True), ("nominal", True), ("safety-filter", True), ("safety-filter", False)])
@pytest.mark.parametrize("start", [0.005, 0.0042])     # an end node, a midpoint node
def test_non_finite_reference_is_named_as_in_the_averaged_system(demo, gains, controller,
                                                                 tracked, start):
    # the filter starts safe, so its nominal law reads the nominal reference,
    # which is the blowing one; tracked=False keeps the tracked one finite
    blowing = _BlowingReference(start)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=blowing)
    spec = example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)
    with pytest.raises(BlowupError) as averaged:
        simulate_averaged(demo, spec, gains, sc, h0=[0.1, 0.0])
    run_sc = sc if tracked else Scenario(x0=sc.x0, t_end=sc.t_end, dt=sc.dt,
                                         reference="constant:0")
    with pytest.raises(BlowupError) as full:
        run_scenario(demo, controller, gains, run_sc, lyap_spec=spec,
                     nominal_reference=blowing)
    assert str(full.value) == str(averaged.value) == "non-finite reference value"
    assert full.value.t == averaged.value.t
    partial = full.value.partial_trajectory
    assert not partial.complete
    assert np.array_equal(partial.t, np.arange(5) * 1e-3)     # samples up to t = 0.004
    assert np.all(np.isfinite(partial.x))


class _DelegatingSine(SineReference):
    """A SineReference whose derivative is its own, delegating to the
    built-in one: its stack is the generic form, which calls it."""

    def derivative(self, t, k):
        return super().derivative(t, k)


@pytest.mark.parametrize("reader", [*sim.CONTROLLERS, "averaged", "stack"])
@pytest.mark.parametrize("ref", [SineReference(amplitude=1e308, rate=10.0),
                                 SineReference(rate=1e200), _DelegatingSine(rate=1e200)],
                         ids=["amplitude", "rate", "own-derivative-rate"])
def test_a_sine_reference_past_the_float_range_is_a_non_finite_reference(demo, gains,
                                                                         reader, ref):
    # amplitude * rate**k leaves the float range in the product, or for
    # rate 1e200 already in rate**k: the stack is not finite from t = 0 on;
    # a reference whose own derivative overflows ends the same way
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=ref)
    spec = example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)
    with pytest.raises(BlowupError, match="^non-finite reference value$") as info:
        if reader == "averaged":
            simulate_averaged(demo, spec, gains, sc)
        elif reader == "stack":
            ref.stack(0.0, 2)
        else:
            run_scenario(demo, reader, gains, sc, lyap_spec=spec, nominal_reference=ref)
    assert info.value.t == 0.0
    if reader in sim.CONTROLLERS:       # the sample at t = 0, read before the step failed
        partial = info.value.partial_trajectory
        assert not partial.complete and list(partial.t) == [0.0]


class _SqrtReference(Reference):
    """sqrt(0.0042 - t): a math-domain error from the midpoint of step 4 on."""

    def derivative(self, t, k):
        return math.sqrt(0.0042 - t) if k == 0 else 0.0


def test_reference_raising_a_divergence_keeps_the_steps_cause(demo, gains):
    # re-reading the failed step's stacks raises again; the cause stands, in
    # the closed loop and in the averaged system alike
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=_SqrtReference())
    with pytest.raises(BlowupError, match="^arithmetic divergence: ") as info:
        run_scenario(demo, "es", gains, sc)
    assert info.value.t == 0.004
    assert len(info.value.partial_trajectory.t) == 5
    spec = example_lyapunov_spec(demo, gains, scale=DEFAULT_PSI_SCALE)
    with pytest.raises(BlowupError) as averaged:
        simulate_averaged(demo, spec, gains, sc, h0=[0.1, 0.0])
    assert str(averaged.value) == str(info.value)
    assert averaged.value.t == 0.004


class _FaultyReference(Reference):
    def derivative(self, t, k):
        raise ValueError("bug")


def test_fault_in_user_code_is_not_divergence(demo, gains):
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference=_FaultyReference())
    with pytest.raises(ValueError, match="^bug$"):
        run_scenario(demo, "es", gains, sc)


# --- the generated step against the library laws ------------------------------------

def _untraced_poly_system(n, seed):
    """random_poly_system with drifts that read their argument as an array:
    they run on floats and jets but not while tracing, so the generated step
    writes out call tapes: calls of the Taylor pass and of the drifts."""
    base = random_poly_system(n, seed)
    return SystemModel(n=n, gain=base.gain, xi1=base.xi1, name=f"untraced{n}s{seed}",
                       drift=tuple(lambda xs, d=d: d(np.asarray(xs)) for d in base.drift))


_FAMILIES = {"poly": random_poly_system, "trig": trig_exp_system,
             "untraced": _untraced_poly_system}


def _oracle_law(sys, controller, gains, spec, ref, nominal_ref, t, x):
    """The library law as (tt, s) -> (u, aux rates), with the safety
    filter's mode frozen at the sample (t, x)."""
    n = sys.n
    ys = ref.stack(t, n)
    nominal_mode = controller == "nominal" or (
        controller == "safety-filter" and ys[0] - x[0] >= 0.0)

    def law(tt, s):
        if nominal_mode:
            r = ref if controller == "nominal" else nominal_ref
            return nominal_backstepping(sys, s[:n], r.stack(tt, n), gains), []
        if controller == "nussbaum":
            u, dtheta = nussbaum_control(sys, s[:n], ref.stack(tt, n), gains,
                                         NussbaumState(s[n]))
            return u, [dtheta]
        return es_control(spec, gains, tt, error_coords(sys, s[:n], ref.stack(tt, n), gains)), []

    return law


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@given(seed=st.integers(0, 200), dt=st.floats(1e-4, 2e-3), theta0=st.floats(-2.0, 2.0),
       h0=st.lists(st.floats(-0.2, 0.2), min_size=5, max_size=5))
@settings(max_examples=3, phases=NO_SHRINK)
def test_generated_step_equals_the_library_laws_bit_for_bit(seed, dt, theta0, h0, n, family):
    # h, u and the next state of every recorded step equal the library laws
    # stepped by rk4_step over eval_dynamics, for all four controllers, on
    # the plant and on the plant with its gain negated (same floor), which
    # pins the traced a / g, the comparator and the floor check for g < 0
    base = _FAMILIES[family](n, seed)
    gains = random_gains(n, seed)
    spec = LyapunovSpec(DriftBound(growth_coeffs=(0.0, 1.0), offset=0.1),
                        gains.c[-1], gains.kappa)
    ref, nominal_ref = get_reference("sine04"), get_reference("constant:-0.2")
    x0 = state_from_errors(base, h0[:n], ref.stack(0.0, n), gains)
    sc = Scenario(x0=tuple(x0), t_end=3 * dt, dt=dt, reference=ref)
    for sys, controller in itertools.product((base, negated_gain(base)),
                                             ("es", "nominal", "nussbaum", "safety-filter")):
        try:
            traj, _ = run_scenario(sys, controller, gains, sc, lyap_spec=spec,
                                   theta0=theta0, nominal_reference=nominal_ref)
        except BlowupError as exc:      # a stiff random plant may leave the float range
            traj = exc.partial_trajectory
        # the comparator's adaptation state is not recorded: replay its first step
        for k in range(min(len(traj.t), 1 if controller == "nussbaum" else 3)):
            t = traj.t[k]
            state = np.array(list(traj.x[k]) + ([theta0] if controller == "nussbaum" else []))
            law = _oracle_law(sys, controller, gains, spec, ref, nominal_ref, t, state)
            assert t == k * dt
            assert _hex(traj.h[k]) == _hex(error_coords(sys, state[:n], ref.stack(t, n), gains))
            assert float(traj.u[k]).hex() == float(law(t, state)[0]).hex()
            if k + 1 < len(traj.t):
                def rhs(tt, s):
                    u, aux = law(tt, s)
                    return np.concatenate([eval_dynamics(sys, s[:n], u), aux])

                assert _hex(traj.x[k + 1]) == _hex(rk4_step(rhs, t, state, dt)[:n])


def test_the_run_loop_writes_the_library_law_kernels(gains, monkeypatch):
    # the loops hold no copy of a law: on a fresh plant, whose loops compile
    # here, a changed kernel changes the recorded u as it changes the law
    seeking, known = control.seeking_input, control.known_gain_input
    monkeypatch.setattr(control, "seeking_input", lambda *a: 0.5 * seeking(*a))
    monkeypatch.setattr(control, "known_gain_input", lambda *a: known(*a) + 0.25)
    plant = example_system()
    spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.05, dt=1e-3)
    es, _ = run_scenario(plant, "es", gains, sc, lyap_spec=spec)
    for t, h, u in zip(es.t, es.h, es.u):
        assert u == es_control(spec, gains, t, h) == 0.5 * seeking(
            h, t, gains.omega, math.sqrt(gains.omega), gains.beta, gains.lam,
            spec._value_coeffs)
    nominal, _ = run_scenario(plant, "nominal", gains, sc)
    ref = get_reference(sc.reference)
    for t, x, u in zip(nominal.t, nominal.x, nominal.u):
        g = plant.gain(tuple(x))
        z, drift = coords_and_drift(plant, gains.c, x, ref.stack(t, 2), couple=True)
        assert u == nominal_backstepping(plant, x, ref.stack(t, 2), gains) \
            == known((*z, drift), gains.c[-1], g) + 0.25


def test_a_sweep_compiles_one_step_and_later_runs_none(gains, monkeypatch):
    built = []
    source = sim._step_source
    monkeypatch.setattr(sim, "_step_source",
                        lambda s, controller, *args: built.append(controller)
                        or source(s, controller, *args))
    plant = example_system()
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    result = sweep(plant, "es", gains, sc, {"kappa_n": [1.1, 3.0], "lambda": [4.0, 5.0]})
    assert [v for _, v, _ in result.rows] == ["valid"] * 4
    assert built == ["es"]
    run_scenario(plant, "es", gains, sc)
    assert built == ["es"]
    run_scenario(plant, "nominal", gains, sc)
    assert built == ["es", "nominal"]


def test_a_sweep_on_the_sine_id_binds_its_stack_once_per_run(gains, monkeypatch):
    # a run binds the sine's parameters once (model.stack_binding) and its
    # nodes write the stack out, so the sweep's three runs bind three
    # stacks and nothing else
    built = []
    form = model.STACK_FORMS["sine"]
    monkeypatch.setitem(model.STACK_FORMS, "sine", form._replace(
        params=lambda ref, n: built.append(n) or form.params(ref, n)))
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3, reference="sine04")
    result = sweep(example_system(), "es", gains, sc, {"kappa_n": [1.1, 2.0, 3.0]})
    assert [v for _, v, _ in result.rows] == ["valid"] * 3
    assert built == [2] * 3


# --- the gain and the reference stack written into the loop --------------------------

def _demo_with_sine(sin):
    """The demo plant with its gain's sine taken from sin."""
    base = example_system()
    return SystemModel(n=2, drift=base.drift, gain=lambda xs: 0.2 * sin(xs[1]) + 1.2,
                       xi1=base.xi1, name=base.name)


def _runs(plant, gains, ref):
    """Every controller's run from a safe and an unsafe start, and the
    averaged system's samples, as bit strings; a run that leaves the float
    range (the seeking law from the far start on constant:0.3) as its
    partial record, cause and time."""
    spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
    out = []
    for controller, x0 in itertools.product(sim.CONTROLLERS, [(-0.5, 0.0), (0.2, 0.0)]):
        sc = Scenario(x0=x0, t_end=0.3, dt=1e-3, reference=ref)
        try:
            traj, rep = run_scenario(plant, controller, gains, sc, theta0=0.1)
        except BlowupError as exc:
            out.append((exc.partial_trajectory.to_csv(), str(exc), exc.t))
            continue
        out.append((traj.to_csv(), _hex(traj.x.ravel()), rep.csv_row(), _hex([rep.max_abs_u])))
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.3, dt=1e-3, reference=ref)
    out.append(_hex(simulate_averaged(plant, spec, gains, sc).ravel()))
    return out


@pytest.mark.parametrize("ref", ["sine04", "constant:0.3",
                                 _DelegatingSine(amplitude=-0.8, rate=0.6)],
                         ids=["sine", "constant", "call"])
def test_a_traced_gain_runs_as_the_called_one_bit_for_bit(gains, ref):
    # dualnum.sin traces (the demo's gain is written into every node);
    # math.sin does not (each node calls the gain): the same float operations,
    # on each kind of reference stack
    traced, called = _demo_with_sine(dualnum.sin), _demo_with_sine(math.sin)
    assert not traced._tapes["gain"].calls and called._tapes["gain"].calls
    assert _runs(traced, gains, ref) == _runs(called, gains, ref)


def test_a_sine_subclass_with_its_own_derivative_runs_as_the_built_in_sine(demo, gains):
    # the subclass's stack is the generic form, one call per node time,
    # the built-in's is written out: the same values bit for bit
    assert _runs(demo, gains, _DelegatingSine(amplitude=-0.8, rate=0.6)) == \
        _runs(demo, gains, SineReference(amplitude=-0.8, rate=0.6))


def test_a_traced_gain_is_called_by_no_run(gains):
    calls = []

    def gain(xs):
        calls.append(xs)
        return 0.2 * dualnum.sin(xs[1]) + 1.2

    base = example_system()
    plant = SystemModel(n=2, drift=base.drift, gain=gain, xi1=1.0, name="example")
    assert len(calls) == 1 and not plant._tapes["gain"].calls      # the trace, on building
    calls.clear()
    spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3)
    for controller in sim.CONTROLLERS:
        run_scenario(plant, controller, gains, sc)
    simulate_averaged(plant, spec, gains, sc)
    assert calls == []


def _calls(node, allowed):
    """The names called in node's code outside raise statements and the
    two-term fsum's guard, less allowed."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise) or isinstance(sub, ast.If) and \
                ast.unparse(sub.test).startswith("not abs("):
            for inner in ast.walk(sub):
                inner.error_path = True
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and not getattr(sub, "error_path", False):
            name = ast.unparse(sub.func)
            if name not in allowed:
                found.append(name)
    return found


@pytest.mark.parametrize("loop", [*sim.CONTROLLERS, "averaged"])
def test_the_demo_loops_call_nothing_per_node_but_math(loop, gains):
    # the demo's gain, its reference stacks and the two-term fsum of |h| are
    # written into the nodes: a node calls sin, cos, sqrt and abs (in the
    # guards) alone, and the loop its node functions and range; its sample
    # writes call nothing.  With math.sin the gain does not trace, and each
    # node, node 1 in each of the filter's branches too, calls the plant's
    # gain once and nothing else but math
    math_calls = {"sin", "cos", "sqrt", "abs"}
    for plant, per_node in ((example_system(), []), (_demo_with_sine(math.sin), ["gain"])):
        spec = example_lyapunov_spec(plant, gains, scale=DEFAULT_PSI_SCALE)
        if loop == "averaged":
            source = averaging._averaged_source(plant, len(spec._weight_coeffs), "sine")
        else:
            ncoef = len(spec._value_coeffs) if loop in sim.DITHERED else None
            source = sim._step_source(plant, loop, ncoef, "sine", "constant")
        make = ast.parse(source).body[0]
        nodes = [f for f in make.body if isinstance(f, ast.FunctionDef) and f.name != "advance"]
        assert nodes and all(_calls(f, math_calls) == per_node for f in nodes)
        [advance] = [f for f in make.body
                     if isinstance(f, ast.FunctionDef) and f.name == "advance"]
        allowed = math_calls | {f.name for f in nodes} | {"range"}
        if loop == "safety-filter":
            [branch] = [s for s in ast.walk(advance) if isinstance(s, ast.If) and s.orelse]
            for body in (branch.body, branch.orelse):
                assert [name for s in body for name in _calls(s, allowed)] == per_node
            assert _calls(advance, allowed) == per_node * 2
        else:
            assert _calls(advance, allowed) == per_node * (loop != "averaged")


def _unread(function):
    """The parameters of function and the names it assigns that it never
    reads, _ aside."""
    stored = {a.arg for a in function.args.args}
    loaded = set()
    for sub in ast.walk(function):
        if isinstance(sub, ast.Name):
            (loaded if isinstance(sub.ctx, ast.Load) else stored).add(sub.id)
    return sorted(stored - loaded - {"_"})


@pytest.mark.parametrize("kind", ["sine", "constant", "call"])
@pytest.mark.parametrize("plant", [example_system,
                                   *(lambda n=n: random_poly_system(n, 5) for n in range(1, 5)),
                                   *(lambda n=n: _untraced_poly_system(n, 3) for n in range(2, 5))],
                         ids=["demo", "poly1", "poly2", "poly3", "poly4",
                              "untraced2", "untraced3", "untraced4"])
def test_a_loop_computes_and_passes_only_what_it_reads(plant, kind):
    # advance and every node function read each name they assign and each
    # parameter they take: no stack item above the order the nodes' tapes
    # read (the seeking law's y^(n) on a traced plant), no item of a call
    # that no tape reads (an untraced plant's z_1..z_{n-2}), no dither pair
    # the kernel does not form itself, no unused time; make's once-per-run
    # bindings aside
    plant = plant()
    sources = {controller: sim._step_source(plant, controller, 3 if controller in sim.DITHERED
                                            else None, kind, kind)
               for controller in sim.CONTROLLERS}
    sources["averaged"] = averaging._averaged_source(plant, 3, kind)
    for loop, source in sources.items():
        for function in ast.parse(source).body[0].body:
            if isinstance(function, ast.FunctionDef):
                assert _unread(function) == [], (loop, function.name)
