"""The compiled run loops (``native``): the C loop against the Python loop,
bit for bit, and the ways a run falls back to the Python loop."""

import ctypes
import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_sim
from conftest import NO_SHRINK, random_gains, random_poly_system
from nonovershoot import (ConstantReference, DriftBound, GainConfig, GainFloorViolation,
                          LyapunovSpec, Scenario, SineReference, SystemModel, averaging,
                          demo_gains, dualnum, example_lyapunov_spec, example_system, native,
                          run_scenario, sim, simulate_averaged, state_from_errors)

LOOPS = (*sim.CONTROLLERS, "averaged")


def traced_poly_system(n: int, seed: int, variant: str = "plain") -> SystemModel:
    """random_poly_system(n, seed) with its gain over ``dualnum.sin``, which
    traces, so that every tape of the plant is written out.  variant
    "division" adds to drift_1 a term with an unused division by zero (the
    Python loop raises ZeroDivisionError at it), "overflow" one whose
    product overflows to inf before exp takes it to 0.0 (the Python loop
    runs on; the C loop's overflow flag hands the run over to it)."""
    base = random_poly_system(n, seed)
    rng = np.random.default_rng(seed)       # the draws of random_poly_system's a and b
    a, b = rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)
    drift = list(base.drift)
    if variant == "division":
        drift[0] = lambda xs, d=drift[0]: (d(xs), 1.0 / (xs[0] - xs[0]))[0]
    elif variant == "overflow":
        drift[0] = lambda xs, d=drift[0]: d(xs) + dualnum.exp(-(xs[0] * xs[0] + 1.0) * 1e308 * 10.0)
    plant = SystemModel(n=n, drift=tuple(drift), gain=lambda xs: a * dualnum.sin(xs[-1]) + b,
                        xi1=base.xi1, name=f"traced{n}s{seed}{variant}")
    x = tuple(np.linspace(-0.3, 0.4, n))
    assert plant.gain(x) == base.gain(x) and not plant._tapes["gain"].calls
    return plant


def _outcome(run):
    """What a run gives: its arrays' bytes, or the exception's type,
    message, t, state and partial record."""
    try:
        out = run()
    except Exception as exc:        # the Python loop's own exceptions, compared below
        partial = getattr(exc, "partial_trajectory", None)
        return (type(exc), str(exc), getattr(exc, "t", None),
                None if getattr(exc, "state", None) is None else exc.state.tobytes(),
                None if partial is None else _arrays(partial))
    return _arrays(out[0]) + (out[1].csv_row(),) if isinstance(out, tuple) else out.tobytes()


def _arrays(traj):
    return (traj.complete, *(a.tobytes() for a in (traj.t, traj.x, traj.h, traj.u, traj.yr,
                                                   traj.margin, traj.mode)))


def _both_paths(run):
    """(the Python loop's outcome, the compiled loop's, the path it took)."""
    with native.forced("python"):
        python = _outcome(run)
    with native.forced("compiled"):
        compiled = _outcome(run)
    return python, compiled, native.PATHS[-1][1]


@settings(max_examples=30, phases=NO_SHRINK)
@given(n=st.integers(1, 4), seed=st.integers(0, 2), loop=st.sampled_from(LOOPS),
       kind=st.sampled_from(["sine", "constant"]),
       variant=st.sampled_from(["plain", "plain", "division", "overflow"]),
       scale=st.sampled_from([0.0, 1.0, 1.0, 30.0]), psi=st.sampled_from([0.05, 1.0]))
def test_the_compiled_loop_is_the_python_loop_bit_for_bit(n, seed, loop, kind, variant, scale,
                                                           psi):
    # record, exception type and message, t, state and partial record, on
    # starts that track, escape or raise; scale 30 starts far out, scale 0
    # on the reference (h = 0, whose zeros' signs the record keeps)
    plant = traced_poly_system(n, seed, variant)
    gains = random_gains(n, seed, descending=True)
    spec = LyapunovSpec(drift_bound=DriftBound((0.0, psi, psi), psi), c_n=gains.c[-1],
                        kappa=gains.kappa)
    ref = SineReference() if kind == "sine" else ConstantReference(0.3)
    h0 = np.r_[-0.1 * scale, np.full(n - 1, 0.05 * scale)]
    # from the plant without the variant's term, which the Taylor pass
    # would raise at on floats
    x0 = tuple(state_from_errors(random_poly_system(n, seed), h0, ref.stack(0.0, n), gains))
    sc = Scenario(x0=x0, t_end=0.3, dt=1e-3, reference=ref)
    if loop == "averaged":
        def run():
            return simulate_averaged(plant, spec, gains, sc, h0=h0)
    else:
        def run():
            return run_scenario(plant, loop, gains, sc, lyap_spec=spec, theta0=0.5 * scale,
                                nominal_reference=ConstantReference(-0.2) if kind == "constant"
                                else "sine04")
    python, compiled, path = _both_paths(run)
    assert path.startswith("compiled")
    assert compiled == python


@pytest.mark.parametrize("loop", LOOPS)
def test_the_demo_runs_take_the_compiled_loop_once_it_pays(loop, monkeypatch):
    # below _COMPILE_STEPS a loop stays in Python; the run that reaches it
    # builds the C loop, and it and the runs after it take it; on each
    # path x and h (hbar) are (N + 1, n) and the mode int8
    monkeypatch.setattr(native, "_steps_run", {})
    monkeypatch.setattr(native, "_built", {})
    plant, gains = example_system(), demo_gains()
    spec = example_lyapunov_spec(plant, gains, scale=sim.DEFAULT_PSI_SCALE)
    short = Scenario(x0=(-0.5, 0.0), t_end=native._COMPILE_STEPS * 1e-3 / 2, dt=1e-3)
    paths = []
    for sc in (short, replace(short, t_end=short.t_end * 0.99), short):
        if loop == "averaged":
            shapes = [simulate_averaged(plant, spec, gains, sc).shape]
        else:
            traj = run_scenario(plant, loop, gains, sc)[0]
            shapes = [traj.x.shape, traj.h.shape]
            assert traj.mode.dtype == np.int8
        assert shapes == [(sc.nsteps + 1, 2)] * len(shapes)
        paths.append(native.PATHS[-1][1])
    assert paths == ["python", "python", "compiled"]


def test_a_compiled_run_in_blocks_is_one_run(monkeypatch):
    # the C loop runs _BLOCK_STEPS steps per call; where a block ends does not show
    plant, gains = example_system(), demo_gains()
    sc = Scenario(x0=(0.2, 0.0), t_end=0.3, dt=1e-3)
    with native.forced("python"):
        expected = run_scenario(plant, "safety-filter", gains, sc)[0].to_csv()
    monkeypatch.setattr(native, "_BLOCK_STEPS", 7)
    with native.forced("compiled"):
        assert run_scenario(plant, "safety-filter", gains, sc)[0].to_csv() == expected
    assert _run_path() == "compiled"


class _CalledSine(SineReference):
    """The sine reference through a derivative of its own: a "call" stack."""

    def derivative(self, t, k):
        return SineReference.derivative(self, t, k)


@pytest.mark.parametrize("what", ["gain", "reference"])
def test_a_called_gain_or_reference_stays_in_python_without_gcc(what, monkeypatch):
    # the C dialect writes no call, so the loop has no C form and gcc never runs
    monkeypatch.setattr(native, "_compile", lambda *args: pytest.fail("gcc ran"))
    plant = example_system()
    if what == "gain":
        plant = SystemModel(n=2, drift=plant.drift, xi1=plant.xi1, name="called",
                            gain=lambda xs: 0.2 * math.sin(xs[1]) + 1.2)
    sc = Scenario(x0=(-0.5, 0.0), t_end=0.01, dt=1e-3,
                  reference=_CalledSine() if what == "reference" else "sine04")
    with native.forced("compiled"):
        run_scenario(plant, "nominal", demo_gains(), sc)
    assert native.PATHS[-1] == (f"nominal loop of {plant.name}", "python")


def _floor_run(a):
    """Ten nominal steps of dt = 0.1 from x = 0 toward the constant
    reference 1 on dx/dt = (a - x) * u, whose traced gain a - x breaks the
    floor xi1 = 1e-10 only within 1e-5 of a."""
    plant = SystemModel(n=1, drift=(lambda xs: 0.0,), gain=lambda xs: a - xs[0], xi1=1e-10)
    gains = GainConfig(c=(2.0,), kappa=1.1, lam=4.0, beta=0.8, omega=60.0)
    sc = Scenario(x0=(0.0,), t_end=1.0, dt=0.1, reference="constant:1")
    return run_scenario(plant, "nominal", gains, sc)


@pytest.mark.parametrize("node", [1, 2])
def test_a_floor_violation_keeps_the_rows_recorded_before_it(node, monkeypatch):
    # the nominal law makes dx/dt = 2 (1 - x) whatever the gain, to an ulp,
    # so a = the state at node 1 or node 2 of step k breaks the floor there
    # first; node 1 checks the floor before it records row k, node 2 after
    # it.  On both paths the loop has then written k or k + 1 rows, the
    # same rows: the compiled one hands step k over to the Python loop
    k = 4
    probe, _ = _floor_run(10.0)
    a = probe.x[k, 0] + (node == 2) * 0.05 * (10.0 - probe.x[k, 0]) * probe.u[k]
    seen = []
    run = native.run
    monkeypatch.setattr(native, "run", lambda *args: seen.append((run(*args), args[-1]))
                        or seen[-1][0])
    records = []
    for path in ("python", "compiled"):
        with native.forced(path), pytest.raises(GainFloorViolation):
            _floor_run(a)
        assert native.PATHS[-1][1] == ("python" if path == "python"
                                       else f"compiled to step {k}, then python")
        (_, _, rows), record = seen[-1]
        assert rows == k + (node == 2)
        records.append(record[:rows].tobytes())
        assert np.array_equal(record[:rows, 0], probe.t[:rows])
    assert records[0] == records[1]


def test_the_c_loop_records_the_last_sample_unchecked_by_the_floor():
    # a floor broken only at the last sample raises nowhere (as
    # test_sim.test_gain_floor_is_not_checked_at_the_last_sample on the
    # Python loop): the C loop records that sample itself
    probe, _ = _floor_run(10.0)
    runs = []
    for path in ("python", "compiled"):
        with native.forced(path):
            runs.append(_outcome(lambda: _floor_run(probe.x[-1, 0] + 1e-7)))
        assert native.PATHS[-1][1] == path
    assert runs[0] == runs[1] and runs[0][0]


def test_a_last_sample_that_fails_in_c_is_taken_by_python():
    # a zero gain at the last state sets C's singular-gain flag there; the
    # Python loop then takes that sample, with the same outcome
    probe, _ = _floor_run(10.0)
    runs = []
    for path in ("python", "compiled"):
        with native.forced(path):
            runs.append(_outcome(lambda: _floor_run(probe.x[-1, 0])))
    assert native.PATHS[-1][1] == f"compiled to step {probe.t.size - 1}, then python"
    assert runs[0] == runs[1]


def _bindings(emit):
    """What emit's description gives the Python and the C dialect of what
    make binds: (its setup lines, the run constants) for each."""
    given = []

    class Python(sim.Python):
        @staticmethod
        def source(params, setup, consts, *rest):
            given.append((setup, consts))
            return ""

    class C(native.C):
        def source(self, params, setup, consts, *rest):
            given.append((setup, consts))
            return super().source(params, setup, consts, *rest)
    emit(Python)
    emit(C())
    return given


@pytest.mark.parametrize("kind", ["sine", "constant"])
@pytest.mark.parametrize("plant", [example_system, *(lambda n=n: traced_poly_system(n, 1)
                                                    for n in range(1, 5))],
                         ids=["demo", "traced1", "traced2", "traced3", "traced4"])
def test_both_dialects_bind_the_same_run_constants(plant, kind):
    # the C loop reads its run constants in the order of consts from the
    # values that the Python make returns, so the two descriptions must
    # bind the same lines, whatever each dialect writes a constant as
    plant = plant()
    for loop in LOOPS:
        if loop == "averaged":
            def emit(lang):
                return averaging._averaged_source(plant, 3, kind, lang)
        else:
            def emit(lang):
                return sim._step_source(plant, loop, 5 if loop in sim.DITHERED else None, kind,
                                        "constant" if kind == "sine" else "sine", lang)
        python, c = _bindings(emit)
        assert python == c and python[1][:1] == ["dt"] and python[1][-2:] == ["half", "sixth"]


# --- the fsum port -------------------------------------------------------------------

@pytest.fixture(scope="module")
def c_fsum(tmp_path_factory):
    """native's fsum_, built alone: (values) -> (sum, failed)."""
    cache = tmp_path_factory.mktemp("fsum")
    path = cache / "fsum.so"
    text = native._PRELUDE + ("double f(const double *xs, int n, int *bad) "
                              "{ return fsum_(xs, n, bad); }\n")
    if not native._compile(text, path, cache):
        pytest.fail("gcc could not build the fsum harness")
    fn = ctypes.CDLL(str(path)).f
    fn.restype = ctypes.c_double
    fn.argtypes = (ctypes.POINTER(ctypes.c_double), ctypes.c_int, ctypes.POINTER(ctypes.c_int))

    def fsum(values):
        bad = ctypes.c_int(0)
        out = fn((ctypes.c_double * len(values))(*values), len(values), ctypes.byref(bad))
        return out, bad.value
    return fsum


_SPREAD = st.builds(lambda m, e: math.ldexp(m, e), st.floats(-1, 1), st.integers(-80, 80))


@settings(max_examples=300)
@given(st.lists(st.one_of(_SPREAD, st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 1.0, 1e-16, 1e16, 2.0 ** 53])),
                min_size=0, max_size=200))
def test_the_c_fsum_is_math_fsum(c_fsum, values):
    out, bad = c_fsum(values)
    try:
        expected = math.fsum(values)
    except OverflowError:
        assert bad
        return
    assert not bad and math.copysign(1, out) == math.copysign(1, expected) and out == expected


def test_the_c_dialect_writes_an_fsum_of_any_length():
    for terms in (1, 2, 64, 65, 100):
        names = [f"a{i}" for i in range(terms)]
        text = native.C.form("fsum((" + "{}, " * terms + "))").format(*names)
        assert text == f"fsum_((const double[]){{{', '.join(names)}}}, {terms}, bad_)"


def test_the_c_fsum_rounds_half_even_across_partials(c_fsum):
    for values in ([1e-16, 1.0, 1e16], [1.0, 1e100, 1.0, -1e100], [-0.0, -0.0], [1e308, 1e308]):
        out, bad = c_fsum(values)
        if bad:
            with pytest.raises(OverflowError):
                math.fsum(values)
        else:
            assert out == math.fsum(values) and str(out) == str(math.fsum(values))


# --- falling back to the Python loop ---------------------------------------------------

DEMO = Scenario(x0=(-0.5, 0.0), t_end=0.2, dt=1e-3)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A fresh, empty cache and no loop built in this process yet."""
    path = tmp_path / "cache"
    monkeypatch.setattr(native, "_CACHE", path)
    monkeypatch.setattr(native, "_built", {})
    return path


def _demo_csv(path="compiled"):
    with native.forced(path):
        return run_scenario(example_system(), "es", demo_gains(), DEMO)[0].to_csv()


def _run_path():
    """The path of the latest run: the latest entry of PATHS but to_csv's."""
    return next(path for label, path in reversed(native.PATHS) if label != "to_csv")


def _leftovers(cache):
    """What the cache holds besides intact entries."""
    return sorted(p.name for p in cache.iterdir() if not (
        p.suffix == ".so" and native._intact(p))) if cache.exists() else []


@pytest.mark.parametrize("compiler", ["no-such-compiler-on-this-path", "false"])
def test_a_missing_or_failing_compiler_leaves_the_python_loop(cache, monkeypatch, compiler):
    monkeypatch.setattr(native, "_CC", compiler)
    expected = _demo_csv("python")
    assert _demo_csv() == expected
    assert _run_path() == "python" and native.PATHS[-1] == ("to_csv", "python")
    assert _leftovers(cache) == [] and list(cache.iterdir()) == []


def _truncated_entry(cache):
    """The cache entry of the demo's es loop, built and then cut short (as a
    write that stopped would leave it), not loaded in this process."""
    text = sim._step_source(example_system(), "es", 5, "sine", "constant", native.C())
    entry = cache / native._entry_name(text)
    cache.mkdir(mode=0o700)
    assert native._compile(text, entry, cache)
    whole = entry.read_bytes()
    (cache / "cut").write_bytes(whole[:len(whole) // 2])
    os.replace(cache / "cut", entry)
    return entry, whole


def test_a_truncated_cache_entry_is_rebuilt_not_loaded(cache, monkeypatch):
    entry, whole = _truncated_entry(cache)
    loaded = []
    monkeypatch.setattr(ctypes, "CDLL", lambda path, cdll=ctypes.CDLL: loaded.append(
        native._intact(native.Path(path))) or cdll(path))
    expected = _demo_csv("python")
    assert _demo_csv() == expected and _run_path() == "compiled"
    # the loop's entry, rebuilt, then the CSV kernel's, each intact when loaded
    assert loaded == [True, True] and entry.read_bytes() == whole
    assert native.PATHS[-1] == ("to_csv", "compiled")
    assert _leftovers(cache) == []


def test_a_truncated_entry_with_no_compiler_leaves_the_python_loop(cache, monkeypatch):
    entry, whole = _truncated_entry(cache)
    monkeypatch.setattr(native, "_CC", "false")
    expected = _demo_csv("python")
    assert _demo_csv() == expected and _run_path() == "python"
    assert entry.read_bytes() == whole[:len(whole) // 2]


@pytest.mark.parametrize("how", ["under a file", "writable by others"])
def test_an_unwritable_or_shared_cache_leaves_the_python_loop(tmp_path, monkeypatch, how):
    if how == "under a file":
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "cache"
    else:
        path = tmp_path / "shared"
        path.mkdir()
        path.chmod(0o777)
    monkeypatch.setattr(native, "_CACHE", path)
    monkeypatch.setattr(native, "_built", {})
    expected = _demo_csv("python")
    assert _demo_csv() == expected and _run_path() == "python"
    assert native.PATHS[-1] == ("to_csv", "python")
    assert not path.exists() or list(path.iterdir()) == []


def test_two_builds_of_one_entry_at_once_leave_one_intact_entry(cache):
    cache.mkdir(mode=0o700)
    text = sim._step_source(example_system(), "nominal", None, "sine", None, native.C())
    done = []
    threads = [threading.Thread(target=lambda: done.append(
        native._compile(text, cache / "entry.so", cache))) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert done == [True, True] and os.listdir(cache) == ["entry.so"]
    assert native._intact(cache / "entry.so")


# --- the CSV kernel ------------------------------------------------------------------

def _demo_trajectory(rows):
    """The first rows of a demo es run, as a trajectory."""
    traj, _ = run_scenario(example_system(), "es", demo_gains(),
                           Scenario(x0=(-0.5, 0.0), t_end=(rows - 1) * 1e-3, dt=1e-3))
    assert len(traj.t) == rows
    return traj


def test_to_csv_takes_the_compiled_kernel_once_it_pays(monkeypatch):
    # below _COMPILE_STEPS rows rendered in the process to_csv stays in
    # Python; the call that reaches it builds the kernel, here on this host
    monkeypatch.setattr(native, "_steps_run", {})
    monkeypatch.setattr(native, "_built", {})
    traj = _demo_trajectory(native._COMPILE_STEPS // 2)
    paths, texts = [], []
    for _ in range(3):
        texts.append(traj.to_csv())
        paths.append(native.PATHS[-1])
    assert paths == [("to_csv", "python"), ("to_csv", "compiled"), ("to_csv", "compiled")]
    assert texts[0] == texts[1] == texts[2]


def test_to_csv_without_a_cache_is_the_row_loop(monkeypatch):
    monkeypatch.setattr(native, "_cache_dir", lambda: None)
    monkeypatch.setattr(native, "_built", {})
    monkeypatch.setattr(native, "_compile", lambda *args: pytest.fail("gcc ran"))
    traj = _demo_trajectory(300)
    with native.forced("compiled"):
        text = traj.to_csv()
    assert native.PATHS[-1] == ("to_csv", "python")
    assert text == test_sim._row_loop_csv(traj)
