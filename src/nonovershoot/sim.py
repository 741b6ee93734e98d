"""Closed-loop simulation: fixed-step RK4, trajectory records, overshoot
metrics, and parameter sweeps.

Fixed stepping is deliberate: the dithered right-hand side is highly
oscillatory and adaptive controllers thrash on it, while a fixed grid
gives bit-identical reruns.  The controller is re-evaluated at every
RK4 sub-stage because the input depends continuously on time through
the dither; sample-and-hold would inject averaging error at the
square-root-of-frequency scale.

That makes the simulator's cost its per-step overhead, so the run loop
itself is code generated for the plant, controller and kind of reference
stack (``_step_source``), compiled on the first such run on that plant
and cached on it.  It writes out the plant's tapes (the gain's among
them, which is one call of the gain where that does not trace) and the
control law's, traced from the library's own functions
(``synth.trace``, the dither included), and a built-in reference's
stack (``model.STACK_FORMS``), and holds only the integrator, so a run's
results are those of the library laws and of ``rk4_step`` bit for bit;
on the demo plant a node calls only ``sin``, ``cos``, ``sqrt`` and
``abs``.  Gains, Lyapunov coefficients and the references' parameters
are inputs, so a sweep compiles one loop.  The averaged system's loop
comes from the same emitter and runs on the same driver (``_drive``).
The emitters write each loop's one description in Python (``Python``)
or in C (``native.C``); once a loop's runs have taken enough steps, they
take its C form, built once (``native.run``), and the Python loop takes
over from any step the C loop stops at, so either way a run's results,
and its exceptions, are the Python loop's bit for bit.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import control, native, synth
from .model import (_STATE_LIMIT, GAIN_FLOOR_TOL, STACK_FORMS, BlowupError, Scenario,
                    SystemModel, bound_stack, get_reference, is_divergence, max_dither_dt,
                    stack_binding)
from .synth import (TAPE_SCOPE, Bound, GainConfig, check_gain_count, check_gains,
                    descending_bounds, items_read, render, stack_order, stack_tape, trace)

DEFAULT_PSI_SCALE = 0.0025
DEFAULT_DELTA_EST = 0.1

CONTROLLERS = ("es", "nominal", "nussbaum", "safety-filter")
DITHERED = ("es", "safety-filter")      # the controllers whose input carries the dither

REPORT_COLUMNS = ("scenario", "gains", "max_h1", "t_at_max", "tail_abs_h1",
                  "envelope_violation", "min_H")


def fmt(v) -> str:
    """Render a float with 17 significant digits (CSV contract)."""
    return f"{v:.17g}"


def rk4_step(rhs, t: float, x, dt: float):
    """Classical fourth-order Runge-Kutta update, local error O(dt^5).

    The simulator steps with code generated for each plant and controller
    (``run_scenario``); this array form, with ``model.eval_dynamics`` as
    the rate, is the independent replay oracle that the tests and the
    benchmark's checks run recorded steps through, as the nested duals
    are for the synthesis."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = np.asarray(x, dtype=float)
    k1 = np.asarray(rhs(t, x))
    k2 = np.asarray(rhs(t + dt / 2, x + dt / 2 * k1))
    k3 = np.asarray(rhs(t + dt / 2, x + dt / 2 * k2))
    k4 = np.asarray(rhs(t + dt, x + dt * k3))
    out = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowupError("non-finite RK4 update", t=t, state=x)
    return out


def refine_dt(dt: float, omega: float) -> float:
    """Shrink dt to an integer fraction that resolves the dither
    (``model.max_dither_dt``)."""
    dt_max = max_dither_dt(omega)
    if dt <= dt_max:
        return dt
    return dt / math.ceil(dt / dt_max)


@dataclass
class Trajectory:
    """Sampled closed-loop signals on a uniform grid, t ascending."""

    t: np.ndarray
    x: np.ndarray       # (N, n)
    h: np.ndarray       # (N, n) tracking-error coordinates
    u: np.ndarray
    yr: np.ndarray
    margin: np.ndarray  # safety margin yr - x1
    mode: np.ndarray    # int8: -1 none, 0 nominal, 1 override
    complete: bool = True

    @property
    def n(self):
        return self.x.shape[1]

    def to_csv(self) -> str:
        if np.ndim(self.x) != 2 or np.shape(self.x) != np.shape(self.h):
            raise ValueError(f"x and h must both be (N, n), got x {np.shape(self.x)} "
                             f"and h {np.shape(self.h)}")
        n = self.n
        header = ["t"] + [f"x{i}" for i in range(1, n + 1)] \
            + [f"h{i}" for i in range(1, n + 1)] + ["u", "yr", "H", "mode"]
        cols = (self.t, *self.x.T, *self.h.T, self.u, self.yr, self.margin)
        return "".join([",".join(header) + "\n", *native.csv_lines(cols, self.mode, _CSV_ROWS)])


@dataclass
class OvershootReport:
    """Overshoot / residual metrics of one run.

    envelope_violation is the clipped excess of h_1 over the transient
    ceiling (``BoundReport.envelope``), NaN where the report has no envelope
    weights: in ``run_scenario``, wherever the gains fail ``check_gains``'s
    "descending" mode, that is, unless c_1 > ... > c_n > 1 and
    lam * beta >= 1/xi1 (a descending chain with a smaller lam * beta has
    weights, but reports NaN).  The texts scenario, the run's id, and
    gains_text (``gains_text``) are rendered from run_id and gains when read.
    """

    run_id: object      # the id's text, or the (system, controller, scenario) of a run
    gains: GainConfig
    max_h1: float
    t_at_max: float
    tail_abs_h1: float
    envelope_violation: float
    min_margin: float
    delta_est: float
    max_abs_u: float

    @property
    def scenario(self) -> str:
        """run_id's text, or its run's default id (``_default_id``)."""
        return self.run_id if isinstance(self.run_id, str) else _default_id(*self.run_id)

    @property
    def gains_text(self) -> str:
        return gains_text(self.gains)

    def csv_row(self) -> str:
        return ",".join([self.scenario, self.gains_text, fmt(self.max_h1),
                         fmt(self.t_at_max), fmt(self.tail_abs_h1),
                         fmt(self.envelope_violation), fmt(self.min_margin)])


def gains_text(gains: GainConfig) -> str:
    parts = [f"c{i + 1}={gains.c[i]:g}" for i in range(gains.n)]
    parts += [f"kappa_n={gains.kappa:g}", f"lambda={gains.lam:g}",
              f"beta={gains.beta:g}", f"omega={gains.omega:g}"]
    return ";".join(parts)


_CSV_ROWS = 256     # rows Trajectory.to_csv renders into one string


def _trajectory(record, complete=True) -> Trajectory:
    """The closed loop's record, the (N, 2n + 4) block of ``_step_source``'s
    row t, x, h, u, yr, mode: views of its columns, the mode as int8."""
    n = (record.shape[1] - 4) // 2
    cols = record.T
    # positional: t, x, h, u, yr, margin, mode, complete
    return Trajectory(cols[0], record[:, 1:n + 1], record[:, n + 1:2 * n + 1], cols[2 * n + 1],
                      cols[2 * n + 2], cols[2 * n + 2] - cols[1], cols[-1].astype(np.int8),
                      complete)


def run_scenario(sys: SystemModel, controller: str, gains: GainConfig,
                 scenario: Scenario, *, lyap_spec: Optional[control.LyapunovSpec] = None,
                 psi_scale: float = DEFAULT_PSI_SCALE, theta0: float = 0.0,
                 delta_est: float = DEFAULT_DELTA_EST,
                 nominal_reference="constant:0"):
    """Integrate one closed loop and report overshoot metrics.

    The seeking controllers need a LyapunovSpec; for the demo plant one
    is derived from the certificate drift bound scaled by ``psi_scale``
    (the unscaled certificate produces a dither far too violent for the
    averaging regime at moderate frequencies; see README).  The safety
    filter freezes its nominal/override decision at the start of each
    step so the switching signal is piecewise constant on the grid.

    The run is the loop generated for this plant and controller
    (``_step_source``), run by ``_drive``, in C where it is built
    (``native.run``).

    Raises BlowupError, with the samples recorded so far attached as
    ``partial_trajectory``, on divergence (``_drive``): the state leaving
    the finite range (|x_i| > 1e9 or NaN, theta included), "arithmetic
    divergence: <cause>", or "non-finite reference value".  Any other
    exception propagates unchanged.
    """
    if controller not in CONTROLLERS:
        raise KeyError(f"unknown controller id {controller!r}; known: {CONTROLLERS}")
    if len(scenario.x0) != sys.n:
        raise ValueError(f"x0 must have dimension {sys.n}")
    check_gain_count(sys, gains)
    needs_dither = controller in DITHERED
    if needs_dither and not scenario.dither_resolved(gains.omega):
        raise ValueError(
            f"dt = {scenario.dt:g} does not resolve the dither at omega = "
            f"{gains.omega:g} (need dt <= {max_dither_dt(gains.omega):g})")
    if needs_dither and lyap_spec is None:
        lyap_spec = control.example_lyapunov_spec(sys, gains, scale=psi_scale)
    ref = get_reference(scenario.reference)
    # only the filter reads a nominal reference
    nominal_ref = get_reference(nominal_reference) if controller == "safety-filter" else None
    if not 0 <= delta_est < math.inf:     # a negative allowance would shrink the envelope
        raise ValueError(f"delta_est must be nonnegative and finite, got {delta_est!r}")
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0!r}")

    n, dt = sys.n, scenario.dt
    ref_kind, ref_b = stack_binding(ref, n)
    nom_kind, nom_b = (None, None) if nominal_ref is None else stack_binding(nominal_ref, n)
    # of the Lyapunov shape only the number of its coefficients is compiled in
    ncoef = len(lyap_spec._value_coeffs) if needs_dither else None
    def emit(lang):
        return _step_source(sys, controller, ncoef, ref_kind, nom_kind, lang)
    start = tuple(scenario.x0) + ((theta0,) if controller == "nussbaum" else ())
    try:
        traj = _trajectory(_drive(sys, (controller, ncoef, ref_kind, nom_kind), emit,
                                  (sys, gains, lyap_spec, ref_b, nom_b, dt), start,
                                  scenario.nsteps, dt, ref, nominal_ref))
    except BlowupError as exc:
        exc.partial_trajectory = _trajectory(exc.record, complete=False)
        raise

    report = overshoot_report(traj, gains, descending_bounds(sys, gains), delta_est,
                              scenario_id=(sys, controller, scenario))
    return traj, report


def _drive(sys: SystemModel, key, emit, args, start, nsteps: int, dt: float, ref, nom):
    """One run of the loop of emit's description (``_factory``, cached on
    sys under key) from the state start, on args and the record's size,
    which its make binds: the steps and the last sample that C can take
    there (``native.run``), then from the step where C stopped, advance
    (``Python.source``) to nsteps, then the last sample.  Returns the
    record, the float64 block that make allocates.  The one divergence
    diagnosis of the generated loops: besides the loop's range check, an
    ``OverflowError`` or math-domain ``ValueError`` (``model.is_divergence``)
    in step k is BlowupError "arithmetic divergence: <cause>" at k * dt, and
    once a step has failed, a non-finite stack that it read
    (``_reference_fault``, on the stacks of the tracked reference ref and the
    safety filter's nominal reference nom, None for the other loops, bound
    then) is the cause instead.  A BlowupError carries the rows of the block
    recorded before it, copied out, as ``record``; other exceptions
    propagate."""
    loop = _factory(sys, key, emit)
    advance, consts, record = loop.make(*args, nsteps + 1)
    pos = native.run(loop, emit, start, nsteps, consts, record)
    try:
        try:
            if pos[0] <= nsteps:
                advance(pos, nsteps)
                advance(pos, nsteps + 1, True)      # the last sample only
        except (OverflowError, ValueError) as exc:
            if not is_divergence(exc):
                raise
            k, state, _ = pos
            raise BlowupError(f"arithmetic divergence: {exc}", t=k * dt,
                              state=np.array(state[:sys.n])) from None
    except BlowupError as exc:
        k, state, rows = pos
        ref_d = bound_stack(ref, sys.n)
        nom_d = None if nom is None else bound_stack(nom, sys.n)
        node = _reference_fault(ref_d, nom_d, k * dt, state[0], dt, k == nsteps)
        if node is not None:
            exc = BlowupError("non-finite reference value", t=node, state=np.array(state[:sys.n]))
        exc.record = record[:rows].copy()
        raise exc from None
    return record


def _reference_fault(ref_d, nom_d, t: float, x1: float, dt: float, last: bool):
    """Time of the first RK4 node of the step from t (x1 its start's first
    state) whose reference stack, as that step read it, is not finite;
    None if every stack it read is finite.  nom_d is the safety filter's
    nominal stack, None for the other loops.  Only the diagnosis of
    a failed step calls this, so the step itself checks no node.  A
    reference that raises a divergence here leaves the step's own cause
    standing."""
    try:
        ya = ref_d(t)
        if not all(map(math.isfinite, ya)):
            return t
        # the filter's mode, frozen at the step's start, picks the law's stack
        stack = nom_d if nom_d is not None and control.nominal_mode(ya[0], x1) else ref_d
        for node in (t,) if last else (t, t + dt / 2, t + dt):
            if not all(map(math.isfinite, stack(node))):
                return node
    except (OverflowError, ValueError) as exc:
        if not is_divergence(exc):
            raise
    return None


# --- generated closed-loop run loop -----------------------------------------------

_STEP_SCOPE = dict(TAPE_SCOPE, array=np.array, empty=np.empty,
                   BlowupError=BlowupError, GAIN_FLOOR_TOL=GAIN_FLOOR_TOL)


@dataclass(frozen=True)
class _Loop:
    """A generated run loop of one plant: make, compiled from its Python
    source text, which keys the loop's C build (``native.run``), and label,
    which names it."""

    make: object
    text: str
    label: str


def _factory(sys: SystemModel, key, emit) -> _Loop:
    """The loop compiled from its Python source ``emit(Python)``, cached on
    the plant under key."""
    loop = sys._steps.get(key)
    if loop is None:
        text, label = emit(Python), f"{key[0]} loop of {sys.name}"
        scope = dict(_STEP_SCOPE)
        exec(compile(text, f"<{label}>", "exec"), scope)
        loop = sys._steps[key] = _Loop(scope["make"], text, label)
    return loop


def _seq(names) -> str:
    """"a, b, " for the names a, b: a tuple's items or an unpacking target."""
    return "".join(f"{v}, " for v in names)


def _rk4(m: int, first: list, call: str, fetch, lang) -> list:
    """Lines of one RK4 step of the m floats s0.. from time t, in the float
    operations of ``rk4_step``; they leave the new state in n0...
    ``first`` are the lines of node 1, which set the rates k1_0..;
    call.format(T=, S=, Y=) is the call (``lang.call``) of the rates at a
    later node, at time T, state items S and arguments Y; fetch(T, P)
    gives the lines that set what the nodes at T read besides the state,
    named with the prefix P, and the text of those arguments Y.  The
    fetches run once k1 is known, once per node time, which is written
    only where a fetch or the call reads it."""
    (fm, Ym), (fe, Ye) = fetch("tm", "ym"), fetch("te", "ye")
    lines = [*first, *[lang.let("tm", "t + half"), *fm] * bool(fm or "{T}" in call),
             *[lang.let("te", "t + dt"), *fe] * bool(fe or "{T}" in call)]
    for j, T, Y, frac in ((2, "tm", Ym, "half"), (3, "tm", Ym, "half"),
                          (4, "te", Ye, "dt")):
        S = _seq(f"s{i} + {frac} * k{j - 1}_{i}" for i in range(m))
        lines.append(lang.unpack([f"k{j}_{i}" for i in range(m)], call.format(T=T, S=S, Y=Y)))
    return lines + [lang.let(f"n{i}", f"s{i} + sixth * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})")
                    for i in range(m)]


class Python(synth.Python):
    """The text of a generated loop's constructs in Python, the loop that
    every run can take; ``native.C`` writes the same constructs in C.  An
    emitter (``_step_source``, ``averaging._averaged_source``) builds one
    description of the loop and writes it through one of the two."""

    @staticmethod
    def floor_check(g: str, state: str, first: bool) -> str:
        """The gain-floor test of a node on its gain g, state the node's
        state tuple; node 1 (first) skips it at the last sample."""
        return f"if {g} * {g} < floor{' and not last' * first}: raise violation({g}, {state})"

    @staticmethod
    def record(row) -> list:
        """The lines that write one sample, the W float texts of row, into
        row k of the record through its flat view r_, item i at k * W + i,
        and count k + 1 rows; the last sample ends the run there."""
        return [*(f"r_[k * {len(row)}{f' + {i}' * bool(i)}] = {v}" for i, v in enumerate(row)),
                "rows = k + 1", "if last: return"]

    @staticmethod
    def node(name: str, params, body, outs) -> list:
        """The node function name over params: the lines body, which set
        the texts outs that it returns."""
        return [f"def {name}({_seq(params)}):", *(f"    {v}" for v in body),
                f"    return ({_seq(outs)})"]

    @staticmethod
    def call(name: str, args: str) -> str:
        """A call of the node function name; args is "a, b, "."""
        return f"{name}({args})"

    @staticmethod
    def unpack(targets, call: str) -> str:
        return f"{_seq(targets)}= {call}"

    @staticmethod
    def stack_call(targets, name: str, T: str) -> str:
        """The line that sets targets to the stack name(T), which ``make``
        binds (``model.stack_binding``'s "call")."""
        return f"{_seq(targets)}= {name}({T})"

    @staticmethod
    def branch(cond: str, then, other) -> list:
        return [f"if {cond}:", *(f"    {v}" for v in then),
                "else:", *(f"    {v}" for v in other)]

    @staticmethod
    def source(params: str, setup: list, consts: list, defs: list, m: int, n: int,
               step: list, cause: str, row) -> str:
        """``def make(<params>, size)``: the setup lines, the node functions
        defs, the record, then the run loop advance; make returns advance,
        the values of the run constants consts, which the C loop reads, and
        the record, one C-contiguous (size, W) float64 block for the W items
        of row, which both loops write (``record``).  advance(pos, stop,
        last=False) runs the steps pos[0]..stop-1 from the m floats pos[1]:
        each runs the lines step, which set t = k * dt where they read it,
        record the start sample (and return if last) and leave the new
        state in n0.., then checks it by the divergence rule of every
        generated loop: a new item beyond +-_STATE_LIMIT, or NaN, raises
        BlowupError(cause) at (k + 1) * dt with the new state's first n
        items.  Whether advance returns or raises, pos then holds the step
        where it stopped, that step's start state and the rows recorded:
        stop, the state reached and stop rows, or the step k that failed and
        k rows, k + 1 where it failed after its record."""
        S, N = (_seq(f"{p}{i}" for i in range(m)) for p in "sn")
        in_range = " and ".join(f"abs(n{i}) <= {_STATE_LIMIT!r}" for i in range(m))
        loop = [*step, f"if not ({in_range}):",
                f"    raise BlowupError({cause!r}, t=(k + 1) * dt, "
                f"state=array(({_seq(f'n{i}' for i in range(n))})))", f"{S}= {N}"]
        return "\n".join([f"def make({params}, size):",
                          *(f"    {line}" for line in setup + defs),
                          "    half = dt / 2", "    sixth = dt / 6",
                          f"    record = empty((size, {len(row)}))",
                          "    r_ = memoryview(record.reshape(-1))",
                          "    def advance(pos, stop, last=False):",
                          f"        k, ({S}), rows = pos", "        try:",
                          "            for k in range(k, stop):",
                          *(f"                {line}" for line in loop),
                          "            k = stop", "        finally:",
                          f"            pos[:] = k, ({S}), rows",
                          f"    return advance, ({_seq(consts)}), record"])


def _stack_fetch(name: str, kind: str, n: int, bound: Bound, setup: list, lang):
    """fetch(T, prefix, order) -> (lines, items): the lines that set the
    stack at time T of the reference whose stack ``make`` binds as name
    (``model.stack_binding``: kind and binding), and its items 0..order,
    named with prefix.  A built-in form is written out to that order
    (``synth.stack_tape``) over its parameters, which setup unpacks here
    and bound holds; any other stack is one call <name>(T), the rest _.
    The items are the Python dialect's, so that the renders that read them
    bind the same lines (which make runs for both loops) whatever lang."""
    if kind == "call":
        def fetch(T, prefix, order):
            Y = [f"{prefix}{i}" for i in range(order + 1)]
            return [lang.stack_call(Y + ['_'] * (n - order), name, T)], Y
        return fetch
    letter = {"ref": "r", "nom": "q"}[name]         # n0.. is the new state
    params = [f"{letter}{i}" for i in range(STACK_FORMS[kind].size(n))]
    setup.append(f"{_seq(params)}= {name}")
    bound.names.update(params)

    def fetch(T, prefix, q):
        segment = [(stack_tape(kind, q), prefix, [T], params)]
        return render(segment, bound, lang)[0][0], render(segment, bound, Python)[0][1]
    return fetch


def _node_stack(fetch, bound: Bound, items):
    """(Y, params, at): how a node function reads fetch's stack
    (``_stack_fetch``), given its items at some time.  Y are its items in
    the function, params the names of those it takes as parameters: the
    items that vary with time; the others, a constant reference's, it
    reads where make binds them.  at(T, prefix) -> (lines, args) gives the
    lines that set the stack at T and the text of those arguments."""
    takes = [v.isidentifier() and v not in bound.names for v in items]
    Y = [f"Y{k}" if take else v for k, (v, take) in enumerate(zip(items, takes))]

    def at(T, prefix):
        lines, Yt = fetch(T, prefix, len(items) - 1)
        return lines, _seq(v for v, take in zip(Yt, takes) if take)
    return Y, [v for v, take in zip(Y, takes) if take], at


def _step_source(sys: SystemModel, controller: str, ncoef, ref_kind: str,
                 nom_kind: Optional[str] = None, lang=Python):
    """Source of the closed-loop run loop of one plant and controller, in
    the dialect lang (``Python``, or ``native.C``).

    make(plant, gains, spec, ref, nom, dt, size) binds one run's inputs,
    so one compiled loop serves every point of a sweep.  ref and nom bind
    the stacks of the tracked and the safety filter's nominal reference
    (``model.stack_binding``), whose kinds ref_kind and nom_kind the loop
    is built for: a built-in form's parameters, which the nodes write the
    stack out from, or "call", a stack to call; size is the number of
    samples.  make returns advance, the run constants and the record, the
    (size, 2n + 4) block of the row t, x, h, u, yr and mode, the mode as
    -1.0, 0.0 or 1.0 (``Python.source``, read by ``_trajectory``);
    advance's steps each record the sample at their start, and
    advance(pos, nsteps + 1, True) only the last sample, with the same
    code.

    Every node evaluates the gain (its tape, traced or one call of the
    gain: ``synth.plant_tapes``) and checks the gain floor on it (not at
    the last sample, which is no node of a step taken), then writes out
    the tapes of the error coordinates (of a call's, the items the kernel
    reads: ``synth.items_read``), of the law's kernel
    (``control.seeking_input`` over h, ``known_gain_input`` or
    ``comparator_input`` over z, traced here over the coordinates, g, the
    time t and the gains) and of the drifts, then the plant rate, as one
    basic block (``synth.render``): each distinct float operation once,
    those over the run constants alone once per run, in make
    (``synth.Bound``).  The reference stack is computed once per node time
    (the midpoint's serves nodes 2 and 3), to the highest order that the
    tapes reading it need (``synth.stack_order``).  The floor test,
    g * g < xi1 - GAIN_FLOOR_TOL, is written out at every node, the only
    copy of that rule (a call per node made a demo step about a tenth
    slower); ``SystemModel.floor_violation`` builds its error.  Node 1,
    which also records the sample, is written into the loop; nodes 2 to 4
    call the law's straight-line node function node_<law>, which takes the
    time only where its kernel's tape reads t, so the loop compiles two
    copies of the tapes, not four (compiling four copies of the coupled
    tape at n = 4 peaks at about 2 MB).  After the tracked stack at t, the
    safety filter's step is the nominal law's own on the nominal stack
    where ``control.nominal_mode``, traced over y and s0, holds (mode 0),
    else the seeking law's own on the tracked one (mode 1), node 1 and its
    gain check included.
    """
    n = sys.n
    m = n + (controller == "nussbaum")
    tapes = sys._tapes
    S, P = [f"s{i}" for i in range(m)], [f"p{i}" for i in range(m)]
    vc = [f"vc{k}" for k in range(ncoef or 0)]     # V's coefficients, dithered laws only
    dithered = controller in DITHERED
    bound = Bound([f"c{i}" for i in range(n)] + (["om", "lam", "beta", "sq", *vc] * dithered))
    setup = ["gain, violation = plant.gain, plant.floor_violation",
             "floor = plant.xi1 - GAIN_FLOOR_TOL", f"{_seq(f'c{i}' for i in range(n))}= gains.c"]
    if dithered:
        setup += ["om, lam, beta = gains.omega, gains.lam, gains.beta", "sq = sqrt(om)",
                  f"{_seq(vc)}= spec._value_coeffs"]
    defs = []       # the node functions
    recorded = []   # the record's row of each node 1 (the filter's two have one layout)
    ref = _stack_fetch("ref", ref_kind, n, bound, setup, lang)
    gain = tapes["gain"]
    law_of = {"es": (control.seeking_input, "h"), "nominal": (control.known_gain_input, "z"),
              "nussbaum": (control.comparator_input, "z")}
    order = {law: stack_order(tapes[c], tapes["drift"]) for law, (_, c) in law_of.items()}

    def node(law, S, Y, k, pre=(), mode=None):
        """(lines, the law's tape): the lines of one node of law whose stack
        items are Y, setting the plant's rates <k>0.. (the comparator's
        theta is the last state): the gain and its floor check, the lines
        pre, the law and the rates, the gain rendered with the node's other
        tapes.  Node 1 (given the mode it records) also records the sample,
        with h over the tracked stack ya, which es reads."""
        fn, c = law_of[law]
        args = {"es": ("t", "om", "sq", "beta", "lam", vc), "nominal": (f"c{n - 1}", gain),
                "nussbaum": (f"c{n - 1}", S[-1])}[law]
        kernel = trace(fn, [tapes[c]], *args)      # node 1 records h, which es reads whole
        coords = [*[(tapes["h"], "e", S, ya)] * (mode is not None and c == "z"),
                  (items_read(tapes[c], kernel), "e" if c == "h" else "z", S, Y)]
        (g_lines, [g]), *parts, (law_lines, uv), (d_lines, dv) = render(
            [(gain, "g", S, ()), *coords, (kernel, "u" + c, [coords[-1][0], gain], ""),
             (tapes["drift"], "f", S, Y)], bound, lang)
        lines = [*g_lines, lang.floor_check(g, f"({_seq(S[:n])})", mode is not None), *pre,
                 *(v for seg_lines, _ in parts for v in seg_lines), *law_lines]
        lines += [lang.let(v, o) for v, o in zip(("u", f"{k}{n}"), uv)]
        if mode is not None:
            recorded.append(["t", *S[:n], *parts[0][1], "u", ya[0], repr(float(mode))])
            lines += lang.record(recorded[-1])
        return lines + d_lines + [*(lang.let(f"{k}{i}", f"{S[i + 1]} + {dv[i]}")
                                    for i in range(n - 1)),
                                  lang.let(f"{k}{n - 1}", f"{g} * u + {dv[n - 1]}")], kernel

    def step(law, fetch, Y, pre, mode):
        """The lines of law's step on the stacks that fetch sets
        (``_stack_fetch``), from node 1 on: node 1 over the stack items Y
        (the lines pre after its floor check), then nodes 2 to 4, which
        call law's node function, added to defs here, on the stacks at
        their times (and the times, where its kernel reads t)."""
        Yn, params, at = _node_stack(fetch, bound, Y)
        body, kernel = node(law, P, Yn, "k_")
        T = ["t"] * any("t" in entry[2] for entry in kernel.entries)
        defs.extend(lang.node(f"node_{law}", P + T + params, body, [f"k_{i}" for i in range(m)]))
        return _rk4(m, node(law, S, Y, "k1_", pre, mode)[0],
                    lang.call(f"node_{law}", f"{{S}}{_seq(['{T}'] * len(T))}{{Y}}"), at, lang)

    filtered = controller == "safety-filter"
    ya_lines, ya = ref("t", "ya", order["es" if filtered else controller])
    lines = [lang.let("t", "k * dt")]
    if filtered:
        nom = _stack_fetch("nom", nom_kind, n, bound, setup, lang)
        yl_lines, yl = nom("t", "yl", order["nominal"])
        [(mode_lines, [nominal])] = render(
            [(trace(control.nominal_mode, ya[0], "s0"), "m", (), ())], bound, lang)
        lines += [*ya_lines, *mode_lines,
                  *lang.branch(nominal, step("nominal", nom, yl, yl_lines, 0),
                               step("es", ref, ya, [], 1))]
    else:
        lines += step(controller, ref, ya, ya_lines, -1)
    return lang.source("plant, gains, spec, ref, nom, dt", setup + bound.lines,
                       ["dt", "floor", *sorted(bound.names), "half", "sixth"], defs, m, n, lines,
                       "state left the finite range", recorded[0])


def _default_id(sys, controller, scenario):
    x0 = "|".join(f"{v:g}" for v in scenario.x0)  # comma-free for CSV cells
    return scenario.label or f"{sys.name}/{controller}/x0={x0}"


def overshoot_report(traj: Trajectory, gains: GainConfig, bounds, delta_est: float,
                     scenario_id="run") -> OvershootReport:
    """Metrics from samples on an ascending grid, as a run records them;
    the transient ceiling is anchored at the trajectory's own initial error
    coordinates.  scenario_id is the run's id, or the (system, controller,
    scenario) of a run, whose default id the report renders when read.

    The ceiling is floor = overshoot_core + delta_est plus terms
    w_i |h_i(0)| e^{-c_i t}, each >= 0 or NaN, so it is >= floor or NaN at
    every sample, in floating point too: a sample with h_1 <= floor cannot
    raise the violation max(0, max(h_1 - ceiling)), which is 0 where any
    h_1 - ceiling is NaN.  The ceiling is evaluated only where h_1 is not
    <= floor, if the terms are finite everywhere (finite w_i |h_i(0)| and
    floor, t from 0 up) and so NaN nowhere; else at every sample.  The
    reductions are ndarray methods, the same as the ``np.*`` functions (NaN
    included) without their dispatch, which cost more than the reductions
    of a short run; each reads a column of the record once."""
    t, h1 = traj.t, traj.h[:, 0]
    imax = h1.argmax()              # the first NaN, if any
    peak = h1.item(imax)
    viol = math.nan
    if bounds is not None and bounds.envelope_weights is not None:
        viol, floor = 0.0, bounds.overshoot_core + delta_est
        if not peak <= floor:
            h0 = traj.h[0].tolist()
            finite = math.isfinite(floor) and t.item(0) >= 0 and all(
                math.isfinite(w * abs(v)) for w, v in zip(bounds.envelope_weights, h0))
            at = (~(h1 <= floor)).nonzero()[0] if finite else slice(None)
            env = bounds.envelope(h0, gains.c, t[at], delta_est)
            viol = max(0.0, float((h1[at] - env).max()))
    tail = h1[t.searchsorted(0.8 * t.item(-1)):]
    # positional: the fields in order, run_id to max_abs_u
    return OvershootReport(scenario_id, gains, peak, t.item(imax), float(abs(tail).max()), viol,
                           float(traj.margin.min()), delta_est, float(abs(traj.u).max()))


_GAIN_KEYS = {"kappa_n": "kappa", "lambda": "lam", "beta": "beta", "omega": "omega"}


@dataclass
class SweepResult:
    rows: tuple  # (OvershootReport | None, verdict text, overrides dict)

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS + ("verdict",))]
        for report, verdict, overrides in self.rows:
            if report is None:
                lines.append(",".join([grid_label(overrides), "", "nan", "nan",
                                       "nan", "nan", "nan", verdict]))
            else:
                lines.append(report.csv_row() + "," + verdict)
        return "\n".join(lines) + "\n"


def sweep(sys: SystemModel, controller: str, gains: GainConfig,
          scenario: Scenario, grid: dict, mode: str = "descending",
          **options) -> SweepResult:
    """Run the scenario over a parameter grid.

    Grid keys: c1..cn, kappa_n, lambda, beta, omega, x0.  A dithered
    controller (``DITHERED``) runs each point at the scenario's dt refined
    to resolve the point's dither (``refine_dt``); the others run at the
    scenario's dt.  Points that fail the gain check for ``mode`` are
    recorded with their verdict and not simulated; a point whose run
    diverges is recorded with the verdict "diverged at t=...: <cause>"
    and the grid goes on.  Rows follow
    itertools.product order over the grid in key order, so output is
    order-stable.  mode is "uniform" or "descending": floors mode
    would need each point's x0.
    """
    if mode not in ("uniform", "descending"):
        raise ValueError(f"sweep mode must be 'uniform' or 'descending', got {mode!r}")
    keys = list(grid.keys())
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        g, sc = grid_point(gains, scenario, overrides)
        verdict = check_gains(sys, g, mode)
        if not verdict.ok:
            text = "invalid: " + " & ".join(verdict.failures)
            rows.append((None, text.replace(",", ";"), overrides))
            continue
        if controller in DITHERED:
            sc = replace(sc, dt=refine_dt(sc.dt, g.omega))
        sc = replace(sc, label=f"{_default_id(sys, controller, sc)}/{grid_label(overrides)}")
        try:
            _, report = run_scenario(sys, controller, g, sc, **options)
        except BlowupError as exc:
            text = f"diverged at t={exc.t:.6g}: {exc}"
            rows.append((None, text.replace(",", ";"), overrides))
            continue
        rows.append((report, "valid", overrides))
    return SweepResult(rows=tuple(rows))


def grid_point(gains: GainConfig, scenario: Scenario, overrides: dict):
    """(gains, scenario) with the overrides of one grid point applied; see
    ``sweep`` for the keys.  KeyError for an unknown key."""
    g, sc = gains, scenario
    c = list(g.c)
    for key, val in overrides.items():
        if key == "x0":
            sc = replace(sc, x0=tuple(val))
        elif key in _GAIN_KEYS:
            g = replace(g, **{_GAIN_KEYS[key]: float(val)})
        elif key.startswith("c") and key[1:].isdigit() and 1 <= int(key[1:]) <= len(c):
            c[int(key[1:]) - 1] = float(val)
        else:
            raise KeyError(f"unknown sweep parameter {key!r}; known: c1..c{len(c)}, "
                           + ", ".join(_GAIN_KEYS) + ", x0")
    return replace(g, c=tuple(c)), sc


def grid_label(overrides: dict) -> str:
    parts = []
    for k, v in overrides.items():
        if isinstance(v, (tuple, list)):
            parts.append(f"{k}=" + "|".join(f"{vi:g}" for vi in v))
        else:
            parts.append(f"{k}={v:g}")
    return ";".join(parts)
