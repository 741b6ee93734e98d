"""Backstepping synthesis: error coordinates, stabilizing functions with
exact partial derivatives, the residual-drift bound, and gain selection
rules.

Two recursion flavours share one implementation:

* the overshoot-free flavour omits the textbook ``-z_{i-1}`` coupling
  term, which makes every error equation a pure cascade
  ``dh_i/dt = -c_i h_i + h_{i+1}``;
* the textbook flavour keeps the coupling and is used by the known-gain
  nominal law and the oscillatory-gain comparator.

Everything on the simulation path runs the recursion once on truncated
Taylor series in time (``dualnum.Jet``): the rate of a stabilizing
function along the open loop is its total time derivative along the
drift flow dx_k/dt = x_{k+1} + drift_k with dy^(k)/dt = y^(k+1), so one
order-by-order pass yields every error coordinate and the rate of the
last stabilizing function exactly, at a cost polynomial in n.  Values
that only need order 0 stay plain floats.  ``error_values`` and
``coords_and_drift`` are that pass.  ``virtual_controllers`` keeps the
nested-dual recursion, which exposes every partial derivative
separately and serves as the oracle for the Taylor pass.  Neither path
uses finite differences.

For a fixed plant the pass runs the same float operations in the same
order at every input, and so does each control law's kernel.  So
``trace`` runs them on recording scalars (``dualnum.Rec``) and keeps
each trace as straight-line operations (``Tape``): ``plant_tapes`` the
pass, the inverse map, the drifts and the gain (``PLANT_PASSES``) when a
``SystemModel`` is built, ``stack_tape`` a built-in reference's stack
once per order, the run loops each law when they are built.
The loops write the tapes into their RK4 nodes through one renderer,
``render``, which value-numbers all the tapes that one node writes out,
so a node does each distinct float operation once and a run gets the
library's results bit for bit without running it.  Where a drift
cannot be traced, the tape is one call of its pass from that table,
then its result's items (an untraceable gain's, one call of the plant's
gain), entries that the renderer never merges, so the loops have one
path for every tape.

Drifts are evaluated on jets as well as on floats, which limits what
they may be built from (``model.SystemModel``).
"""

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dualnum
from .model import STACK_FORMS, SystemModel, singular_gain


@dataclass(frozen=True)
class GainConfig:
    """Controller gains: per-stage rates c, Lyapunov weight kappa, dither
    amplitudes lam/beta, dither frequency omega (rad/s)."""

    c: tuple
    kappa: float
    lam: float
    beta: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        for i, ci in enumerate(self.c, start=1):
            _positive(f"c{i}", ci)
        for name in ("kappa", "lam", "beta", "omega"):
            _positive(name, getattr(self, name))

    @property
    def n(self):
        return len(self.c)

    @property
    def c_min(self):
        return min(self.c)


def _positive(name: str, v) -> None:
    """ValueError naming the value unless 0 < v < inf (NaN included)."""
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v!r}")


def horner(coeffs, x: float) -> float:
    """sum_k coeffs[k] x^k by Horner's rule, starting from 0.0.  It runs on
    recording scalars too: the laws that call it are traced with it."""
    acc = 0.0
    for coef in reversed(coeffs):
        acc = acc * x + coef
    return acc


def check_gain_count(sys: SystemModel, gains: GainConfig) -> None:
    """ValueError unless there is one rate gain per state."""
    if gains.n != sys.n:
        raise ValueError(f"{gains.n} rate gains c1..c{gains.n} given; "
                         f"system {sys.name!r} has {sys.n} states")


class InitSignError(ValueError):
    """Initial output error has the wrong sign (or is zero) for the
    floor-based gain selection; use descending-gain mode instead."""


def demo_gains(omega: float = 60.0) -> GainConfig:
    """The demo gain set: c = (2, 1.5), kappa = 1.1, lam = 4, beta = 0.8."""
    return GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=omega)


# --- Taylor-mode pass (simulation path) ----------------------------------------

Jet = dualnum.Jet


def _floats(v):
    """A state or reference stack as a tuple; arrays become Python floats.
    A tuple passes through unchanged, so the tracer's tuples of recording
    scalars run the same code as floats."""
    if type(v) is tuple:
        return v
    return tuple(v.tolist()) if isinstance(v, np.ndarray) else tuple(v)


def _taylor_pass(sys: SystemModel, c, xs, ys, couple: bool, s: int, p: int):
    """Stabilizing functions a_1..a_s along the drift flow, a_s to order p.

    a_i is needed to order q_i = p + s - i, and so is h_i (state series
    X_i minus a_{i-1} minus the reference series Y_{i-1}, where
    Y_j[m] = y^(j+m)/m!).  Each state series is filled order by order,
    X_k[m+1] = (X_{k+1}[m] + F_k[m]) / (m+1) with F_k the drift on the
    jets, and then

        a_i = -c_i h_i - F_i + D(a_{i-1})  [- h_{i-1} if couple],

    D being the series time derivative.  A series of order 0 is a plain
    float.  Reads x_1..x_{s+p} from the tuple xs.  Returns three lists:
    the values of h_1..h_s, their series, and the series of a_1..a_s.
    """
    drift = sys.drift
    top = p + s - 1                      # order of X_1
    if top > 0:
        X = [[v] for v in xs[:s + p]]
        for m in range(top):
            kmax = top - m               # X_1..X_kmax gain order m+1
            args = xs if m == 0 else tuple(Jet(X[j][:m + 1]) for j in range(kmax))
            for k in range(kmax):
                f = drift[k](args[:k + 1])
                if m == 0:
                    X[k].append(X[k + 1][0] + f)
                else:
                    fm = f.c[m] if isinstance(f, Jet) else 0.0   # constant drift
                    X[k].append((X[k + 1][m] + fm) / (m + 1))
    values, hs, alphas = [], [], []
    h = a = None
    for i in range(top):                 # stage i+1 as a series of order q >= 1
        q = top - i
        f = drift[i](tuple(Jet(X[j][:q + 1]) for j in range(i + 1)))
        fc = f.c if isinstance(f, Jet) else [f] + [0.0] * q
        xc, orders = X[i], range(q + 1)
        if i == 0:
            hc = [xc[m] - ys[m] / math.factorial(m) for m in orders]
        else:
            ac = a.c
            hc = [xc[m] - ac[m] - ys[i + m] / math.factorial(m) for m in orders]
        oc = [-c[i] * hc[m] - fc[m] for m in orders]
        if i > 0:
            oc = [oc[m] + (m + 1) * ac[m + 1] for m in orders]
            if couple:
                oc = [oc[m] - h.c[m] for m in orders]
        h, a = Jet(hc), Jet(oc)
        values.append(hc[0])
        hs.append(h)
        alphas.append(a)
    if p == 0:                           # stage s to order 0, in plain floats
        i = s - 1
        hi = xs[0] - ys[0] if i == 0 else xs[i] - a.c[0] - ys[i]
        out = -c[i] * hi - drift[i](xs[:s])
        if i > 0:
            out = out + a.c[1]
            if couple:
                out = out - h.c[0]
        values.append(hi)
        hs.append(hi)
        alphas.append(out)
    return values, hs, alphas


def error_values(sys: SystemModel, c, x, yr_stack, couple: bool = False) -> list:
    """Error coordinates as a list of floats (uncoupled: h, coupled: z);
    c are the rate gains."""
    xs, ys = _floats(x), _floats(yr_stack)
    n = sys.n
    if n == 1:
        return [xs[0] - ys[0]]
    values, _, alphas = _taylor_pass(sys, c, xs, ys, couple, n - 1, 0)
    values.append(xs[n - 1] - alphas[-1] - ys[n - 1])
    return values


def coords_and_drift(sys: SystemModel, c, x, yr_stack, couple: bool = False):
    """Error coordinates and the residual drift of the last one, from one
    Taylor pass: (list of floats, dh_n/dt - gain * u)."""
    xs, ys = _floats(x), _floats(yr_stack)
    n = sys.n
    base = sys.drift[n - 1](xs) - ys[n]
    if n == 1:
        return [xs[0] - ys[0]], base
    values, _, alphas = _taylor_pass(sys, c, xs, ys, couple, n - 1, 1)
    a = alphas[-1].c
    values.append(xs[n - 1] - a[0] - ys[n - 1])
    return values, base - a[1]


# --- tapes: the pass traced as straight-line source --------------------------------

_COMMUTATIVE = {"{} + {}", "{} * {}"}      # IEEE + and * commute exactly
_MAX_NESTING = 24       # parentheses a rendered expression may nest (the parser stops at 200)


@dataclass(frozen=True)
class Tape:
    """One traced pass or law (or one call, ``_call_tape``) after dead-code
    elimination.  ``entries`` are ``(name, form, operands, may_raise)`` in
    the order they ran (``dualnum.Rec``): ``name = form.format(*operands)``
    is one float operation over the inputs (x0.., the reference stack
    y0.., the rate gains c0.., or the names a law was traced over), earlier
    vK and constants; may_raise marks one that can raise on some input, and
    a form ``if ...`` is a guard (``dualnum.guard``).  ``outs`` is the
    source of each result.  ``calls`` marks a call tape, whose entries call
    user code: ``render`` never merges them."""

    entries: tuple
    outs: tuple
    calls: bool = False


class Bound:
    """The run constants of one generated loop: the names its ``make``
    binds once per run (rate gains, Lyapunov coefficients, a reference's
    parameters), and the operations over them and constants alone that
    ``render`` takes out of the nodes, each written once as a line b<K>
    of ``lines``, which ``make`` runs after binding the names."""

    def __init__(self, names):
        self.names = set(names)
        self.lines = []
        self._of = {}           # an operation's key -> its name

    def name(self, key: str, expr: str) -> str:
        name = self._of.get(key)
        if name is None:
            name = self._of[key] = f"b{len(self.lines)}"
            self.lines.append(f"{name} = {expr}")
            self.names.add(name)
        return name


def _constant(text: str):
    """The value of an operand written as a constant (``1``, ``(-0.5)``),
    None for a name."""
    return None if text.isidentifier() else float(text.strip("()"))


def _identity(form: str, ops):
    """The operand that form over ops equals for every value, or None:
    x * 1, 1 * x, x / 1 and x - 0.0 (x - (+0.0) is x, signed zeros
    included).  Not x + 0.0 or 0.0 + x, which map -0.0 to +0.0."""
    if form == "{} * {}":
        a, b = ops
        return a if _constant(b) == 1 else b if _constant(a) == 1 else None
    if form == "{} / {}" and _constant(ops[1]) == 1:
        return ops[0]
    if form == "{} - {}" and _constant(ops[1]) == 0 and math.copysign(1, _constant(ops[1])) > 0:
        return ops[0]
    return None


class Python:
    """How ``render`` writes an entry: in Python, each form and operand as
    the tape has it.  The generated loops' dialects extend this one
    (``sim.Python``, ``native.C``)."""

    @staticmethod
    def form(form: str) -> str:
        return form

    @staticmethod
    def operand(text: str) -> str:
        return text

    @staticmethod
    def let(v: str, expr: str) -> str:
        return f"{v} = {expr}"


def render(segments, bound: Optional[Bound] = None, lang=Python) -> list:
    """The source of the tapes that one generated node writes out, each
    distinct float operation once (local value numbering over one basic
    block), in the dialect lang: each entry is lang.form(its form) over
    its operands, constants written by lang.operand, and each result
    given a name by lang.let; a form that starts with ``if `` is a
    statement.  Which operations are written where does not depend on
    lang.

    A segment is (tape, prefix, xs, ys): the tape with x_i written as
    xs[i], y_i as ys[i] (or ys + i where ys is a text) and vK as
    prefix + K; other operands (c_i, a law's input names, constants)
    stand as they are.  In xs and ys, the tape of an earlier segment (the
    latest of that tape), given as is or as an item of the list, stands
    for its outs, as in ``trace``.  Returns one [lines, outs] per segment.

    Each entry is its form over its renamed operands.  One that equals an
    operand for every value (``_identity``: x * 1, x / 1, x - 0.0) is that
    operand.  An operation whose text, operands written by their first
    names, was computed before is not written again: it reads the first
    result, which stays where it was.  So nothing runs earlier, and a
    repeat that could raise would have raised at the first.  The operands
    of + and * are keyed in sorted order, since IEEE addition and
    multiplication commute exactly (only a NaN's payload may differ, which
    nothing reads).  With bound, an operation over bound's names and
    constants alone that cannot raise is written once per run instead,
    into bound's lines.  A call tape's entries are never merged.  Then an
    operation that cannot raise and whose result is read once is written
    into its reader's form, in parentheses, instead of a temporary, at
    most _MAX_NESTING deep.  Python evaluates every operation as written
    (no reassociation, no fused operations), so the results are the
    traced pass's bit for bit.
    """
    outs_of, seen, rendered = {}, {}, []
    for tape, prefix, xs, ys in segments:
        xs, ys = (outs_of[id(v)] if isinstance(v, Tape) else v if isinstance(v, str)
                  else [o for item in v for o in (outs_of[id(item)] if isinstance(item, Tape)
                                                  else [item])] for v in (xs, ys))
        names = {f"x{i}": v for i, v in enumerate(xs)}      # and vK, once written
        if not isinstance(ys, str):
            names.update((f"y{i}", v) for i, v in enumerate(ys))

        def source(v):
            return names.get(v) or (ys + v[1:] if v[0] == "y" and v[1:].isdigit() else v)

        entries = []
        for v, form, operands, may_raise in tape.entries:
            ops = [source(o) for o in operands]
            same = None if tape.calls else _identity(form, ops)
            if same is not None:
                names[v] = same
                continue
            key = form.format(*sorted(ops) if form in _COMMUTATIVE else ops)
            if key in seen and not tape.calls:
                names[v] = seen[key]
                continue
            if bound is not None and not may_raise and not tape.calls and all(
                    o in bound.names or _constant(o) is not None for o in ops):
                names[v] = seen[key] = bound.name(key, form.format(*ops))
                continue
            names[v] = seen[key] = prefix + v[1:]
            entries.append((names[v], form, ops, may_raise))
        outs_of[id(tape)] = outs = [source(o) for o in tape.outs]
        rendered.append([entries, outs])
    uses = Counter(d for entries, _ in rendered for e in entries for d in e[2])
    named = {o for _, outs in rendered for o in outs}
    nested, depth = {}, {}
    for segment in rendered:
        lines = []
        for v, form, ops, may_raise in segment[0]:
            expr = lang.form(form).format(*(f"({nested[o]})" if o in nested
                                            else lang.operand(o) for o in ops))
            d = 1 + max(depth.get(o, 0) for o in ops)
            if may_raise or uses[v] != 1 or v in named or d > _MAX_NESTING:
                lines.append(expr if form.startswith("if ") else lang.let(v, expr))
            else:
                nested[v], depth[v] = expr, d
        segment[:] = lines, [lang.operand(o) for o in segment[1]]
    return rendered


def plant_tapes(sys: SystemModel) -> dict:
    """The tapes the generated run loops write out, by name: the trace of
    ``PLANT_PASSES[name]``, or where the plant's drifts cannot be traced,
    the tape of one call of it (``_call_tape``).

    ``SystemModel`` traces them when it is built, so that no run calls
    the drifts on recording scalars.  Whatever the drifts cannot take on
    a Rec (``math.sin``, a comparison, numpy arrays, ...) ends a trace,
    and the call raises that error where it matters.
    """
    n = sys.n
    c, xs, ys = ([f"{p}{i}" for i in range(k)] for p, k in (("c", n), ("x", n), ("y", n + 1)))
    tapes = {}
    for name, fn in PLANT_PASSES.items():
        try:
            tapes[name] = trace(functools.partial(fn, sys), c, xs, ys)
        except Exception:
            tapes[name] = _call_tape(name, c, xs, ys)
    return tapes


def _call_tape(name: str, c, xs, ys) -> Tape:
    """The tape of one call of ``PLANT_PASSES[name]`` over the input names
    c, xs, ys, then of one entry per item of its result; the loops that
    write it out bind ``plant``.  The gain's is one call gain((x0, .., )) of
    the plant's gain, which those loops bind as ``gain``."""
    tup = ["(" + "{}, " * len(v) + ")" for v in (c, xs, ys)]
    if name == "gain":
        return Tape(entries=(("v0", f"gain({tup[1]})", tuple(xs), True),), outs=("v0",),
                    calls=True)
    items = {"z": len(xs) + 1, "residual": 1}.get(name, len(xs))
    entries = (("v0", f"passes[{name!r}](plant, {', '.join(tup)})", (*c, *xs, *ys), True),) \
        + tuple((f"v{i + 1}", f"{{}}[{i}]", ("v0",), False) for i in range(items))
    return Tape(entries=entries, outs=tuple(e[0] for e in entries[1:]), calls=True)


def trace(fn, *args) -> Tape:
    """The tape of fn(*args) on recording scalars.  A text argument is one
    scalar of that name; a list argument is a tuple of such scalars and of
    a tape's outs, named x0, x1, .. in the order of the arguments, and a
    tape argument its one out, named the same way (a segment whose xs
    lists those tapes renders them).  fn returns a result, or a list or
    tuple of results and lists of them.  The tape keeps the entries of fn's float operations as
    ``dualnum.Rec`` records them, less those whose result no result reads,
    but every one that can raise, so code built from it raises where fn
    does."""
    tape, count = [], itertools.count()

    def recs(item):
        if isinstance(item, Tape):
            return [dualnum.Rec(tape, f"x{next(count)}") for _ in item.outs]
        return [dualnum.Rec(tape, item)]

    out = fn(*(tuple(v for item in arg for v in recs(item)) if isinstance(arg, list)
               else recs(arg)[0] if isinstance(arg, Tape) else dualnum.Rec(tape, arg)
               for arg in args))
    results = [v for r in (out if isinstance(out, (list, tuple)) else [out])
               for v in (r if isinstance(r, list) else [r])]
    outs = tuple(map(_source, results))
    live, kept = {v.name for v in results if isinstance(v, dualnum.Rec)}, []
    for entry in reversed(tape):
        if entry[3] or entry[0] in live:
            live.update(entry[2])
            kept.append(entry)
    return Tape(entries=tuple(reversed(kept)), outs=outs)


def _source(v) -> str:
    """Source text of a traced result: a recorded name or a constant.
    TypeError for anything else (a drift that returns None or an array)."""
    if isinstance(v, dualnum.Rec):
        return v.name
    if not isinstance(v, (int, float)):
        raise TypeError(f"cannot trace a result of type {type(v).__name__}")
    return f"({float(v)!r})"


# --- nested-dual recursion (explicit partials, oracle) ---------------------------

def _alpha(sys: SystemModel, c, i: int, xs, ys, couple: bool):
    """Value of the i-th stabilizing function at (x_1..x_i, y..y^(i-1)).

    Arguments may carry dual layers; everything propagates.
    """
    h1 = xs[0] - ys[0]
    if i == 1:
        return -c[0] * h1 - sys.drift[0](xs[:1])
    a_prev = _alpha(sys, c, i - 1, xs, ys, couple)
    h_i = xs[i - 1] - a_prev - ys[i - 1]
    corr = _alpha_rate(sys, c, i - 1, xs, ys, couple)
    out = -c[i - 1] * h_i - sys.drift[i - 1](xs[:i]) + corr
    if couple:
        h_prev = h1 if i == 2 else xs[i - 2] - _alpha(sys, c, i - 2, xs, ys, couple) - ys[i - 2]
        out = out - h_prev
    return out


def _alpha_partial(sys: SystemModel, c, i: int, xs, ys, couple: bool,
                   wrt: str, k: int):
    """Exact da_i/dx_k or da_i/dy^(k-1) (k is 1-based, k <= i).

    The seeded argument list carries both the states and the reference
    derivatives so nested differentiation never conflates directions.
    """
    combined = tuple(xs[:i]) + tuple(ys[:i])
    slot = (k - 1) if wrt == "x" else (i + k - 1)
    return dualnum.partial(
        lambda a: _alpha(sys, c, i, a[:i], a[i:], couple), combined, slot)


def _alpha_rate(sys: SystemModel, c, i: int, xs, ys, couple: bool):
    """Chain-rule rate of the i-th stabilizing function along the open loop:
    sum_k [ da_i/dx_k (x_{k+1} + drift_k) + da_i/dy^(k-1) y^(k) ]."""
    total = 0.0
    for k in range(1, i + 1):
        d_x = _alpha_partial(sys, c, i, xs, ys, couple, "x", k)
        d_y = _alpha_partial(sys, c, i, xs, ys, couple, "y", k)
        total = total + d_x * (xs[k] + sys.drift[k - 1](xs[:k])) + d_y * ys[k]
    return total


def virtual_controllers(sys: SystemModel, x, yr_stack, gains: GainConfig):
    """Stabilizing functions a_1..a_{n-1} with their exact partials.

    Returns a list of (value, d/dx array, d/dy array) triples; the i-th
    entry has partial arrays of length i (d/dx_k and d/dy^(k-1), k<=i).
    Empty for n = 1.
    """
    xs, ys = tuple(x), tuple(yr_stack)
    if len(ys) < sys.n + 1:
        raise ValueError("reference stack must carry n+1 derivatives")
    out = []
    for i in range(1, sys.n):
        val = _alpha(sys, gains.c, i, xs, ys, couple=False)
        dx = np.array([_alpha_partial(sys, gains.c, i, xs, ys, False, "x", k)
                       for k in range(1, i + 1)])
        dy = np.array([_alpha_partial(sys, gains.c, i, xs, ys, False, "y", k)
                       for k in range(1, i + 1)])
        out.append((val, dx, dy))
    return out


def error_coords(sys: SystemModel, x, yr_stack, gains: GainConfig) -> np.ndarray:
    """Tracking-error coordinates h: h_1 = x_1 - y, and each later state
    measured against its stabilizing function plus reference derivative."""
    return np.array(error_values(sys, gains.c, x, yr_stack))


def _state_values(sys: SystemModel, c, hs, ys):
    """States from error coordinates, solved stage by stage (the map is
    uncoupled)."""
    xs = [hs[0] + ys[0]]
    for i in range(2, sys.n + 1):
        # a_{i-1} to order 0 only reads x_1..x_{i-1}, all reconstructed already
        a_prev = _taylor_pass(sys, c, tuple(xs), ys, False, i - 1, 0)[2][-1]
        xs.append(hs[i - 1] + a_prev + ys[i - 1])
    return xs


def coupled_values(sys: SystemModel, c, x, yr_stack) -> list:
    """z, then the coupled residual drift of z_n, from one Taylor pass: the
    input zd of the known-gain and comparator kernels (``control``)."""
    values, drift = coords_and_drift(sys, c, x, yr_stack, True)
    return values + [drift]


# what each plant tape computes (``plant_tapes``): fn(plant, c, xs, ys), a flat list
PLANT_PASSES = {
    "h": error_values,                              # the error coordinates h
    "z": coupled_values,                           # z, then the residual drift
    "residual": lambda sys, c, xs, ys: [coords_and_drift(sys, c, xs, ys)[1]],   # of h_n
    "state": _state_values,         # the inverse map; the inputs x0.. stand for h_1..
    "drift": lambda sys, c, xs, ys: [f(xs[:i + 1]) for i, f in enumerate(sys.drift)],
    "gain": lambda sys, c, xs, ys: [sys.gain(xs)],  # untraceable: a call of plant.gain itself
}


@functools.cache
def stack_tape(kind: str, n: int) -> Tape:
    """The tape of the stack form ``model.STACK_FORMS[kind]`` to order n: the
    time is x0, its first size(n) parameters y0..; traced once per kind and n."""
    form = STACK_FORMS[kind]
    return trace(functools.partial(form.values, n), "x0", [f"y{i}" for i in range(form.size(n))])


def stack_order(*tapes) -> int:
    """The highest k whose stack item y<k> an entry of tapes reads (0 if
    none): the order of the stack they need; a call tape reads all of it."""
    return max((int(v[1:]) for tape in tapes for entry in tape.entries for v in entry[2]
                if v[0] == "y" and v[1:].isdigit()), default=0)


def items_read(tape: Tape, reader: Tape) -> Tape:
    """tape less the items of its call (``_call_tape``) that reader, traced over
    its outs as x0.., does not read (their outs stay unwritten); a traced tape."""
    read = {v for entry in reader.entries for v in entry[2]} | set(reader.outs)
    unread = {o for i, o in enumerate(tape.outs) if f"x{i}" not in read} if tape.calls else ()
    return Tape(tuple(e for e in tape.entries if e[0] not in unread), tape.outs, tape.calls)


# the names a tape's source reads; a call tape reads the passes
TAPE_SCOPE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt,
              "fsum": math.fsum, "inf": math.inf, "nan": math.nan,
              "singular_gain": singular_gain, "passes": PLANT_PASSES}


def state_from_errors(sys: SystemModel, h, yr_stack, gains: GainConfig) -> np.ndarray:
    """Invert error_coords (the map is triangular: solve state by state)."""
    return np.array(_state_values(sys, gains.c, _floats(h), _floats(yr_stack)))


def error_drift(sys: SystemModel, x, yr_stack, gains: GainConfig, couple: bool = False) -> float:
    """Drift of the last error coordinate under zero input:
    dh_n/dt = gain * u + error_drift."""
    return coords_and_drift(sys, gains.c, x, yr_stack, couple)[1]


# --- residual-drift bound ----------------------------------------------------

@dataclass(frozen=True)
class DriftBound:
    """Radial envelope for the residual drift: |error_drift| <= growth(|h|) + offset.

    growth is a polynomial, increasing and vanishing at zero, given by its
    coefficients in ascending powers (zero constant term).  The Lyapunov
    weight built on it (``control.LyapunovSpec``) is then a polynomial
    too, which the law evaluates in closed form.
    """

    growth_coeffs: tuple
    offset: float = 0.0

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.growth_coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"growth coefficients must be finite, got {coeffs}")
        if not 0 <= self.offset < math.inf:
            raise ValueError(f"offset must be nonnegative and finite, got {self.offset!r}")
        if coeffs and coeffs[0] != 0.0:
            raise ValueError("growth must vanish at zero (constant coefficient 0)")
        if any(v < 0 for v in coeffs):
            raise ValueError("growth coefficients must be nonnegative")
        if not any(v > 0 for v in coeffs[1:]):
            raise ValueError("growth must be strictly increasing and unbounded")
        object.__setattr__(self, "growth_coeffs", coeffs)

    def growth(self, r: float) -> float:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return horner(self.growth_coeffs, r)

    def envelope(self, r: float) -> float:
        return self.growth(r) + self.offset


def default_drift_bound(sys: SystemModel, gains: GainConfig,
                        ref_peaks=(1.0, 0.4, 0.16)) -> DriftBound:
    """Certificate bound for the demo plant.

    Expanding the residual drift in error coordinates and applying the
    triangle inequality with reference peaks (|y|, |y'|, |y''|) gives

        growth(r) = r^2 + (2 + c1 + c1^2) r,
        offset    = |y|_max^2 + |y''|_max.

    The |y'| terms cancel exactly for this plant.  Only the demo plant is
    supported; other systems must supply their own DriftBound.
    """
    if sys.name != "example":
        raise ValueError("default_drift_bound covers the demo plant only; "
                         "supply a DriftBound for custom systems")
    c1 = gains.c[0]
    return DriftBound(growth_coeffs=(0.0, 2.0 + c1 + c1 * c1, 1.0),
                      offset=ref_peaks[0] ** 2 + ref_peaks[2])


def scale_drift_bound(bound: DriftBound, scale: float) -> DriftBound:
    """Uniformly scale a bound.  scale < 1 yields a non-certified bound
    (the envelope no longer dominates the residual drift); used to trade
    dither amplitude against the certified margin in simulations."""
    _positive("scale", scale)
    return DriftBound(growth_coeffs=tuple(scale * v for v in bound.growth_coeffs),
                      offset=scale * bound.offset)


# --- gain selection ----------------------------------------------------------

def gain_floors(sys: SystemModel, x0, yr_stack, gains: GainConfig) -> np.ndarray:
    """Per-stage lower bounds for the rate gains that force every initial
    error coordinate negative, given h_1(0) < 0.

    Floor i depends on c_1..c_{i-1} only, so floors can be consumed
    sequentially: choose c_i > max(floor_i, 1), move to the next stage.
    """
    xs, ys = _floats(x0), _floats(yr_stack)
    h1 = xs[0] - ys[0]
    if h1 >= 0:
        raise InitSignError(
            f"h_1(0) = {h1:.6g} >= 0: floor-based selection needs the output to "
            "start below the reference; use the descending-gain selection instead"
        )
    n = sys.n
    floors = np.empty(n - 1)
    if n == 1:
        return floors
    # h_i and its open-loop rate h_i[1] for i < n-1 come from one pass;
    # the pass needs h_{n-1} to order 0 only, so its rate is formed here
    values, hs, alphas = _taylor_pass(sys, gains.c, xs, ys, False, n - 1, 0)
    rate = xs[n - 1] + sys.drift[n - 2](xs[:n - 1]) - ys[n - 1]
    if n > 2:
        rate = rate - alphas[-2].c[1]
    rates = [h.c[1] for h in hs[:-1]] + [rate]
    for i, (h, r) in enumerate(zip(values, rates), start=1):
        if h == 0.0:
            raise InitSignError(f"h_{i}(0) = 0: no finite gain floor exists")
        floors[i - 1] = -r / h
    return floors


@dataclass(frozen=True)
class GainVerdict:
    """The verdict of ``check_gains``.  checks are (describe, satisfied)
    pairs, describe() the condition's text, which is only rendered when
    asked for (``conditions``): a run reads ``ok`` alone."""

    ok: bool
    mode: str
    checks: tuple

    @property
    def conditions(self):
        """(description, satisfied) pairs."""
        return tuple((describe(), good) for describe, good in self.checks)

    @property
    def failures(self):
        return tuple(desc for desc, good in self.conditions if not good)

    def render(self) -> str:
        lines = [f"gain check [{self.mode}]: {'valid' if self.ok else 'INVALID'}"]
        for desc, good in self.conditions:
            lines.append(f"  [{'ok' if good else 'VIOLATED'}] {desc}")
        return "\n".join(lines)


def check_gains(sys: SystemModel, gains: GainConfig, mode: str,
                x0=None, yr_stack=None) -> GainVerdict:
    """Validate a gain set against the selected rule set.

    Modes: "uniform" (all c_i > 1 and lam*beta >= 1/xi1), "floors"
    (additionally c_i above its initial-condition floor; needs x0 and the
    reference stack at t = 0), "descending" (strictly descending chain
    c_1 > ... > c_n > 1 plus the lam*beta condition).
    """
    if mode not in ("uniform", "floors", "descending"):
        raise ValueError(f"unknown mode {mode!r}")
    c = gains.c
    lb, floor = gains.lam * gains.beta, 1.0 / sys.xi1
    conds = [(lambda: f"lam*beta = {lb:.6g} >= 1/xi1 = {floor:.6g}", lb >= floor)]
    if mode == "descending":
        conds.append((lambda: "strict descending chain " + " > ".join(f"{ci:g}" for ci in c)
                      + " > 1", _descends(c)))
    else:
        conds += [(lambda i=i, ci=ci: f"c_{i} = {ci:g} > 1", ci > 1.0)
                  for i, ci in enumerate(c, start=1)]
    if mode == "floors":
        if x0 is None or yr_stack is None:
            raise ValueError("floors mode needs x0 and the reference stack at t=0")
        floors = gain_floors(sys, x0, yr_stack, gains)
        conds += [(lambda i=i, ci=ci, fl=fl: f"c_{i} = {ci:g} > max(floor {fl:.6g}, 1)",
                   ci > max(fl, 1.0)) for i, (ci, fl) in enumerate(zip(c, floors), start=1)]
    return GainVerdict(ok=all(good for _, good in conds), mode=mode, checks=tuple(conds))


def _descends(c) -> bool:
    """c_1 > ... > c_n > 1."""
    return all(map(operator.gt, c, c[1:])) and c[-1] > 1.0


@dataclass(frozen=True)
class BoundReport:
    """Residual and overshoot cores (frequency-independent parts) plus the
    envelope weights of the descending-gain selection."""

    residual_core: float
    overshoot_core: float
    c_min: float
    envelope_weights: Optional[tuple] = None

    def envelope(self, h0_abs: Sequence[float], c: Sequence[float],
                 t, delta_est: float):
        """Transient ceiling overshoot_core + delta + sum w_i |h_i(0)| e^{-c_i t}."""
        if self.envelope_weights is None:
            raise ValueError("envelope weights need the descending-gain mode")
        t = np.asarray(t, dtype=float)
        terms = list(zip(self.envelope_weights, h0_abs, c))
        # each term's float operations as wi * |h0i| * exp(-ci * t) does them,
        # in three array operations for all i; then summed in order
        rates = np.multiply.outer([-ci for _, _, ci in terms], t)
        scales = np.reshape([wi * abs(h0i) for wi, h0i, _ in terms], (-1,) + (1,) * t.ndim)
        out = np.full_like(t, self.overshoot_core + delta_est)
        for term in scales * np.exp(rates):
            out = out + term
        return out


def bound_report(gains: GainConfig, mode: str) -> BoundReport:
    verdict_free = ("uniform", "descending")
    if mode not in verdict_free + ("floors",):
        raise ValueError(f"unknown mode {mode!r}")
    cm = gains.c_min
    if cm <= 1.0:
        raise ValueError("residual core needs every c_i > 1")
    residual = math.sqrt(1.0 / (gains.kappa * (cm - 1.0)))
    prod = 1.0
    for ci in gains.c:
        prod *= ci
    overshoot = 1.0 / (gains.kappa * prod)
    weights = None
    if mode == "descending":
        weights = [1.0]
        for i in range(1, gains.n):
            denom = 1.0
            for k in range(i):
                denom *= gains.c[k] - gains.c[i]
            if denom <= 0:
                raise ValueError("envelope weights need a strictly descending chain")
            weights.append(1.0 / denom)
        weights = tuple(weights)
    return BoundReport(residual_core=residual, overshoot_core=overshoot, c_min=cm,
                       envelope_weights=weights)


def descending_bounds(sys: SystemModel, gains: GainConfig) -> Optional[BoundReport]:
    """``bound_report(gains, "descending")`` where the gains pass
    ``check_gains``'s "descending" mode, else None: the bounds that a run's
    report reads (``sim.run_scenario``), without the verdict and its texts."""
    if gains.lam * gains.beta >= 1.0 / sys.xi1 and _descends(gains.c):
        return bound_report(gains, "descending")
    return None
