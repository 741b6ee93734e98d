"""Plant class, reference signals, and the worked demo system.

A plant is a strict-feedback chain

    dx_i/dt = x_{i+1} + drift_i(x_1..x_i)      i = 1..n-1
    dx_n/dt = gain(x) * u + drift_n(x_1..x_n)
    y       = x_1

where the drift functions are known to every controller while the input
gain (value and sign) is not.  Controllers only rely on a known positive
floor ``xi1`` with gain(x)^2 >= xi1.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import dualnum


DITHER_SAMPLES = 40     # steps per dither period a seeking run needs


def max_dither_dt(omega: float) -> float:
    """Largest step that resolves a dither of frequency omega (rad/s):
    DITHER_SAMPLES steps per period."""
    return (2 * math.pi / omega) / DITHER_SAMPLES


class BlowupError(RuntimeError):
    """Raised when a simulated quantity stops being finite."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


def _domain_messages():
    """The texts of the ValueErrors :mod:`math` raises outside a function's
    domain, as (exact texts, prefixes).  Where a text ends with the
    offending argument (newer Pythons say "expected a positive input, got
    -1.0" where older ones say "math domain error"), the part before it
    becomes a prefix, so the same error at any other argument matches."""
    probes = ((math.sqrt, -1.0), (math.log, 0.0), (math.log, -1.0),
              (math.log10, -1.0), (math.log2, -1.0), (math.log1p, -2.0),
              (math.sin, math.inf), (math.cos, math.inf), (math.tan, math.inf),
              (math.asin, 2.0), (math.acos, 2.0), (math.acosh, 0.0),
              (math.atanh, 2.0), (lambda v: math.pow(v, 0.5), -1.0),
              (lambda v: math.fmod(v, 1.0), math.inf))
    exact, prefixes = set(), set()
    for fn, arg in probes:
        try:
            fn(arg)
        except ValueError as exc:
            text = str(exc)
            if text.endswith(repr(arg)) and len(text) > len(repr(arg)):
                prefixes.add(text[:-len(repr(arg))])
            else:
                exact.add(text)
    return frozenset(exact), tuple(sorted(prefixes))


_DOMAIN_EXACT, _DOMAIN_PREFIXES = _domain_messages()


def is_divergence(exc: BaseException) -> bool:
    """True for the arithmetic errors a diverging float computation raises:
    ``OverflowError``, and the ``ValueError`` of a :mod:`math` function
    called outside its domain (``sin(inf)``, ``sqrt(-1)``), recognised by
    the texts :mod:`math` itself produces on this Python.  Any other
    exception is a fault, not divergence."""
    if isinstance(exc, OverflowError):
        return True
    if type(exc) is not ValueError:
        return False
    text = str(exc)
    return text in _DOMAIN_EXACT or text.startswith(_DOMAIN_PREFIXES)


def _one_cell(what: str, text: str) -> None:
    """ValueError naming text unless it can stay one CSV cell."""
    if any(ch in text for ch in ",\r\n"):
        raise ValueError(f"{what} must not contain a comma or a line break, got {text!r}")


class GainFloorViolation(RuntimeError):
    """The squared input gain dropped below its declared floor."""


GAIN_FLOOR_TOL = 1e-12      # slack of the gain-floor check gain(x)^2 >= xi1


class SingularGainError(ZeroDivisionError):
    """Known-gain law evaluated where the input gain is (numerically) zero."""


SINGULAR_GAIN = 1e-9    # |gain| below this is singular for the known-gain law

_STATE_LIMIT = 1e9      # |state item| past which every generated loop stops (``sim.Python.source``)


def singular_gain(g: float) -> SingularGainError:
    return SingularGainError(f"input gain {g:.3g} too close to zero")


@dataclass(frozen=True)
class SystemModel:
    """Strict-feedback plant of dimension n.

    drift[i] takes the first i+1 states as a sequence; gain takes the
    full state.  The synthesis evaluates drifts on truncated Taylor series
    (``dualnum.Jet``) and nested dual numbers as well as on floats, so they
    must be built from plain arithmetic, nonnegative integer powers,
    numeric coefficients (numpy scalars included) and the
    :mod:`nonovershoot.dualnum` helpers ``sin``, ``cos`` and ``exp``;
    anything else (``math.sin``, comparisons, ``abs``) raises
    ``TypeError``.

    Building a plant traces its synthesis pass, its inverse map, its
    drifts and its gain into tapes (``synth.plant_tapes``), which the
    simulator's generated loops write out (a tape is a call of its pass,
    ``synth.PLANT_PASSES``, where a drift cannot be traced).  The gain is
    traced too, once, on recording scalars: built from what a drift may
    use, it is written into every RK4 node and never called by a run;
    any other gain (``math.sin``, a comparison) is called on floats, once
    per node.  A traced tape reads the drifts' and the gain's constants
    once, so they must be pure functions of their arguments: the
    simulator evaluates the gain once per RK4 node and uses that one
    value for the gain-floor check, the known-gain law and the plant
    rate.  xi1 must be positive and finite; the name, a CSV cell in run
    ids, holds no comma or line break.
    """

    n: int
    drift: tuple
    gain: Callable
    xi1: float
    name: str = "custom"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("state dimension must be >= 1")
        if len(self.drift) != self.n:
            raise ValueError(f"expected {self.n} drift functions, got {len(self.drift)}")
        if not 0 < self.xi1 < math.inf:      # NaN too: it would turn the floor check off
            raise ValueError(f"gain floor xi1 must be positive and finite, got {self.xi1!r}")
        _one_cell("system name", self.name)
        from . import synth         # synth imports this module
        # traced here, not on a loop's first compile, so that no run pays for it
        object.__setattr__(self, "_tapes", synth.plant_tapes(self))
        # compiled closed-loop steps, built by sim on a controller's first run
        object.__setattr__(self, "_steps", {})

    def floor_violation(self, g, x) -> GainFloorViolation:
        """The error for gain value g below the floor at state x."""
        return GainFloorViolation(
            f"gain(x)^2 = {g * g:.6g} < xi1 = {self.xi1:.6g} at x = {list(x)}")


def eval_dynamics(sys: SystemModel, x, u: float) -> np.ndarray:
    """Open-loop state derivative for input u.

    The simulator's generated step writes this rate out on floats; this
    array form is the independent replay oracle (with ``sim.rk4_step``)
    that the tests and the benchmark's checks run recorded steps through."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"state must have dimension {sys.n}")
    if not np.isfinite(u):
        raise BlowupError("non-finite input", state=x)
    xs = tuple(x)
    dx = np.empty(sys.n)
    for i in range(sys.n - 1):
        dx[i] = x[i + 1] + sys.drift[i](xs[: i + 1])
    dx[sys.n - 1] = sys.gain(xs) * u + sys.drift[sys.n - 1](xs)
    if not np.all(np.isfinite(dx)):
        raise BlowupError("non-finite state derivative", state=x)
    return dx


def example_system() -> SystemModel:
    """The two-dimensional demo plant.

    drift_1 = 0, drift_2 = x1^2, gain = 0.2*sin(x2) + 1.2.  The gain
    floor is exact: min over x2 of (0.2*sin(x2) + 1.2)^2 = 1.0.  The sine
    is ``dualnum.sin``, which is ``math.sin`` on a float, so the gain is
    traced into the run loops.
    """
    def _gain(xs):
        return 0.2 * dualnum.sin(xs[1]) + 1.2

    return SystemModel(
        n=2,
        drift=(lambda xs: 0.0, lambda xs: xs[0] * xs[0]),
        gain=_gain,
        xi1=1.0,
        name="example",
    )


_SYSTEMS = {"example": example_system}


def register_system(name: str, factory: Callable[[], SystemModel]):
    _SYSTEMS[name] = factory


def get_system(name: str) -> SystemModel:
    try:
        return _SYSTEMS[name]()
    except KeyError:
        raise KeyError(f"unknown system id {name!r}; known: {sorted(_SYSTEMS)}") from None


class Reference:
    """Analytic reference signal: value plus exact derivatives of any order.

    A subclass defines ``derivative(t, k)``, the k-th derivative at t, and
    nothing else: the stack (y, y', ..., y^(n)) the simulator reads at
    every RK4 node is made from it by ``bound_stack``.  Derivatives are
    analytic, never finite-differenced, because the virtual controllers
    consume them exactly up to order n.
    """

    def derivative(self, t: float, k: int) -> float:
        raise NotImplementedError

    def stack(self, t: float, n: int) -> np.ndarray:
        """[y(t), y'(t), ..., y^(n)(t)], length n+1."""
        out = np.array(bound_stack(self, n)(t))
        if not np.all(np.isfinite(out)):
            raise BlowupError("non-finite reference value", t=t)
        return out


@dataclass(frozen=True)
class SineReference(Reference):
    """y(t) = amplitude * sin(rate * t); amplitude and rate must be finite.

    A run's stack is straight-line code, one sine, one cosine and n+1
    products (``STACK_FORMS``), written into the run loops and bound once
    by ``bound_stack``; a subclass that redefines ``derivative`` gets a
    stack of its own values instead.  The instance holds nothing but its
    fields.
    """

    amplitude: float = -1.0
    rate: float = 0.4

    def __post_init__(self):
        for name, v in (("amplitude", self.amplitude), ("rate", self.rate)):
            if not math.isfinite(v):
                raise ValueError(f"sine {name} must be finite, got {v!r}")

    def derivative(self, t, k):
        # quarter-phase cycle kept exact so derivatives vanish where they should
        phase = self.rate * t
        base = (math.sin(phase), math.cos(phase),
                -math.sin(phase), -math.cos(phase))[k % 4]
        return self.amplitude * self.rate**k * base


@dataclass(frozen=True)
class ConstantReference(Reference):
    level: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ValueError(f"constant level must be finite, got {self.level!r}")

    def derivative(self, t, k):
        return self.level if k == 0 else 0.0


def get_reference(name) -> Reference:
    """Resolve a reference id: "sine04", "constant:<value>", or a Reference."""
    if isinstance(name, Reference):
        return name
    if name == "sine04":
        return SineReference()
    if isinstance(name, str) and name.startswith("constant:"):
        try:
            return ConstantReference(float(name.split(":", 1)[1]))
        except ValueError as exc:
            raise ValueError(f"reference id {name!r}: {exc}") from None
    raise KeyError(f"unknown reference id {name!r}")


def _sine_params(ref: SineReference, n: int) -> tuple:
    """The rate, then the scales a_k = amplitude * rate**k, k = 0..n.
    Where ``derivative`` raises on rate**k overflowing, the scales are
    inf: no t has a finite stack."""
    try:
        scales = [ref.amplitude * ref.rate**k for k in range(n + 1)]
    except OverflowError:       # rate**k past the float range
        scales = [math.inf] * (n + 1)
    return (ref.rate, *scales)


def _sine_values(n: int, t, params) -> list:
    """The stack of amplitude * sin(rate * t) from _sine_params: since
    ``derivative`` evaluates amplitude * rate**k * base as
    (amplitude * rate**k) * base, this repeats its float operations and
    operands and matches it bit for bit."""
    rate, *scales = params
    phase = rate * t
    s, c = dualnum.sin(phase), dualnum.cos(phase) if n else 0.0    # a tape keeps an unread cos
    cyc = (s, c, -s, -c)
    return [a * cyc[k % 4] for k, a in enumerate(scales)]


class StackForm(NamedTuple):
    """A built-in reference's stack as straight-line code: values(n, t,
    params) is traced over the time and the size(n) floats params(ref, n)
    that a run binds once (``synth.stack_tape``)."""

    derivative: Callable    # the class's derivative, which picks this form
    size: Callable
    params: Callable
    values: Callable


# the stack forms of the built-in references, by kind; a generated run
# loop writes a form out at every node time, and bound_stack runs it
STACK_FORMS = {
    "sine": StackForm(SineReference.derivative, lambda n: n + 2, _sine_params, _sine_values),
    "constant": StackForm(ConstantReference.derivative, lambda n: 1,
                          lambda ref, n: (ref.level,),
                          lambda n, t, params: [params[0]] + [0.0] * n),
}


_KIND_OF = {form.derivative: kind for kind, form in STACK_FORMS.items()}


def stack_kind(ref: Reference) -> str:
    """The key of ref's stack form in STACK_FORMS, picked by its class's
    ``derivative``; "call" for any other reference."""
    return _KIND_OF.get(type(ref).derivative, "call")


def stack_binding(ref: Reference, n: int):
    """(kind, what a run binds of ref's stack): a built-in form's
    parameters, or the stack bound_stack(ref, n) for "call"."""
    kind = stack_kind(ref)
    if kind == "call":
        return kind, bound_stack(ref, n)
    return kind, STACK_FORMS[kind].params(ref, n)


def bound_stack(ref: Reference, n: int):
    """t -> (y(t), y'(t), ..., y^(n)(t)) of ref as n+1 floats, bound once per
    run; the one place that decides how a stack is made, by the class's
    ``derivative`` (``stack_kind``).  A built-in reference's is its form
    in STACK_FORMS run on floats over its parameters, bound here, any
    other a tuple of ``derivative(t, k)`` for k = 0..n.  Each form equals
    ``derivative`` bit for bit.  Where a derivative overflows
    (``OverflowError``), no item of the stack has a known value or sign,
    and it is NaN: not finite, as a built-in sine's is where its rate**k
    overflows, so that every reader ends on it the same way."""
    kind = stack_kind(ref)
    if kind == "call":
        derivative = ref.derivative

        def stack(t):
            try:
                return tuple([derivative(t, k) for k in range(n + 1)])
            except OverflowError:       # an order past the float range
                return (math.nan,) * (n + 1)
        return stack
    form = STACK_FORMS[kind]
    params = form.params(ref, n)
    return lambda t: tuple(form.values(n, t, params))


def reference_stack(name, t: float, n: int) -> np.ndarray:
    return get_reference(name).stack(t, n)


@dataclass(frozen=True)
class Scenario:
    """Closed-loop run description: initial state, horizon, step, reference.

    The horizon must be a whole number of steps: t_end/dt within 1e-9
    (relative) of an integer >= 1.  Anything else is rejected rather than
    silently cut to the nearest grid point, as is a non-finite x0, or a
    label (a CSV cell of report rows) with a comma or line break.
    """

    x0: tuple
    t_end: float
    dt: float
    reference: object = "sine04"
    label: str = ""

    def __post_init__(self):
        q = self.t_end / self.dt if self.dt > 0 else math.nan
        if not (self.t_end > 0 and 0 < q < math.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if round(q) < 1 or abs(q - round(q)) > 1e-9 * q:
            near = sorted({max(math.floor(q), 1), max(math.ceil(q), 1)})
            raise ValueError(
                f"t_end = {self.t_end:g} is not a whole number of steps dt = {self.dt:g}; "
                "nearest valid t_end: " + " or ".join(f"{k * self.dt:.12g}" for k in near))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if not all(map(math.isfinite, self.x0)):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        _one_cell("scenario label", self.label)

    @property
    def nsteps(self) -> int:
        """Number of fixed steps from t = 0 to t_end."""
        return round(self.t_end / self.dt)

    def dither_resolved(self, omega: float) -> bool:
        """Step small enough to resolve a dither of frequency omega."""
        return self.dt <= max_dither_dt(omega)
