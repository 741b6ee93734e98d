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
from typing import Callable

import numpy as np


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


class GainFloorViolation(RuntimeError):
    """The squared input gain dropped below its declared floor."""


@dataclass(frozen=True)
class SystemModel:
    """Strict-feedback plant of dimension n.

    drift[i] takes the first i+1 states as a sequence; gain takes the
    full state.  The synthesis evaluates drifts on truncated Taylor series
    (``dualnum.Jet``) and nested dual numbers as well as on floats, so they
    must be built from plain arithmetic, nonnegative integer powers,
    numeric coefficients (numpy scalars included) and the
    :mod:`nonovershoot.dualnum` helpers ``sin``, ``cos`` and ``exp``;
    anything else raises ``TypeError``.  The gain is only ever called on
    floats.
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
        if self.xi1 <= 0:
            raise ValueError("gain floor xi1 must be positive")

    def check_gain_floor(self, x, tol=1e-12):
        g = self.gain(tuple(x))
        if g * g < self.xi1 - tol:
            raise GainFloorViolation(
                f"gain(x)^2 = {g * g:.6g} < xi1 = {self.xi1:.6g} at x = {list(x)}"
            )
        return g


def eval_dynamics(sys: SystemModel, x, u: float) -> np.ndarray:
    """Open-loop state derivative for input u."""
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
    floor is exact: min over x2 of (0.2*sin(x2) + 1.2)^2 = 1.0.
    """
    def _gain(xs):
        return 0.2 * math.sin(xs[1]) + 1.2

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

    Derivatives are analytic, never finite-differenced, because the
    virtual controllers consume them exactly up to order n.
    """

    def derivative(self, t: float, k: int) -> float:
        raise NotImplementedError

    def derivatives(self, t: float, n: int) -> tuple:
        """(y(t), y'(t), ..., y^(n)(t)) as n+1 floats.

        A subclass may override this to share work across orders; the
        override must return exactly the values ``derivative(t, k)``
        returns, because the simulator reads the stack from here and the
        checks read single orders from ``derivative``.
        """
        return tuple(self.derivative(t, k) for k in range(n + 1))

    def stack(self, t: float, n: int) -> np.ndarray:
        """[y(t), y'(t), ..., y^(n)(t)], length n+1."""
        out = np.array(self.derivatives(t, n))
        if not np.all(np.isfinite(out)):
            raise BlowupError("non-finite reference value", t=t)
        return out


@dataclass(frozen=True)
class SineReference(Reference):
    """y(t) = amplitude * sin(rate * t)."""

    amplitude: float = -1.0
    rate: float = 0.4

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the shared-sin/cos stack below would bypass a redefined derivative
        if "derivative" in cls.__dict__ and "derivatives" not in cls.__dict__:
            cls.derivatives = Reference.derivatives

    def derivative(self, t, k):
        # quarter-phase cycle kept exact so derivatives vanish where they should
        phase = self.rate * t
        base = (math.sin(phase), math.cos(phase),
                -math.sin(phase), -math.cos(phase))[k % 4]
        return self.amplitude * self.rate**k * base

    def derivatives(self, t, n):
        phase = self.rate * t
        s, c = math.sin(phase), math.cos(phase)
        cyc = (s, c, -s, -c)
        return tuple(self.amplitude * self.rate**k * cyc[k % 4] for k in range(n + 1))


@dataclass(frozen=True)
class ConstantReference(Reference):
    level: float = 0.0

    def derivative(self, t, k):
        return self.level if k == 0 else 0.0

    def derivatives(self, t, n):
        return (self.level,) + (0.0,) * n


def get_reference(name) -> Reference:
    """Resolve a reference id: "sine04", "constant:<value>", or a Reference."""
    if isinstance(name, Reference):
        return name
    if name == "sine04":
        return SineReference()
    if isinstance(name, str) and name.startswith("constant:"):
        return ConstantReference(float(name.split(":", 1)[1]))
    if name in _REFERENCES:
        return _REFERENCES[name]()
    raise KeyError(f"unknown reference id {name!r}")


_REFERENCES: dict = {}


def register_reference(name: str, factory: Callable[[], Reference]):
    _REFERENCES[name] = factory


def reference_stack(name, t: float, n: int) -> np.ndarray:
    return get_reference(name).stack(t, n)


@dataclass(frozen=True)
class Scenario:
    """Closed-loop run description: initial state, horizon, step, reference.

    The horizon must be a whole number of steps: t_end/dt within 1e-9
    (relative) of an integer >= 1.  Anything else is rejected rather than
    silently cut to the nearest grid point.
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

    @property
    def nsteps(self) -> int:
        """Number of fixed steps from t = 0 to t_end."""
        return round(self.t_end / self.dt)

    def dither_resolved(self, omega: float) -> bool:
        """Step small enough to resolve a dither of frequency omega."""
        return self.dt <= (2 * np.pi / omega) / 40.0
