"""Control laws.

* ``es_control``: the dithered minimum-seeking law.  It never reads the
  input gain; a square-root-of-frequency dither multiplies a constant
  channel and a channel weighted by an integral Lyapunov function of the
  tracking error.
* ``nominal_backstepping``: textbook known-gain law (keeps the
  ``-z_{i-1}`` coupling and divides by the true gain).
* ``nussbaum_control``: comparator that copes with unknown gain sign by
  sweeping an oscillatory gain theta^2*cos(theta).
* ``safety_filter``: passes a nominal input inside the safe set and
  overrides it with the seeking law outside.

Each law's formula is one kernel (``*_input``) over the floats a run
loop's node holds, and the filter's mode rule one (``nominal_mode``);
the law computes them and calls it, and the simulator traces it into its
loops (``synth.trace``), so it must record.

The Lyapunov function has one shape: its weight is a polynomial in |h|
built from a polynomial drift envelope, so V is a polynomial too and is
evaluated in closed form.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dualnum import cos, fsum, guard, nonnegative, sin, sqrt
from .model import SINGULAR_GAIN, SingularGainError, SystemModel, singular_gain
from .synth import DriftBound, GainConfig, _positive, coupled_values, horner


@dataclass(frozen=True)
class LyapunovSpec:
    """Radial Lyapunov shape: V(h) = integral_0^{|h|} r * weight(r) dr.

    weight(r) = kappa * [c_n/kappa + e(r) + e(r)^2] with e the drift-bound
    envelope; weight(r) >= c_n for every r, which is the workhorse floor
    of the damping analysis.  The envelope is a polynomial, so weight and
    V are polynomials, kept as ascending coefficients (``_weight_coeffs``,
    ``_value_coeffs``) and evaluated by Horner's rule: the law evaluates V
    four times per integration step.
    """

    drift_bound: DriftBound
    c_n: float
    kappa: float

    def __post_init__(self):
        _positive("c_n", self.c_n)
        _positive("kappa", self.kappa)
        # weight(r) = c_n + kappa*(w + w^2), w = envelope polynomial
        w = list(self.drift_bound.growth_coeffs)
        w[0] += self.drift_bound.offset
        w2 = np.convolve(w, w)
        coeffs = np.zeros(len(w2))
        coeffs[: len(w)] += w
        coeffs += w2
        coeffs *= self.kappa
        coeffs[0] += self.c_n
        object.__setattr__(self, "_weight_coeffs", tuple(float(c) for c in coeffs))
        # V(s) = sum_k coeffs[k] s^{k+2} / (k+2)
        object.__setattr__(self, "_value_coeffs",
                           tuple(float(ck) / (k + 2) for k, ck in enumerate(coeffs)))


def example_lyapunov_spec(sys, gains: GainConfig, scale: float = 1.0) -> LyapunovSpec:
    """Spec for the demo plant from its certificate bound, optionally scaled."""
    from .synth import default_drift_bound, scale_drift_bound

    bound = default_drift_bound(sys, gains)
    if scale != 1.0:
        bound = scale_drift_bound(bound, scale)
    return LyapunovSpec(drift_bound=bound, c_n=gains.c[-1], kappa=gains.kappa)


def lyapunov_weight(spec: LyapunovSpec, r: float) -> float:
    """Radial weight; strictly increasing, bounded below by c_n."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return horner(spec._weight_coeffs, r)


def _norm(h):        # |h| as sqrt(fsum(h_i^2)): V, dV/dh_n and the averaged damping
    return sqrt(fsum([v * v for v in h]))


def _value(vc, r):      # V at |h| = r from its coefficients vc
    return horner(vc, r) * r * r


def lyapunov_value(spec: LyapunovSpec, h) -> float:
    """V(h); depends on h only through its Euclidean norm, V(0) = 0."""
    return _value(spec._value_coeffs, _norm(h))


def lyapunov_grad_last(spec: LyapunovSpec, h) -> float:
    """dV/dh_n = weight(|h|) * h_n (continuous through h = 0)."""
    h = np.asarray(h, dtype=float).tolist()
    if h[-1] == 0.0:
        return 0.0
    return lyapunov_weight(spec, _norm(h)) * h[-1]


def seeking_input(h, t, om, sq, beta, lam, vc):
    """``es_control`` at time t, om the dither frequency, sq = sqrt(om), vc V's
    coefficients; the dither pair is part of the law."""
    wt = om * t
    return sq * (beta * cos(wt) - lam * sin(wt) * _value(vc, _norm(h)))


def es_control(spec: LyapunovSpec, gains: GainConfig, t: float, h) -> float:
    """Dithered seeking input sqrt(w)*[beta cos(wt) - lam sin(wt) V(h)]."""
    return seeking_input(h, t, gains.omega, sqrt(gains.omega), gains.beta, gains.lam,
                         spec._value_coeffs)


# --- textbook laws (known gain / oscillatory gain) ----------------------------

def ideal_input(zd, c_n):
    """-c_n z_n - z_{n-1} - drift, zd = (z_1, .., z_n, drift) the coupled pass's."""
    *z, drift = zd
    out = -c_n * z[-1] - drift
    if len(z) >= 2:
        out = out - z[-2]
    return out


def known_gain_input(zd, c_n, g):
    """The ideal input over the gain g; SingularGainError if |g| < SINGULAR_GAIN."""
    return ideal_input(zd, c_n) / guard(g, SINGULAR_GAIN, singular_gain)


def nominal_backstepping(sys: SystemModel, x, yr_stack, gains: GainConfig) -> float:
    """Known-gain law: divide the ideal input by the true gain."""
    g = sys.gain(tuple(x))
    return known_gain_input(coupled_values(sys, gains.c, x, yr_stack), gains.c[-1], g)


@dataclass
class NussbaumState:
    """Adaptation variable of the oscillatory-gain comparator."""

    theta: float = 0.0


def nussbaum_gain(theta: float) -> float:
    return theta * theta * cos(theta)


def comparator_input(zd, c_n, theta):
    """``nussbaum_control``'s (u, dtheta/dt) = (theta^2 cos(theta) a, -a z_n),
    a the ideal input."""
    a = ideal_input(zd, c_n)
    return nussbaum_gain(theta) * a, -a * zd[-2]


def nussbaum_control(sys: SystemModel, x, yr_stack, gains: GainConfig,
                     state: NussbaumState):
    """Comparator input and adaptation rate.

    u = theta^2 cos(theta) * a_ideal,  dtheta/dt = -a_ideal * z_n.
    """
    return comparator_input(coupled_values(sys, gains.c, x, yr_stack), gains.c[-1], state.theta)


# --- safety filter -------------------------------------------------------------

MODE_LABELS = {-1: "-", 0: "nominal", 1: "override"}


def nominal_mode(y, x1):
    """The filter's rule: the nominal law runs (mode 0) while the margin
    y - x1 is nonnegative, the boundary included and NaN not; else the
    seeking law overrides it (mode 1)."""
    return nonnegative(y - x1)


@dataclass
class SafetySwitch:
    """Latched supervisor mode (``MODE_LABELS``) at the most recent evaluation."""

    mode: str = MODE_LABELS[0]
    last_switch_time: Optional[float] = None


def safety_filter(t: float, x1: float, margin: float, u_nominal: float,
                  u_override: float, switch: SafetySwitch) -> float:
    """Select the applied input by ``nominal_mode`` on the safety margin."""
    nominal = nominal_mode(margin, 0.0)
    mode = MODE_LABELS[0 if nominal else 1]
    if mode != switch.mode:
        switch.mode = mode
        switch.last_switch_time = t
    return u_nominal if nominal else u_override
