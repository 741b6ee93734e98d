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
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import SystemModel
from .synth import DriftBound, GainConfig, coords_and_drift, error_values


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SingularGainError(ZeroDivisionError):
    """Known-gain law evaluated where the input gain is (numerically) zero."""


@dataclass(frozen=True)
class LyapunovSpec:
    """Radial Lyapunov shape: V(h) = integral_0^{|h|} r * weight(r) dr.

    weight(r) = kappa * [c_n/kappa + e(r) + e(r)^2] with e the drift-bound
    envelope; weight(r) >= c_n for every r, which is the workhorse floor
    of the damping analysis.  Polynomial envelopes integrate in closed
    form (the law evaluates V four times per integration step); anything
    else falls back to adaptive quadrature.
    """

    drift_bound: DriftBound
    c_n: float
    kappa: float

    def __post_init__(self):
        if self.c_n <= 0 or self.kappa <= 0:
            raise ValueError("c_n and kappa must be positive")
        if self.drift_bound.is_polynomial:
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
        else:
            object.__setattr__(self, "_weight_coeffs", None)
            object.__setattr__(self, "_value_coeffs", None)

    @property
    def closed_form(self) -> bool:
        return self._weight_coeffs is not None


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
    if spec.closed_form:
        acc = 0.0
        for coef in reversed(spec._weight_coeffs):
            acc = acc * r + coef
        return acc
    e = spec.drift_bound.envelope(r)
    return spec.c_n + spec.kappa * (e + e * e)


def lyapunov_value_from_norm(spec: LyapunovSpec, s: float) -> float:
    if s < 0:
        raise ValueError("norm must be nonnegative")
    if spec.closed_form:
        acc = 0.0
        for coef in reversed(spec._value_coeffs):
            acc = acc * s + coef
        return acc * s * s
    from scipy import integrate     # only this fallback needs scipy

    val, err = integrate.quad(lambda r: r * lyapunov_weight(spec, r), 0.0, s,
                              epsabs=1e-10, limit=200)
    if err > 1e-8:
        raise QuadratureError(f"V quadrature error {err:.3g} at |h| = {s:.6g}")
    return val


def lyapunov_value(spec: LyapunovSpec, h) -> float:
    """V(h); depends on h only through its Euclidean norm, V(0) = 0.

    |h| is taken as sqrt(fsum(h_i^2)), the form the simulator's seeking
    stage inlines, so ``es_control`` equals the simulated input bit for bit.
    """
    return lyapunov_value_from_norm(spec, math.sqrt(math.fsum(v * v for v in h)))


def lyapunov_grad_last(spec: LyapunovSpec, h) -> float:
    """dV/dh_n = weight(|h|) * h_n (continuous through h = 0)."""
    h = np.asarray(h, dtype=float)
    if h[-1] == 0.0:
        return 0.0
    return lyapunov_weight(spec, float(np.linalg.norm(h))) * float(h[-1])


def es_control(spec: LyapunovSpec, gains: GainConfig, t: float, h) -> float:
    """Dithered seeking input sqrt(w)*[beta cos(wt) - lam sin(wt) V(h)]."""
    sq = math.sqrt(gains.omega)
    wt = gains.omega * t
    return sq * (gains.beta * math.cos(wt)
                 - gains.lam * math.sin(wt) * lyapunov_value(spec, h))


# --- textbook laws (known gain / oscillatory gain) ----------------------------

def standard_error_coords(sys: SystemModel, x, yr_stack, gains: GainConfig) -> np.ndarray:
    """Error coordinates of the coupled (textbook) recursion."""
    return np.array(error_values(sys, gains.c, x, yr_stack, couple=True))


def _ideal_and_last(sys, x, yr_stack, gains):
    """(ideal input, z_n) from one coupled Taylor pass."""
    z, drift = coords_and_drift(sys, gains.c, x, yr_stack, couple=True)
    out = -gains.c[-1] * z[-1] - drift
    if sys.n >= 2:
        out -= z[-2]
    return out, z[-1]


def ideal_backstepping_input(sys: SystemModel, x, yr_stack, gains: GainConfig) -> float:
    """What the textbook law would apply if the gain were exactly one:
    -c_n z_n - z_{n-1} minus the residual drift of the coupled recursion."""
    return _ideal_and_last(sys, x, yr_stack, gains)[0]


def nominal_backstepping(sys: SystemModel, x, yr_stack, gains: GainConfig) -> float:
    """Known-gain law: divide the ideal input by the true gain."""
    g = sys.gain(tuple(x))
    if abs(g) < 1e-9:
        raise SingularGainError(f"input gain {g:.3g} too close to zero")
    return ideal_backstepping_input(sys, x, yr_stack, gains) / g


@dataclass
class NussbaumState:
    """Adaptation variable of the oscillatory-gain comparator."""

    theta: float = 0.0


def nussbaum_gain(theta: float) -> float:
    return theta * theta * math.cos(theta)


def nussbaum_control(sys: SystemModel, x, yr_stack, gains: GainConfig,
                     state: NussbaumState):
    """Comparator input and adaptation rate.

    u = theta^2 cos(theta) * a_ideal,  dtheta/dt = -a_ideal * z_n.
    """
    a_ideal, z_n = _ideal_and_last(sys, x, yr_stack, gains)
    u = nussbaum_gain(state.theta) * a_ideal
    return u, -a_ideal * float(z_n)


# --- safety filter -------------------------------------------------------------

@dataclass
class SafetySwitch:
    """Latched supervisor mode; nominal iff the margin was nonnegative at
    the most recent evaluation."""

    mode: str = "nominal"
    last_switch_time: Optional[float] = None


def safety_filter(t: float, x1: float, margin: float, u_nominal: float,
                  u_override: float, switch: SafetySwitch) -> float:
    """Select the applied input from the safety margin (boundary included
    in the safe set: margin == 0 keeps the nominal input)."""
    mode = "nominal" if margin >= 0.0 else "override"
    if mode != switch.mode:
        switch.mode = mode
        switch.last_switch_time = t
    return u_nominal if mode == "nominal" else u_override
