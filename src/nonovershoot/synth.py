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
that only need order 0 stay plain floats.  ``virtual_controllers`` keeps
the nested-dual recursion, which exposes every partial derivative
separately and serves as the oracle for the Taylor pass.  Neither path
uses finite differences.

Drifts are evaluated on jets as well as on floats, so they must be built
from plain arithmetic, nonnegative integer powers, numeric (also numpy
scalar) coefficients and the ``dualnum`` helpers ``sin``, ``cos`` and
``exp``; anything else (``math.sin``, comparisons, ``abs``) raises
``TypeError``.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dualnum
from .model import SystemModel


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
        if any(ci <= 0 for ci in self.c):
            raise ValueError("all rate gains c_i must be positive")
        if min(self.kappa, self.lam, self.beta, self.omega) <= 0:
            raise ValueError("kappa, lam, beta, omega must be positive")

    @property
    def n(self):
        return len(self.c)

    @property
    def c_min(self):
        return min(self.c)


class InitSignError(ValueError):
    """Initial output error has the wrong sign (or is zero) for the
    floor-based gain selection; use descending-gain mode instead."""


def demo_gains(omega: float = 60.0) -> GainConfig:
    """The demo gain set: c = (2, 1.5), kappa = 1.1, lam = 4, beta = 0.8."""
    return GainConfig(c=(2.0, 1.5), kappa=1.1, lam=4.0, beta=0.8, omega=omega)


# --- Taylor-mode pass (simulation path) ----------------------------------------

Jet = dualnum.Jet


def _floats(v):
    """A state or reference stack as a tuple; arrays become Python floats."""
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
    n, xs, ys = sys.n, _floats(x), _floats(yr_stack)
    if n == 1:
        return [xs[0] - ys[0]]
    values, _, alphas = _taylor_pass(sys, c, xs, ys, couple, n - 1, 0)
    values.append(xs[n - 1] - alphas[-1] - ys[n - 1])
    return values


def coords_and_drift(sys: SystemModel, c, x, yr_stack, couple: bool = False):
    """Error coordinates and the residual drift of the last one, from one
    Taylor pass: (list of floats, dh_n/dt - gain * u)."""
    n, xs, ys = sys.n, _floats(x), _floats(yr_stack)
    base = sys.drift[n - 1](xs) - ys[n]
    if n == 1:
        return [xs[0] - ys[0]], base
    values, _, alphas = _taylor_pass(sys, c, xs, ys, couple, n - 1, 1)
    a = alphas[-1].c
    values.append(xs[n - 1] - a[0] - ys[n - 1])
    return values, base - a[1]


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


def state_from_errors(sys: SystemModel, h, yr_stack, gains: GainConfig) -> np.ndarray:
    """Invert error_coords (the map is triangular: solve state by state)."""
    hs, ys = _floats(h), _floats(yr_stack)
    xs = [hs[0] + ys[0]]
    for i in range(2, sys.n + 1):
        # a_{i-1} to order 0 only reads x_1..x_{i-1}, all reconstructed already
        a_prev = _taylor_pass(sys, gains.c, tuple(xs), ys, False, i - 1, 0)[2][-1]
        xs.append(hs[i - 1] + a_prev + ys[i - 1])
    return np.array(xs)


def error_drift(sys: SystemModel, x, yr_stack, gains: GainConfig, couple: bool = False) -> float:
    """Drift of the last error coordinate under zero input:
    dh_n/dt = gain * u + error_drift."""
    return coords_and_drift(sys, gains.c, x, yr_stack, couple)[1]


# --- residual-drift bound ----------------------------------------------------

@dataclass(frozen=True)
class DriftBound:
    """Radial envelope for the residual drift: |error_drift| <= growth(|h|) + offset.

    growth is an increasing function vanishing at zero, stored as
    polynomial coefficients (ascending powers, zero constant term) or as
    an arbitrary increasing callable (quadrature fallback downstream).
    """

    growth_coeffs: Optional[tuple] = None
    growth_fn: Optional[object] = None
    offset: float = 0.0

    def __post_init__(self):
        if (self.growth_coeffs is None) == (self.growth_fn is None):
            raise ValueError("provide exactly one of growth_coeffs / growth_fn")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if self.growth_coeffs is not None:
            coeffs = tuple(float(v) for v in self.growth_coeffs)
            if coeffs and coeffs[0] != 0.0:
                raise ValueError("growth must vanish at zero (constant coefficient 0)")
            if any(v < 0 for v in coeffs):
                raise ValueError("growth coefficients must be nonnegative")
            if not any(v > 0 for v in coeffs[1:]):
                raise ValueError("growth must be strictly increasing and unbounded")
            object.__setattr__(self, "growth_coeffs", coeffs)

    @property
    def is_polynomial(self):
        return self.growth_coeffs is not None

    def growth(self, r: float) -> float:
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if self.growth_coeffs is not None:
            acc = 0.0
            for coef in reversed(self.growth_coeffs):
                acc = acc * r + coef
            return acc
        return self.growth_fn(r)

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
    if scale <= 0:
        raise ValueError("scale must be positive")
    if bound.is_polynomial:
        return DriftBound(growth_coeffs=tuple(scale * v for v in bound.growth_coeffs),
                          offset=scale * bound.offset)
    return DriftBound(growth_fn=lambda r: scale * bound.growth_fn(r),
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
    ok: bool
    mode: str
    conditions: tuple  # (description, satisfied) pairs

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
    conds = []
    lb, floor = gains.lam * gains.beta, 1.0 / sys.xi1
    conds.append((f"lam*beta = {lb:.6g} >= 1/xi1 = {floor:.6g}", lb >= floor))
    if mode == "descending":
        chain = " > ".join(f"{ci:g}" for ci in gains.c) + " > 1"
        strict = all(gains.c[i] > gains.c[i + 1] for i in range(gains.n - 1))
        conds.append((f"strict descending chain {chain}",
                      strict and gains.c[-1] > 1.0))
    else:
        for i, ci in enumerate(gains.c, start=1):
            conds.append((f"c_{i} = {ci:g} > 1", ci > 1.0))
    if mode == "floors":
        if x0 is None or yr_stack is None:
            raise ValueError("floors mode needs x0 and the reference stack at t=0")
        floors = gain_floors(sys, x0, yr_stack, gains)
        for i, (ci, fl) in enumerate(zip(gains.c, floors), start=1):
            conds.append((f"c_{i} = {ci:g} > max(floor {fl:.6g}, 1)",
                          ci > max(fl, 1.0)))
    ok = all(good for _, good in conds)
    return GainVerdict(ok=ok, mode=mode, conditions=tuple(conds))


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
        out = np.full_like(t, self.overshoot_core + delta_est)
        for wi, h0i, ci in zip(self.envelope_weights, h0_abs, c):
            out = out + wi * abs(h0i) * np.exp(-ci * t)
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
