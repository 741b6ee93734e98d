"""Exact forward-mode differentiation: dual numbers and truncated Taylor
series.

The stabilizing-function recursion consumes derivatives of the previous
stage, so derivatives must be exact; finite differences would compound
error through the recursion.

* ``Dual``: first-order dual numbers.  Components may themselves be
  ``Dual`` (nested seeding), which yields exact mixed partials; this is
  the explicit-partials path behind ``synth.virtual_controllers``.
* ``Jet``: a truncated Taylor series in time (Taylor-mode AD, Griewank &
  Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  The synthesis pass
  evaluates the drifts on jets to get every time derivative along the
  drift flow in one sweep.

Both types set ``__array_ufunc__ = None`` so that a numpy scalar on the
left (``np.float64 * x``) hands the operation to the reflected method
instead of wrapping it in an object-array ufunc.
"""

import math
from operator import add as _add, sub as _sub


class Dual:
    """Number of the form a + b*eps with eps^2 = 0; a and b may nest."""

    __slots__ = ("re", "eps")
    __array_ufunc__ = None

    def __init__(self, re, eps=0.0):
        self.re = re
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.re!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        return Dual(self.re + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.eps - other.eps)
        return Dual(self.re - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)
        return Dual(self.re * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re / other.re,
                        (self.eps * other.re - self.re * other.eps) / (other.re * other.re))
        return Dual(self.re / other, self.eps / other)

    def __rtruediv__(self, other):
        return Dual(other / self.re, -other * self.eps / (self.re * self.re))

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __pow__(self, k):
        return _power(self, k, lambda: Dual(_one_like(self.re), 0.0))


class Jet:
    """Truncated Taylor series c[0] + c[1] s + ... + c[L-1] s^(L-1).

    Binary operations keep the shorter length, since the coefficients past
    it are unknown; a plain number acts as a constant series.  Scalars are
    converted with ``float``, so mixing a jet with a ``Dual`` raises
    ``TypeError`` instead of nesting silently.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None

    def __init__(self, c):
        self.c = c

    def __repr__(self):
        return f"Jet({self.c!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(list(map(_add, self.c, other.c)))
        c = self.c[:]
        c[0] += float(other)
        return Jet(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(list(map(_sub, self.c, other.c)))
        c = self.c[:]
        c[0] -= float(other)
        return Jet(c)

    def __rsub__(self, other):
        a = self.c
        return Jet([float(other) - a[0]] + [-p for p in a[1:]])

    def __mul__(self, other):
        a = self.c
        if isinstance(other, Jet):
            b = other.c
            out = []
            for m in range(min(len(a), len(b))):
                acc = a[0] * b[m]
                for j in range(1, m + 1):
                    acc += a[j] * b[m - j]
                out.append(acc)
            return Jet(out)
        s = float(other)
        return Jet([p * s for p in a])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return Jet(_series_div(self.c, other.c))
        s = float(other)
        return Jet([p / s for p in self.c])

    def __rtruediv__(self, other):
        b = self.c
        return Jet(_series_div([float(other)] + [0.0] * (len(b) - 1), b))

    def __neg__(self):
        return Jet([-p for p in self.c])

    def __pow__(self, k):
        return _power(self, k, lambda: Jet([1.0] + [0.0] * (len(self.c) - 1)))


def _power(x, k, one):
    """x**k by repeated multiplication; one() builds x**0."""
    if not isinstance(k, int) or k < 0:
        raise TypeError(f"{type(x).__name__} supports nonnegative integer powers only")
    if k == 0:
        return one()
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _series_div(a, b):
    """Coefficients of a/b: q[m] = (a[m] - sum_{j>=1} b[j] q[m-j]) / b[0]."""
    out = []
    for m in range(min(len(a), len(b))):
        acc = a[m]
        for j in range(1, m + 1):
            acc -= b[j] * out[m - j]
        out.append(acc / b[0])
    return out


def _sin_cos_series(a):
    """Coefficients of sin(a) and cos(a) from s' = a' c, c' = -a' s."""
    s, c = [math.sin(a[0])], [math.cos(a[0])]
    for m in range(1, len(a)):
        ds = dc = 0.0
        for j in range(1, m + 1):
            ds += j * a[j] * c[m - j]
            dc += j * a[j] * s[m - j]
        s.append(ds / m)
        c.append(-dc / m)
    return s, c


def _one_like(v):
    return 1.0 if not isinstance(v, Dual) else Dual(_one_like(v.re), 0.0)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.re), cos(x.re) * x.eps)
    if isinstance(x, Jet):
        return Jet(_sin_cos_series(x.c)[0])
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.eps)
    if isinstance(x, Jet):
        return Jet(_sin_cos_series(x.c)[1])
    return math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.eps)
    if isinstance(x, Jet):
        # e' = a' e  =>  e[m] = (1/m) sum_j j a[j] e[m-j]
        a = x.c
        e = [math.exp(a[0])]
        for m in range(1, len(a)):
            acc = 0.0
            for j in range(1, m + 1):
                acc += j * a[j] * e[m - j]
            e.append(acc / m)
        return Jet(e)
    return math.exp(x)


def value(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.re
    return x


def partial(f, args, slot):
    """Exact d f / d args[slot], where f maps a sequence to a scalar.

    Every argument already carrying dual layers is lifted into the new
    (outermost) layer before seeding, so nested calls keep their
    directions distinct.  For that to be sound, f must read every
    differentiation-relevant input from ``args``; dual-carrying values
    captured from an enclosing scope would bypass the lift.
    """
    seeded = [Dual(a, 0.0) if isinstance(a, Dual) else a for a in args]
    seeded[slot] = Dual(args[slot], 1.0)
    out = f(seeded)
    return out.eps if isinstance(out, Dual) else 0.0
