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
* ``Rec``: a recording scalar.  Run through code in place of a float, it
  records each operation as a format and its operands (taping turned
  into source transformation, ibid. ch. 5); ``synth.plant_tapes`` traces
  each plant's synthesis pass this way, ``synth.trace`` each control
  law's kernel, and the generated run loops write those tapes out.

All three types set ``__array_ufunc__ = None`` so that a numpy scalar on
the left (``np.float64 * x``) hands the operation to the reflected method
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


class Rec:
    """Stand-in for a float that records instead of computing.

    Each ``+ - * /``, unary minus, ``**``, ``sin``/``cos``/``exp``/``sqrt``
    and ``fsum`` on a Rec appends one entry ``(name, form, operands,
    may_raise)`` to the shared ``tape`` and returns the Rec of its result
    (``nonnegative`` its ``>= 0.0``), and ``guard`` its guard statement, so
    the tape lists the operations in the order they ran.  form is the
    source with ``{}`` for each operand (``"{} * {}"``), operands their
    texts: recorded names, and constants, which must be Python ints or
    floats (numpy float64 included).  Anything that needs the value
    (``float``, ``bool``, a comparison, numpy arrays) raises ``TypeError``:
    a completed trace has no branch on the inputs and holds for all of them.
    """

    __slots__ = ("tape", "name")
    __array_ufunc__ = None

    def __init__(self, tape, name):
        self.tape = tape
        self.name = name

    def __repr__(self):
        return f"Rec({self.name!r})"

    def __add__(self, other):
        return _record("{} + {}", self, other)

    def __radd__(self, other):
        return _record("{} + {}", other, self)

    def __sub__(self, other):
        return _record("{} - {}", self, other)

    def __rsub__(self, other):
        return _record("{} - {}", other, self)

    def __mul__(self, other):
        return _record("{} * {}", self, other)

    def __rmul__(self, other):
        return _record("{} * {}", other, self)

    def __truediv__(self, other):
        return _record("{} / {}", self, other,
                       may_raise=isinstance(other, Rec) or not other)

    def __rtruediv__(self, other):
        return _record("{} / {}", other, self, may_raise=True)

    def __neg__(self):
        return _record("-{}", self)

    def __pow__(self, k):
        # float ** is libm pow, which repeated multiplication does not equal
        return _record("{} ** {}", self, k, may_raise=True)

    def _needs_value(self, *args, **kwargs):
        raise TypeError("a recorded value has no value while tracing")

    __float__ = __bool__ = __array__ = _needs_value
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _needs_value
    __hash__ = None


def _operand(v):
    """Source text of a recorded operand."""
    if isinstance(v, Rec):
        return v.name
    if not isinstance(v, (int, float)):
        raise TypeError(f"cannot record an operation with {type(v).__name__}")
    text = repr(int(v) if isinstance(v, int) else float(v))   # numpy 2 reprs carry the type
    return f"({text})" if text.startswith("-") else text


def _record(form, *args, may_raise=False):
    """Append the operation form over args, as (name, form, the texts of
    args, may_raise), to the tape of its Rec operand(s).  may_raise marks
    an operation that can raise on some input (division by a variable,
    pow, the math functions, fsum, a guard); it is kept even when unused,
    so that compiled code raises where the traced code does."""
    tape = next(a.tape for a in args if isinstance(a, Rec))
    name = f"v{len(tape)}"
    tape.append((name, form, tuple(map(_operand, args)), may_raise))
    return Rec(tape, name)


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
    s, c = [sin(a[0])], [cos(a[0])]
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
    if isinstance(x, Rec):
        return _record("sin({})", x, may_raise=True)
    return math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.re), -sin(x.re) * x.eps)
    if isinstance(x, Jet):
        return Jet(_sin_cos_series(x.c)[1])
    if isinstance(x, Rec):
        return _record("cos({})", x, may_raise=True)
    return math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.re)
        return Dual(e, e * x.eps)
    if isinstance(x, Jet):
        # e' = a' e  =>  e[m] = (1/m) sum_j j a[j] e[m-j]
        a = x.c
        e = [exp(a[0])]
        for m in range(1, len(a)):
            acc = 0.0
            for j in range(1, m + 1):
                acc += j * a[j] * e[m - j]
            e.append(acc / m)
        return Jet(e)
    if isinstance(x, Rec):
        return _record("exp({})", x, may_raise=True)
    return math.exp(x)


def sqrt(x):
    if isinstance(x, Rec):
        return _record("sqrt({})", x, may_raise=True)
    return math.sqrt(x)


def fsum(values):
    """math.fsum of the sequence values; one recorded fsum if one is a Rec.
    Two values are recorded as (0.0 + a) + b, which is their fsum bit for
    bit wherever that is finite (the exact sum rounded once; the leading
    0.0 maps -0.0 + -0.0 to fsum's +0.0), then the guard statement
    ``if not abs(s) < inf: fsum((a, b, ))``, which calls fsum only where
    the sum is not finite, so that it raises exactly where fsum does (an
    overflow, inf - inf); where fsum gives inf or nan, so does s."""
    if Rec not in map(type, values):
        return math.fsum(values)
    if len(values) == 2:
        a, b = values
        s = (0.0 + a) + b
        _record("if not abs({}) < inf: fsum(({}, {}, ))", s, a, b, may_raise=True)
        return s
    return _record("fsum((" + "{}, " * len(values) + "))", *values, may_raise=True)


def guard(x, bound: float, error):
    """x, unless abs(x) < bound (NaN passes): then raise error(x).  On a Rec,
    records the statement ``if abs(x) < bound: raise <error.__name__>(x)``."""
    if isinstance(x, Rec):
        _record(f"if abs({{0}}) < {bound!r}: raise {error.__name__}({{0}})", x, may_raise=True)
    elif abs(x) < bound:
        raise error(x)
    return x


def nonnegative(x):
    """x >= 0.0 (NaN is not).  On a Rec, records ``{} >= 0.0``, a condition
    that the code writing the tape out tests."""
    return _record("{} >= 0.0", x) if isinstance(x, Rec) else x >= 0.0


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
