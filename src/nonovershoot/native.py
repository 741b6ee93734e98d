"""Compiled run loops and CSV kernel: each generated loop written in C as
well, built once with gcc, cached on disk and run through ctypes, with the
Python loop as the exact fallback; and trajectory CSVs rendered by one C
kernel, with a '%.17g' row loop as the exact fallback.

A loop's emitter (``sim._step_source``, ``averaging._averaged_source``)
builds one description of the loop and writes it through a dialect:
``sim.Python`` or ``C`` here.  Both write every tape through
``synth.render``, so the C loop does the Python loop's float operations
in the same order, with the same operands; CPython's ``math`` calls the
C library's ``sin``, ``cos``, ``exp`` and ``pow`` (and float ``**`` its
``pow``), as the C loop does, so on one host the two agree bit for bit.
One binder serves both loops: the Python loop's make returns advance, the
values of the run constants, which the C loop reads in the order that
the description gives both dialects, and the record, one C-contiguous
float64 block of a row of W items per sample, which C reads as rec_ and
into which both loops write item i of sample k at k * W + i.  gcc builds
the C with

* ``-O2``, never ``-ffast-math``, which would reassociate and drop the
  IEEE special cases;
* ``-ffp-contract=off``: no ``a * b + c`` fused into one rounding (an FMA,
  which gcc forms by default wherever the target has one);
* ``-fno-builtin-sin``, ``-cos``, ``-exp``, ``-pow``: every such call is
  the library's own, not a constant folded at build time or a ``sincos``
  merged from a ``sin`` and a ``cos`` of one argument, nor one removed
  where its result is unread.

The C loop raises nothing.  Where the Python loop raises (a gain-floor,
singular-gain or two-term-fsum guard; division by zero; a ``math``
domain or range error, by CPython's own rules; the range check) or where
an invalid, divide-by-zero or overflow flag is set during a step, it
stops before that step commits and returns its index; the run goes on in
the Python loop from there (``run``), so every exception, message, t and
partial record is the Python loop's own.  A loop stays in Python where
its description has what the C dialect does not write (a call tape, such
as an untraceable gain's; a ``call`` stack), where gcc is missing or
fails, and where the cache cannot be written.

A loop is built once the steps that its runs (this one included) have
taken in the process reach _COMPILE_STEPS, about what gcc's one-time cost
would take in Python.  The shared object is cached in _CACHE, a private
directory, under the sha256 of its C text, flags and machine, with the
sha256 of its own bytes appended, so that a truncated or otherwise
corrupt entry is rebuilt, not loaded; entries are written to a
temporary name and renamed into place, so that processes can build at
once.  ``ctypes`` and ``subprocess`` are imported on the first build,
``hashlib`` where an entry is named, checked or built.  What a process
has built, and the steps its loops have run, are kept for the process
under each loop's Python text (``_built``, ``_steps_run``): the rule
counts every run of a loop, whichever plant object or caller it came
from.

``Trajectory.to_csv`` renders its rows through ``csv_lines``: its C
kernel ``lines`` is built, cached and loaded by the same rules, under the
key "to_csv", its count the rows rendered in the process.  It writes
'%.17g''s text in exact integer arithmetic within a window, and the C
library's sprintf outside it (both set out above ``_K_MIN``); where it is
not built, a '%.17g' row loop renders every row, about fifteen times
slower.
"""

import array
import collections
import contextlib
import math
import os
from pathlib import Path

import numpy as np

from . import control
from .model import _STATE_LIMIT, SINGULAR_GAIN
from .synth import _constant

_COMPILE_STEPS = 20_000      # steps a loop's runs take in one process before it is built
_BLOCK_STEPS = 1 << 20       # steps of one call of a C loop (a fraction of a second)
_CACHE = Path.home() / ".cache" / "nonovershoot"
_CC = "gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos",
          "-fno-builtin-exp", "-fno-builtin-pow", "-shared", "-fPIC")

PATHS = collections.deque(maxlen=64)    # (loop, path) of the latest runs: "compiled", "python"


class Untranslatable(Exception):
    """The description holds what the C dialect does not write."""


# the Python forms (``dualnum.Rec``) that C writes, and how
_C_FORMS = {
    "{} + {}": "{} + {}", "{} - {}": "{} - {}", "{} * {}": "{} * {}", "-{}": "-{}",
    "{} / {}": "div_({}, {}, bad_)", "{} ** {}": "pow_({}, {}, bad_)",
    "sin({})": "sin_({}, bad_)", "cos({})": "cos_({}, bad_)", "exp({})": "exp_({}, bad_)",
    "sqrt({})": "sqrt_({}, bad_)", "{} >= 0.0": "{} >= 0.0",
    "if not abs({}) < inf: fsum(({}, {}, ))": "if (!(fabs({}) < INFINITY)) *bad_ = 1;",
    f"if abs({{0}}) < {SINGULAR_GAIN!r}: raise singular_gain({{0}})":
        f"if (fabs({{0}}) < {SINGULAR_GAIN!r}) *bad_ = 1;",
}

# CPython's rules for where float arithmetic and math raise, on which the
# helpers set *bad_: math_1 (Modules/mathmodule.c) for sin, cos, exp and
# sqrt, float_pow (Objects/floatobject.c) for **; and math_fsum's exact
# sum (Shewchuk's partials, then its half-even correction), of which a
# non-finite partial sets *bad_; each term adds at most one partial
_PRELUDE = r"""#include <errno.h>
#include <fenv.h>
#include <math.h>

#define FLAGS_ (FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW)

static double math1_(double r, double x, int *bad_)
{
    if (isnan(r) ? !isnan(x) : isinf(r) && !isinf(x))
        *bad_ = 1;
    return r;
}

static double sin_(double x, int *bad_) { return math1_(sin(x), x, bad_); }
static double cos_(double x, int *bad_) { return math1_(cos(x), x, bad_); }
static double exp_(double x, int *bad_) { return math1_(exp(x), x, bad_); }
static double sqrt_(double x, int *bad_) { return math1_(sqrt(x), x, bad_); }

static double div_(double a, double b, int *bad_)
{
    if (b == 0.0)
        *bad_ = 1;
    return a / b;
}

static int odd_(double w) { return fmod(fabs(w), 2.0) == 1.0; }

static double pow_(double v, double w, int *bad_)
{
    int negate = 0;
    double r;
    if (w == 0.0)
        return 1.0;
    if (isnan(v))
        return v;
    if (isnan(w))
        return v == 1.0 ? 1.0 : w;
    if (isinf(w)) {
        v = fabs(v);
        if (v == 1.0)
            return 1.0;
        return (w > 0.0) == (v > 1.0) ? fabs(w) : 0.0;
    }
    if (isinf(v))
        return w > 0.0 ? (odd_(w) ? v : fabs(v)) : (odd_(w) ? copysign(0.0, v) : 0.0);
    if (v == 0.0) {
        if (w < 0.0)
            *bad_ = 1;
        return odd_(w) ? v : 0.0;
    }
    if (v < 0.0) {
        if (w != floor(w)) {
            *bad_ = 1;
            return NAN;
        }
        v = -v;
        negate = odd_(w);
    }
    if (v == 1.0)
        return negate ? -1.0 : 1.0;
    errno = 0;
    r = pow(v, w);
    if (errno == 0 ? isinf(r) : !(errno == ERANGE && r == 0.0))
        *bad_ = 1;
    return negate ? -r : r;
}

static double fsum_(const double *xs, int count, int *bad_)
{
    double p[count + 1], x, y, t, hi, yr, lo = 0.0;
    int i, j, k, n = 0;
    for (k = 0; k < count; k++) {
        x = xs[k];
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                *bad_ = 1;
                return x;
            }
            p[n++] = x;
        }
    }
    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}
"""


class C:
    """The generated loops' constructs in C (``sim.Python``): the step is
    the body of a loop over k in advance(k, stop, last_, st_, B_, rec_),
    which runs the steps k..stop-1 from the state st_, the run constants in
    B_, writing each sample into row k of the record's block rec_, and
    returns the step where it stopped, st_ then its start state.  Step
    last_ is the last sample, which it records alone, as the Python loop's
    advance(pos, last_ + 1, True) does, and returns last_ + 1 after; the
    floor is not checked there.  An instance writes one loop and keeps the
    names that its lets and unpacks assign, which each function declares."""

    def __init__(self):
        self.assigned = set()

    @staticmethod
    def form(form: str) -> str:
        terms = form.count("{}")
        if form == "fsum((" + "{}, " * terms + "))":
            return f"fsum_((const double[]){{{{{', '.join(['{}'] * terms)}}}}}, {terms}, bad_)"
        try:
            return _C_FORMS[form]
        except KeyError:
            raise Untranslatable(form) from None

    @staticmethod
    def operand(text: str) -> str:
        """A name as it is; a constant as the double that Python computes
        with (an int converted as float() does, exactly or OverflowError)."""
        if text.isidentifier():
            return text
        inner = text.strip("()")
        try:
            value = float(int(inner))
        except ValueError:
            value = _constant(text)
        except OverflowError:
            raise Untranslatable(text) from None
        if math.isnan(value):
            return "NAN"
        if math.isinf(value):
            return "INFINITY" if value > 0 else "(-INFINITY)"
        return f"({value!r})" if value < 0 or math.copysign(1, value) < 0 else repr(value)

    def let(self, v: str, expr: str) -> str:
        self.assigned.add(v)
        return f"{v} = {expr};"

    @staticmethod
    def floor_check(g: str, state: str, first: bool) -> str:
        return f"if ({g} * {g} < floor{' && k != last_' * first}) *bad_ = 1;"

    @staticmethod
    def record(row) -> list:
        """The sample's lines; at the last sample the loop ends there, one
        step on where nothing was flagged."""
        return [*(f"rec_[k * {len(row)}{f' + {i}' * bool(i)}] = {v};" for i, v in enumerate(row)),
                "if (k == last_) {", "    k += !(*bad_ || fetestexcept(FLAGS_));", "    break;",
                "}"]

    def node(self, name: str, params, body, outs) -> list:
        args = "".join(f"double {p}, " for p in params)
        return self._function(
            f"static void {name}(const double *B_, int *bad_, {args}double *out_)", params,
            [*body, *(f"out_[{i}] = {o};" for i, o in enumerate(outs))])

    def _function(self, head: str, params, body) -> list:
        """The function head over params: the run constants, the names the
        loop assigns (params aside), then body."""
        local = sorted(self.assigned - set(params))
        return [head, "{", "    RUN_CONSTANTS_", *[f"    double {', '.join(local)};"] * bool(local),
                *(f"    {v}" for v in body), "}", ""]

    @staticmethod
    def call(name: str, args: str) -> str:
        return f"{name}(B_, bad_, {args}kk_)"

    def unpack(self, targets, call: str) -> str:
        self.assigned.update(targets)
        return " ".join([f"{call};", *(f"{v} = kk_[{i}];" for i, v in enumerate(targets))])

    @staticmethod
    def stack_call(targets, name: str, T: str) -> str:
        raise Untranslatable(f"a call of the stack {name}")

    @staticmethod
    def branch(cond: str, then, other) -> list:
        return [f"if ({cond}) {{", *(f"    {v}" for v in then), "} else {",
                *(f"    {v}" for v in other), "}"]

    def source(self, params: str, setup: list, consts: list, defs: list, m: int, n: int,
               step: list, cause: str, row) -> str:
        """The C text.  B_ holds the run constants consts, in order, and
        rec_ the record, as the Python make returns them (whose source
        allocates it, a row of len(row) items per sample)."""
        in_range = " && ".join(f"fabs(n{i}) <= {_STATE_LIMIT!r}" for i in range(m))
        loop = self._function(
            "long advance(long k, long stop, long last_, double *st_, const double *B_, "
            "double *rec_)", (),
            [f"double {', '.join(f's{i} = st_[{i}]' for i in range(m))};",
             f"double kk_[{m}];", "int failed_ = 0, *bad_ = &failed_;", "fexcept_t saved_;",
             "fegetexceptflag(&saved_, FLAGS_);", "feclearexcept(FLAGS_);",
             "for (; k < stop; k++) {", *(f"    {v}" for v in step),
             f"    if (!({in_range}) || *bad_ || fetestexcept(FLAGS_))", "        break;",
             *(f"    s{i} = n{i};" for i in range(m)), "}",
             *(f"st_[{i}] = s{i};" for i in range(m)), "fesetexceptflag(&saved_, FLAGS_);",
             "return k;"])
        slots = ", ".join(f"{v} = B_[{i}]" for i, v in enumerate(consts))
        return "\n".join([_PRELUDE, f"#define RUN_CONSTANTS_ const double {slots};", "", *defs,
                          *loop])


# --- building and running -----------------------------------------------------------

_steps_run = {}      # Python loop text, or "to_csv" -> steps (rows) it took in this process
_built = {}          # the same keys -> the C function, or None where it stays in Python
_forced = None       # "compiled" or "python": the path every run takes (``forced``)


@contextlib.contextmanager
def forced(path: str):
    """Every run in the block takes path: "python", or "compiled" wherever
    the loop can be built, however few its steps.  For tests."""
    global _forced
    saved, _forced = _forced, path
    try:
        yield
    finally:
        _forced = saved


def _compiled(key: str, count: int, build):
    """The compiled form of key (a Python loop's text, or "to_csv"), built
    by build() once the steps or rows that it has taken in the process,
    count of them in this call, reach _COMPILE_STEPS, or where forced;
    None where it stays in Python."""
    total = _steps_run[key] = _steps_run.get(key, 0) + count
    if _forced == "python":
        return None
    if key not in _built and (total >= _COMPILE_STEPS or _forced == "compiled"):
        _built[key] = build()
    return _built.get(key)


def _run_c(fn, start, nsteps: int, consts, record):
    """Steps 0..nsteps-1 and the last sample of the C advance fn from start
    into the block record, each as the Python loop takes it: [k, state, k]
    where it stopped, k = nsteps + 1 unless step k (the last sample, where
    k = nsteps) is for the Python loop to take; [0, start, 0] where a run
    constant (of consts, their values) is past the float range."""
    from ctypes import c_double
    try:
        vals = array.array("d", consts)
    except OverflowError:
        return [0, start, 0]
    st = array.array("d", start)
    args = (c_double.from_buffer(st), c_double.from_buffer(vals), c_double.from_buffer(record))
    k = stop = 0
    while k == stop <= nsteps:      # in blocks, so that a signal is seen between them
        stop = min(stop + _BLOCK_STEPS, nsteps + 1)
        k = fn(k, stop, nsteps, *args)
    return [k, tuple(st), k] if k else [0, start, 0]


def run(loop, emit, start, nsteps: int, consts, record):
    """Run steps 0..nsteps-1 and the last sample of loop (``sim._Loop``) on
    its run constants' values consts, into the block record that its make
    allocated, in C where it is built or, once its steps reach
    _COMPILE_STEPS, can be built from its description emit(C()); record the
    path taken in PATHS.  Returns [k, state, rows]: the step from which the
    Python loop takes over (nsteps + 1 if none is left to it), that step's
    start state and the rows written, k; [0, start, 0] if C ran none."""
    fn = _compiled(loop.text, nsteps, lambda: _build(emit))
    pos = [0, start, 0] if fn is None else _run_c(fn, start, nsteps, consts, record)
    PATHS.append((loop.label, "python" if fn is None else "compiled" if pos[0] > nsteps
                  else f"compiled to step {pos[0]}, then python"))
    return pos


def c_source(emit):
    """The C text of emit's description, None where it stays in Python."""
    try:
        return emit(C())
    except Untranslatable:
        return None


def libm_fingerprint() -> str:
    """The sha256 of math.sin, math.cos and math.exp over a fixed argument
    set, each result's 8 bytes in turn: sin and cos of the 50 s demo's
    reference and dither phases (0.4 t, and 60 t, 240 t and 960 t, at
    every RK4 node time t, t + dt/2 and t + dt of its 1 ms grid), exp of
    -2 t and -1.5 t there and of 20 001 points across [-700, 700].  Two
    hosts whose C libraries differ in a last bit of any of these print
    different fingerprints, and their runs may differ as much."""
    import hashlib
    dt = 1e-3
    times = [v for k in range(50_000) for t in (k * dt,) for v in (t, t + dt / 2, t + dt)]
    phases = [rate * t for rate in (0.4, 60.0, 240.0, 960.0) for t in times]
    exponents = [-c * t for c in (2.0, 1.5) for t in times] \
        + [k / 100 - 700 for k in range(0, 140_001, 7)]
    out = hashlib.sha256()
    for fn, args in ((math.sin, phases), (math.cos, phases), (math.exp, exponents)):
        out.update(array.array("d", map(fn, args)).tobytes())
    return out.hexdigest()


# --- rendering trajectory CSVs --------------------------------------------------------
#
# The C kernel ``lines`` writes each float as '%.17g' does (``sim.fmt``).
# For a finite x whose 17 digits have decimal exponent k in
# [_K_MIN, _K_MAX] (_CSV_LO <= |x| < _CSV_HI, about 1e-39 to 1e17), that is
# the 17-digit integer D = round-half-even(|x| * 10**j), j = 16 - k, with
# its trailing zeros dropped.  With |x| = M * 2**(e - 1075), M the 53-bit
# significand and e the biased exponent, D = round(M * F_j / 2**r) exactly,
# where F_j = 5**j * 2**s_j is 5**j (< 2**128 up to j = 55) shifted into
# [2**127, 2**128) and r = s_j - j + 1075 - e falls in [123, 127]: the
# 181-bit product is formed in two unsigned __int128 halves.  k itself is
# read off the binary exponent, since a binade holds at most one decimal
# edge.  The text is then laid out as '%.17g' lays it out: the integer
# digits and the dot (k >= 0), "0." and -k - 1 zeros (-4 <= k < 0), or one
# digit, the dot and "e-XX" (k < -4).  ±0 has a text of its own, and so
# has NaN: "nan" whatever its sign, as fmt writes it.  Every other value
# (infinities, subnormals, huge or tiny magnitudes) the C library's
# sprintf writes with '%.17g', in the C locale, which glibc, as Python,
# rounds correctly.

_K_MIN = 16 - max(j for j in range(128) if 5 ** j < 1 << 128)
_K_MAX = 16
_CELL = 40           # bytes the kernel may store from a cell's start (it keeps 25 at most)


def _csv_edge(k: int) -> float:
    """The least double whose 17 digits have decimal exponent k or more."""
    v = float(f"1e{k}")
    return v if int(f"{v:.16e}"[-3:]) >= k else math.nextafter(v, math.inf)


_CSV_LO, _CSV_HI = _csv_edge(_K_MIN), _csv_edge(_K_MAX + 1)

_CSV_KERNEL = r"""typedef unsigned __int128 u128_;

static void eight_(char *o, unsigned v)
{
    unsigned a = v / 10000, b = v % 10000;
    memcpy(o, D2_ + 2 * (a / 100), 2);
    memcpy(o + 2, D2_ + 2 * (a % 100), 2);
    memcpy(o + 4, D2_ + 2 * (b / 100), 2);
    memcpy(o + 6, D2_ + 2 * (b % 100), 2);
}

/* Write the cell of x, '%.17g''s text and a comma, at o; return its end.
   A cell stores at most 35 bytes from its start, and keeps at most 25. */
static char *cell_(char *o, double x)
{
    char dg[33];
    double ax = fabs(x);
    unsigned long long bits, man, d, rest, half;
    u128_ lo, hi;
    int e, kk, k, r, nd;
    memcpy(&bits, &x, sizeof bits);
    if (ax == 0.0) {
        *o = '-';
        o += bits >> 63;
        memcpy(o, "0,", 2);
        return o + 2;
    }
    if (!(ax >= LO_ && ax < HI_)) {
        if (isnan(x)) {
            memcpy(o, "nan,", 4);
            return o + 4;
        }
        return o + sprintf(o, "%.17g,", x);
    }
    *o = '-';
    o += bits >> 63;
    e = (int)(bits >> 52 & 0x7ff);
    kk = BINADE_K_[e - E0_] + (ax >= BINADE_EDGE_[e - E0_]);
    man = (bits & 0xfffffffffffffULL) | 1ULL << 52;
    lo = (u128_)man * F_[kk][1];
    hi = (u128_)man * F_[kk][0] + (lo >> 64);
    r = R_[kk] - e;                     /* the bits of hi below D's, 59..63 */
    d = (unsigned long long)(hi >> r);
    rest = (unsigned long long)hi & ((1ULL << r) - 1);
    half = 1ULL << (r - 1);
    if (rest > half || (rest == half && ((unsigned long long)lo != 0 || d & 1)))
        d++;
    dg[0] = (char)('0' + d / 10000000000000000ULL);
    d %= 10000000000000000ULL;
    eight_(dg + 1, (unsigned)(d / 100000000));
    eight_(dg + 9, (unsigned)(d % 100000000));
    for (nd = 17; dg[nd - 1] == '0'; nd--)
        ;
    k = kk + K_MIN_;
    if (k >= 0) {                       /* k + 1 integer digits, then the dot */
        memcpy(o, dg, 17);
        o[k + 1] = '.';
        memcpy(o + k + 2, dg + k + 1, 16);
        o += nd > k + 1 ? nd + 1 : k + 1;
    } else if (k >= -4) {               /* "0.", -k - 1 zeros, the digits */
        memcpy(o, "0.000", 5);
        memcpy(o + 1 - k, dg, 17);
        o += 1 - k + nd;
    } else {                            /* one digit, the dot, "e-" and -k */
        o[0] = dg[0];
        o[1] = '.';
        memcpy(o + 2, dg + 1, 16);
        o += nd > 1 ? nd + 1 : 1;
        memcpy(o, "e-", 2);
        memcpy(o + 2, D2_ + 2 * -k, 2);
        o += 4;
    }
    *o = ',';
    return o + 1;
}

/* Write the rows row..stop-1, m floats (column j at cols[j], steps[j]
   bytes apart) and a mode label each, into out; return the bytes
   written.  The thread runs in the C locale meanwhile, so that sprintf
   writes the decimal point '.' whatever setlocale set, as Python does. */
long lines(const char *const *cols, const long *steps, long m, const signed char *mode,
           long row, long stop, char *out)
{
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0), was = uselocale(c_locale);
    char *o = out;
    double x;
    long c;
    for (; row < stop; row++) {
        for (c = 0; c < m; c++) {
            memcpy(&x, cols[c] + row * steps[c], sizeof x);
            o = cell_(o, x);
        }
        memcpy(o, LABEL_[mode[row] + 1], sizeof LABEL_[0]);
        o += LABEL_SIZE_[mode[row] + 1];
    }
    uselocale(was);
    if (c_locale)
        freelocale(c_locale);
    return o - out;
}
"""


def _csv_source() -> str:
    """The kernel's C text, its tables written in: per binade of the
    window, k - _K_MIN of its least double and its decimal edge (inf where
    it has none); per k, F_j's two 64-bit halves and s_j - j + 1075 - 64;
    the two-digit pairs; the mode labels, each ending its line."""
    import bisect
    edges = [_csv_edge(k) for k in range(_K_MIN, _K_MAX + 2)]
    e0, e1 = (math.frexp(v)[1] + 1022 for v in (_CSV_LO, _CSV_HI))
    kb, edge = [], []
    for e in range(e0, e1 + 1):
        low = math.ldexp(1.0, e - 1023)
        kb.append(bisect.bisect_right(edges, low) - 1)
        edge.append(edges[kb[-1] + 1] if edges[kb[-1] + 1] < 2 * low else math.inf)
    f, r = [], []
    for j in range(16 - _K_MIN, 16 - _K_MAX - 1, -1):
        s = 128 - (5 ** j).bit_length()
        f.append(f"{{{(5 ** j << s) >> 64:#x}ULL, {(5 ** j << s) & (1 << 64) - 1:#x}ULL}}")
        r.append(s - j + 1075 - 64)
    labels = [control.MODE_LABELS[mode] for mode in (-1, 0, 1)]
    return "\n".join([
        "#include <locale.h>", "#include <math.h>", "#include <stdio.h>", "#include <string.h>",
        "",
        f"#define K_MIN_ {_K_MIN}", f"#define E0_ {e0}",
        f"static const double LO_ = {_CSV_LO.hex()}, HI_ = {_CSV_HI.hex()};",
        f"static const int BINADE_K_[] = {{{', '.join(map(str, kb))}}};",
        "static const double BINADE_EDGE_[] = {"
        + ", ".join("INFINITY" if v == math.inf else v.hex() for v in edge) + "};",
        f"static const unsigned long long F_[][2] = {{{', '.join(f)}}};",
        f"static const int R_[] = {{{', '.join(map(str, r))}}};",
        f'static const char D2_[] = "{"".join(f"{i:02d}" for i in range(100))}";',
        "static const char LABEL_[][16] = {" + ", ".join(f'"{v}\\n"' for v in labels) + "};",
        f"static const long LABEL_SIZE_[] = {{{', '.join(str(len(v) + 1) for v in labels)}}};",
        _CSV_KERNEL])


def _build_csv():
    """The kernel's lines, from the cache or built into it; None where it
    cannot be built or loaded."""
    fn = _load(_csv_source(), "lines")
    if fn is not None:
        import ctypes
        fn.restype = ctypes.c_long
        fn.argtypes = (ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_long),
                       ctypes.c_long, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                       ctypes.c_char_p)
    return fn


def csv_lines(cols, mode, block: int) -> list:
    """The CSV lines of the float columns cols and of the mode column mode,
    all of one length: each float as ``sim.fmt`` writes it, then the row's
    mode label; as strings of at most block rows each.  The C kernel
    renders them where it is built or, once the rows rendered in the
    process (these included) reach _COMPILE_STEPS, can be built; else the
    '%.17g' row loop does.  The path taken goes to PATHS.  ValueError for
    a mode other than -1, 0 or 1 and for columns of unequal length."""
    mode = np.asarray(mode)
    if not ((mode == -1) | (mode == 0) | (mode == 1)).all():
        raise ValueError("mode column holds values other than -1, 0 and 1")
    mode = np.ascontiguousarray(mode, np.int8)
    cols = [np.asarray(col, dtype=float) for col in cols]
    if mode.ndim != 1 or any(col.shape != mode.shape for col in cols):
        raise ValueError("columns of unequal length")
    fn = _compiled("to_csv", len(mode), _build_csv)
    PATHS.append(("to_csv", "python" if fn is None else "compiled"))
    m, rows = len(cols), len(mode)
    parts = []
    if fn is None:
        line = ",".join(["%.17g"] * m) + ",%s\n"
        for a in range(0, rows, block):
            labels = [control.MODE_LABELS[v] for v in mode[a:a + block].tolist()]
            parts.append("".join([line % row for row in zip(
                *(col[a:a + block].tolist() for col in cols), labels)]))
        return parts
    import ctypes
    data = (ctypes.c_void_p * m)(*(col.ctypes.data for col in cols))
    steps = (ctypes.c_long * m)(*(col.strides[0] for col in cols))
    modes = mode.ctypes.data
    buf = bytearray(block * (m + 1) * _CELL)
    out, view = (ctypes.c_char * len(buf)).from_buffer(buf), memoryview(buf)
    for a in range(0, rows, block):
        size = fn(data, steps, m, modes, a, min(a + block, rows), out)
        parts.append(str(view[:size], "ascii"))
    return parts


def _build(emit):
    """The C advance of emit's description, from the cache or built into
    it; None where it stays in Python."""
    fn = _load(c_source(emit), "advance")
    if fn is not None:
        import ctypes
        fn.restype = ctypes.c_long
        double = ctypes.POINTER(ctypes.c_double)
        fn.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_long, double, double, double)
    return fn


def _load(text, name: str):
    """The function name of the C text, from the cache or built into it;
    None where text is None or it cannot be built or loaded."""
    cache = None if text is None else _cache_dir()
    if cache is None:
        return None
    path = cache / _entry_name(text)
    if not _intact(path) and not _compile(text, path, cache):
        return None
    import ctypes
    try:
        return getattr(ctypes.CDLL(str(path)), name)
    except OSError:
        return None


def _entry_name(text: str) -> str:
    """The cache entry of the C text: the sha256 of it, the flags and the
    machine."""
    import hashlib
    return hashlib.sha256("\0".join([text, *_FLAGS, os.uname().machine]).encode()).hexdigest() \
        + ".so"


def _cache_dir():
    """_CACHE, made if need be; None unless it is this user's alone and
    writable."""
    try:
        _CACHE.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = _CACHE.stat()
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022 or not os.access(_CACHE, os.W_OK):
        return None
    return _CACHE


def _intact(path: Path) -> bool:
    """Whether the cache entry path is there, its last 32 bytes the sha256
    of the rest."""
    import hashlib
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def _compile(text: str, path: Path, cache: Path) -> bool:
    """Build text into the cache entry path; False if it cannot be built
    or written.  gcc works in a temporary directory in the cache, removed
    afterwards, and the entry is renamed into place."""
    import hashlib
    import shutil
    import subprocess
    import tempfile
    try:
        work = tempfile.mkdtemp(prefix=".build-", dir=cache)
    except OSError:
        return False
    try:
        src, obj, entry = (os.path.join(work, name) for name in ("loop.c", "loop.so", "entry"))
        with open(src, "w") as f:
            f.write(text)
        done = subprocess.run([_CC, *_FLAGS, "-o", obj, src], capture_output=True,
                              env={**os.environ, "TMPDIR": work}, timeout=300)
        if done.returncode != 0:
            return False
        with open(obj, "rb") as f:
            data = f.read()
        with open(entry, "wb") as f:
            f.write(data + hashlib.sha256(data).digest())
        os.replace(entry, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(work, ignore_errors=True)
