"""Compiled run loops: each generated loop written in C as well, built once
with gcc, cached on disk and run through ctypes, with the Python loop as
the exact fallback.

A loop's emitter (``sim._step_source``, ``averaging._averaged_source``)
builds one description of the loop and writes it through a dialect:
``sim.Python`` or ``C`` here.  Both write every tape through
``synth.render``, so the C loop does the Python loop's float operations
in the same order, with the same operands; CPython's ``math`` calls the
C library's ``sin``, ``cos``, ``exp`` and ``pow`` (and float ``**`` its
``pow``), as the C loop does, so on one host the two agree bit for bit.
One binder serves both loops: the Python loop's make returns advance, the
values of the run constants, which the C loop reads in the order that
the description gives both dialects, and the record, the arrays that it
allocates from the description's row, into which both loops write each
sample at its step's index, each column's width compiled in.  gcc builds
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
as an untraceable gain's; a ``call`` stack; an fsum of more than
_FSUM_TERMS terms), where gcc is missing or fails, and where the cache
cannot be written.

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
"""

import array
import collections
import contextlib
import math
import os
from pathlib import Path

from . import sim
from .model import SINGULAR_GAIN
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

_FSUM_TERMS = 64     # terms of the longest fsum the C writes (its partials' room)

_C_TYPES = {"d": "double", "b": "signed char"}      # of the record's struct codes

# CPython's rules for where float arithmetic and math raise, on which the
# helpers set *bad_: math_1 (Modules/mathmodule.c) for sin, cos, exp and
# sqrt, float_pow (Objects/floatobject.c) for **; and math_fsum's exact
# sum (Shewchuk's partials, then its half-even correction), of which a
# non-finite partial sets *bad_
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
    double p[64], x, y, t, hi, yr, lo = 0.0;
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
    the body of a loop over k in advance(k, stop, st_, B_, cols_), which
    runs the steps k..stop-1 from the state st_, the run constants in B_,
    writing each sample into the record's arrays cols_, and returns the
    step where it stopped, st_ then its start state.  It never records the
    last sample alone: the Python loop does that.  An instance writes one
    loop and keeps the names that its lets and unpacks assign, which each
    function declares."""

    def __init__(self):
        self.assigned = set()

    @staticmethod
    def form(form: str) -> str:
        terms = form.count("{}")
        if form == "fsum((" + "{}, " * terms + "))" and terms <= _FSUM_TERMS:
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
        return f"if ({g} * {g} < floor) *bad_ = 1;"

    @staticmethod
    def record(row) -> list:
        return [f"(({_C_TYPES[row[j][0]]} *)cols_[{j}])[{index}] = {v};"
                for j, index, v in sim._cells(row)]

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
        cols_ the record's arrays, as the Python make returns them (whose
        source allocates them from row)."""
        in_range = " && ".join(f"fabs(n{i}) <= {sim._STATE_LIMIT!r}" for i in range(m))
        loop = self._function(
            "long advance(long k, long stop, double *st_, const double *B_, void **cols_)", (),
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

_steps_run = {}      # Python loop text -> steps its runs took in this process
_built = {}          # Python loop text -> its C advance, or None where it stays in Python
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


def _run_c(fn, start, nsteps: int, consts, record):
    """Steps 0..nsteps-1 of the C advance fn from start into the arrays
    record, each as the Python loop takes it: [k, state, k] where it
    stopped, k = nsteps unless step k is for the Python loop to take;
    [0, start, 0] where a run constant (of consts, their values) is past
    the float range."""
    import ctypes
    try:
        vals = (ctypes.c_double * len(consts))(*consts)
    except OverflowError:
        return [0, start, 0]
    st = (ctypes.c_double * len(start))(*start)
    cols = (ctypes.c_void_p * len(record))(*(a.ctypes.data for a in record))
    k = stop = 0
    while k == stop < nsteps:       # in blocks, so that a signal is seen between them
        stop = min(stop + _BLOCK_STEPS, nsteps)
        k = fn(k, stop, st, vals, cols)
    return [k, tuple(st), k] if k else [0, start, 0]


def run(loop, emit, start, nsteps: int, consts, record):
    """Run steps 0..nsteps-1 of loop (``sim._Loop``) on its run constants'
    values consts, into the arrays record that its make allocated, in C
    where it is built or, once its steps reach _COMPILE_STEPS, can be
    built from its description emit(C()); record the path taken in PATHS.
    Returns [k, state, rows]: the step from which the Python loop takes
    over, that step's start state and the rows written, k; [0, start, 0]
    if C ran none."""
    text = loop.text
    total = _steps_run[text] = _steps_run.get(text, 0) + nsteps
    fn = None
    if _forced != "python":
        if text not in _built and (total >= _COMPILE_STEPS or _forced == "compiled"):
            _built[text] = _build(emit)
        fn = _built.get(text)
    pos = [0, start, 0] if fn is None else _run_c(fn, start, nsteps, consts, record)
    PATHS.append((loop.label, "python" if fn is None else "compiled" if pos[0] == nsteps
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


def _build(emit):
    """The C advance of emit's description, from the cache or built into
    it; None where it stays in Python."""
    text = c_source(emit)
    cache = None if text is None else _cache_dir()
    if cache is None:
        return None
    path = cache / _entry_name(text)
    if not _intact(path) and not _compile(text, path, cache):
        return None
    import ctypes
    try:
        fn = ctypes.CDLL(str(path)).advance
    except OSError:
        return None
    fn.restype = ctypes.c_long
    fn.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.POINTER(ctypes.c_double),
                   ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_void_p))
    return fn


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
