#!/usr/bin/env python3
"""Benchmark of the nonovershoot simulator.

    python3 bench/run_bench.py --workload demo_suite --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all``, each in a process of its own) as
closed-loop passes through the public API, checks every output, and prints
every metric with its unit.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--self-test`` shows that the
output checks report a perturbed recorded value and a wrong law.
See bench/README.md for the workloads and metrics.
"""

import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # one thread: the workloads are serial

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import CALLBACKS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, OPERATIONS, WORKLOADS  # noqa: E402

_now = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
TRACE_OUT = ROOT / ".bench_out"

MIN_PASSES = 3           # untraced passes per run, at the least
MIN_TRACED_PAIRS = 2     # (untraced, traced) pass pairs in a traced run
TIME_CAP_S = 120.0       # stop adding passes beyond this, whatever the minimum
SETUP_PROBES = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
              ("ok_frac", "frac"), ("peak_rss_mb", "MB"))


def load_program():
    """Import nonovershoot from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "nonovershoot"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: program source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import nonovershoot
    if Path(nonovershoot.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: imported nonovershoot from {nonovershoot.__file__}")
    return nonovershoot


def speed_probe_ms():
    """Milliseconds for a fixed pure-Python loop, median of 5.  Interference
    from other tenants of the host slows it without raising the load
    average that this machine reports."""
    times = []
    for _ in range(5):
        t0 = _now()
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        times.append((_now() - t0) * 1e3)
    return statistics.median(times)


def environment():
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            sha = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
            "speed_probe_ms_start": speed_probe_ms()}


def finish_environment(env):
    env["loadavg_end"] = os.getloadavg()
    env["speed_probe_ms_end"] = speed_probe_ms()
    # The run itself adds about 1 to the load average by its end.
    other = max(env["loadavg_start"][0], env["loadavg_end"][0] - 1.0)
    env["other_load"] = other > env["nproc"] / 2
    return env


def load_expected(workload, seed):
    if seed != DEFAULT_SEED:
        return None, None
    data = json.loads(EXPECTED.read_text())
    return data["values"][workload], data["tolerance"]


class Runner:
    """Runs passes of a workload and checks every operation's output.

    An operation fails if it raises or if a check fails: its own output
    check, the exact repeat of its first pass's output, or (default seed)
    the recorded values."""

    def __init__(self, expected=None, tolerance=None):
        self.expected = expected
        self.tolerance = tolerance
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, op, out, outs):
        problems = list(op.check(out, outs))
        fp = op.fingerprint(out)
        if self.fingerprints.setdefault(op.label, fp) != fp:
            problems.append("output differs from the first pass")
        if self.expected is not None and op.observe is not None:
            problems += checks.compare_recorded(op.observe(out),
                                                self.expected.get(op.label, {}),
                                                self.tolerance)
        return problems

    def run_pass(self, ops):
        """Run every op once, in order; return ({label: timed seconds},
        steps of the ops that succeeded, outputs)."""
        gc.collect()
        outs, times, steps = {}, {}, 0
        for op in ops:
            self.attempted += 1
            t0 = _now()
            try:
                out = op.call(outs)
            except Exception:  # a failed operation is counted, not fatal
                times[op.label] = _now() - t0
                self._fail(op, [traceback.format_exc()])
                continue
            times[op.label] = _now() - t0
            outs[op.label] = out
            try:
                problems = self.check(op, out, outs)
            except Exception:  # a malformed output can break its check
                problems = [traceback.format_exc()]
            if problems:
                self._fail(op, problems)
            else:
                steps += op.steps
        return times, steps, outs

    def _fail(self, op, problems):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages += [f"{op.label}: {p.strip()}" for p in problems]


def best_pass_s(passes):
    """Seconds of one pass with every operation at its shortest time over
    ``passes`` (a list of {label: seconds}).  Other tenants of a shared
    host only ever slow a call down, by up to 2x in spells of seconds to
    minutes, so a call's shortest time over many passes is a far steadier
    estimate of the program's own cost than a median."""
    return sum(min(p[label] for p in passes) for label in passes[0])


def _pass_summary(passes):
    walls = [sum(p.values()) for p in passes]
    return (f"{len(walls)} passes of {statistics.median(walls):.3f} s median, "
            f"{min(walls):.3f}-{max(walls):.3f} s")


def _passes_wanted(start, count, minimum, seconds, last):
    elapsed = _now() - start
    if elapsed < seconds:
        return True
    return count < minimum and elapsed + last < TIME_CAP_S


def setup_probe_s(workload, seed):
    """Seconds from starting a fresh process to its first timed operation:
    interpreter start, imports and building the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = _now()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = _now() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_untraced(nn, workload, seed, seconds):
    expected, tolerance = load_expected(workload, seed)
    runner = Runner(expected, tolerance)
    ops = OPERATIONS[workload](seed, nn)
    passes, steps, setup_all = [], [], []
    start = _now()
    while not passes or _passes_wanted(start, len(passes), MIN_PASSES, seconds,
                                       sum(passes[-1].values())):
        # Set-up probes are spread over the run (between passes, never
        # alongside one), so that their median spans the host's slow and
        # quiet spells as the passes do.
        due = len(setup_all) * seconds / SETUP_PROBES
        if len(setup_all) < SETUP_PROBES and _now() - start >= due:
            setup_all.append(setup_probe_s(workload, seed))
        times, done, _ = runner.run_pass(ops)
        passes.append(times)
        steps.append(done)
    while len(setup_all) < SETUP_PROBES:
        setup_all.append(setup_probe_s(workload, seed))
    wall_s = best_pass_s(passes)
    metrics = {
        "setup_s": statistics.median(setup_all),
        "wall_s": wall_s,
        "steps_per_s": min(steps) / wall_s,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"  setup_s      {metrics['setup_s']:.4f} s     median of "
             f"{len(setup_all)} fresh processes: "
             + ", ".join(f"{v:.3f}" for v in setup_all),
             f"  wall_s       {metrics['wall_s']:.4f} s     sum of each of {len(ops)} "
             "operations' shortest time over " + _pass_summary(passes),
             f"  steps_per_s  {metrics['steps_per_s']:.1f} 1/s   full + averaged RK4 steps "
             f"per pass ({min(steps)}) / wall_s",
             f"  failed_frac  {runner.failed / runner.attempted:.4g}          "
             f"{runner.failed} of {runner.attempted} operations failed",
             f"  ok_frac      {metrics['ok_frac']:.4g} frac",
             f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB"]
    units = dict(END_TO_END)
    return runner, {k: (v, units[k]) for k, v in metrics.items()}, lines


def run_traced(nn, workload, seed, seconds):
    expected, tolerance = load_expected(workload, seed)
    runner = Runner(expected, tolerance)
    tracer = Tracer(nn)
    build = OPERATIONS[workload]
    plain_ops = build(seed, nn)
    traced_ops = build(seed, nn, tracer)

    start = _now()
    metrics, layer_call_s = layers.measure(nn, seed)

    plain, traced, per_pass = [], [], []
    while not traced or _passes_wanted(start, len(traced), MIN_TRACED_PAIRS, seconds,
                                       sum(plain[-1].values()) + sum(traced[-1].values())):
        plain.append(runner.run_pass(plain_ops)[0])
        tracer.request = f"pass{len(traced)}"
        with tracer.patched():
            times, steps, _ = runner.run_pass(traced_ops)
        traced.append(times)
        per_pass.append((tracer.self_seconds(tracer.request),
                         tracer.callback_counts(tracer.request), steps))

    counts = [(tuple(sorted(c.items())), steps) for _, c, steps in per_pass]
    if len(set(counts)) != 1:
        runner.failed += 1
        runner.messages.append(f"callback counts differ between traced passes: {counts}")
    _, first_counts, first_steps = per_pass[0]
    for kind in CALLBACKS:
        metrics[f"model.{kind}_calls_per_step"] = (
            first_counts[kind] / max(first_steps, 1), "count")
    body_self = {}
    for layer in ("sim", "averaging", "model"):
        body_self[layer] = statistics.median(s[layer] for s, _, _ in per_pass)
        metrics[f"trace.{layer}.self_s"] = (body_self[layer] + layer_call_s[layer], "s")
    metrics["trace.overhead_frac"] = (
        best_pass_s(traced) / best_pass_s(plain) - 1.0, "frac")

    TRACE_OUT.mkdir(exist_ok=True)
    (TRACE_OUT / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps(tracer.spans, indent=0))
    lines = layers.sweep_lines(metrics)
    lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    lines.append("  body self time per traced pass (without the microbenchmarks): "
                 + ", ".join(f"{k} {v:.4f} s" for k, v in body_self.items()))
    lines.append("  one call of each microbenchmark: "
                 + ", ".join(f"{k} {layer_call_s[k]:.4g} s" for k in body_self))
    lines.append(f"  traced: {_pass_summary(traced)}, {best_pass_s(traced):.4f} s at each "
                 f"operation's shortest; untraced: {_pass_summary(plain)}, "
                 f"{best_pass_s(plain):.4f} s")
    return runner, metrics, lines


def self_test(nn):
    """The checks must pass on the real outputs, report a recorded value
    perturbed by 1e-4 relative, and report a wrong input at one sample."""
    expected, tolerance = load_expected("demo_suite", DEFAULT_SEED)
    ops = OPERATIONS["demo_suite"](DEFAULT_SEED, nn)
    runner = Runner(expected, tolerance)
    _, _, outs = runner.run_pass(ops)
    ok = runner.failed == 0
    print(f"self-test: real outputs pass every check: {ok} {runner.messages}")

    es_op = next(op for op in ops if op.label == "es")
    perturbed = copy.deepcopy(expected)
    perturbed["es"]["max_h1"] *= 1.0 + 1e-4
    problems = Runner(perturbed, tolerance).check(es_op, outs["es"], outs)
    caught = len(problems) == 1 and problems[0].startswith("max_h1 ")
    print(f"self-test: perturbed recorded es max_h1 reported: {caught} {problems}")

    traj, rep = copy.deepcopy(outs["es"])
    k = (len(traj.u) - 1) // 3     # one of the law-check samples
    traj.u[k] *= 1.0 + 1e-6
    problems = es_op.check((traj, rep), outs)
    law = any(p.startswith(f"u[{k}]") for p in problems)
    print(f"self-test: input perturbed by 1e-6 at sample {k} reported: {law} {problems}")
    return ok and caught and law


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nn = load_program()
    if args.setup_probe:
        OPERATIONS[args.workload](args.seed, nn)
        print("ready", flush=True)
        return 0
    if args.self_test:
        return 0 if self_test(nn) else 1

    if args.workload == "all":
        return run_all(args)
    env = environment()
    measure = run_traced if args.trace else run_untraced
    runner, metrics, lines = measure(nn, args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(lines))
    for msg in runner.messages:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(finish_environment(env)))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload, one after the other, each in a process of its own so
    that each peak_rss_mb is its own; metric names get the workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        *lines, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        if done.returncode != 0:
            raise SystemExit(f"bench: workload {name} exited with {done.returncode}")
        part = json.loads(last)
        result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["correct"] = result["correct"] and part["correct"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
