"""Command-line simulator.

Subcommands: run (one closed loop), sweep (parameter grid), compare
(seeking law vs the oscillatory-gain comparator), safety (filtered
regulation), average (full-vs-averaged deviation study).
"""

import argparse
import sys as _sys
from dataclasses import replace
from pathlib import Path

from . import averaging, config as cfgmod, sim
from .model import BlowupError, Scenario, get_reference, get_system
from .synth import check_gain_count


def _common(parser, controller=True):
    parser.add_argument("--system", default="example", help="system id (default: example)")
    if controller:
        parser.add_argument("--controller", default="es", choices=sim.CONTROLLERS)
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--t-end", type=float, default=50.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--out", type=Path, help="output CSV path")


def build_parser():
    p = argparse.ArgumentParser(prog="nonovershoot",
                                description="extremum-seeking nonovershooting "
                                            "tracking simulator")
    subs = p.add_subparsers(dest="command", required=True)

    runp = subs.add_parser("run", help="simulate one closed loop")
    _common(runp)
    runp.add_argument("--report", type=Path, help="also write the report CSV here")

    sweepp = subs.add_parser("sweep", help="run a parameter grid")
    _common(sweepp)
    sweepp.add_argument("--grid", action="append", required=True,
                        metavar="KEY=V1,V2,...",
                        help="grid axis, e.g. kappa_n=1.1,3,10 (repeatable)")
    sweepp.add_argument("--mode", default="descending",
                        choices=("uniform", "descending"))

    cmpp = subs.add_parser("compare",
                           help="seeking law vs oscillatory-gain comparator")
    _common(cmpp, controller=False)

    safep = subs.add_parser("safety", help="safety-filtered regulation run")
    _common(safep, controller=False)
    safep.add_argument("--report", type=Path)

    avgp = subs.add_parser("average", help="full-vs-averaged deviation study")
    _common(avgp, controller=False)
    avgp.add_argument("--omegas", default="60,240,960",
                      help="comma-separated dither frequencies")
    avgp.add_argument("--halved", action="store_true",
                      help="use the half coupling coefficient in the averaged system")
    avgp.set_defaults(t_end=10.0)

    return p


def _load(args):
    """System, gains, scenario and run options from the arguments and the
    config file; ValueError or KeyError if any of them is malformed."""
    cfg = {}
    if args.config:
        cfg = cfgmod.parse_config(args.config.read_text())
    system = get_system(args.system)
    gains = cfgmod.gains_from_config(cfg)
    reference = cfgmod.reference_from_config(cfg)
    get_reference(reference)            # an unknown id fails here, not in a run
    scenario = Scenario(x0=cfgmod.x0_from_config(cfg), t_end=args.t_end,
                        dt=args.dt, reference=reference)
    if len(scenario.x0) != system.n:
        raise ValueError(f"x0 has {len(scenario.x0)} entries; system "
                         f"{args.system!r} has {system.n} states")
    check_gain_count(system, gains)
    return system, gains, scenario, cfgmod.option_floats(cfg)


def _grid(axes, gains, scenario):
    """The sweep grid from the --grid arguments; every value of every axis
    is applied once so that a bad key or value fails before any run."""
    grid = {}
    for axis in axes:
        key, _, vals = axis.partition("=")
        key = key.strip()
        if key == "x0":
            raise ValueError("x0 grids are only supported through the library API")
        grid[key] = list(cfgmod.numbers(vals, f"--grid {key}"))
        for v in grid[key]:
            sim.grid_point(gains, scenario, {key: v})
    return grid


def _write(path, text):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise SystemExit(f"nonovershoot: cannot write {path}: {exc.strerror or exc}") from None
    print(f"wrote {path}")


def _write_reports(path, reports):
    """The report CSV: the header, then one row per report."""
    _write(path, "\n".join([",".join(sim.REPORT_COLUMNS), *(r.csv_row() for r in reports)]) + "\n")


def _print_report(rep):
    print(f"{rep.scenario}: max_h1={rep.max_h1:.6g} at t={rep.t_at_max:.6g}, "
          f"tail|h1|={rep.tail_abs_h1:.6g}, envelope_violation={rep.envelope_violation:.6g}, "
          f"min_H={rep.min_margin:.6g}, max|u|={rep.max_abs_u:.6g} "
          f"(delta_est={rep.delta_est:g})")


def _diverged(exc, out=None):
    """Report a divergence (exit code 2); the partial trajectory goes to out."""
    print(f"simulation diverged at t={exc.t:.6g}: {exc}", file=_sys.stderr)
    partial = getattr(exc, "partial_trajectory", None)
    if out and partial is not None:
        _write(out, partial.to_csv())
    return 2


def _run_one(system, controller, gains, scenario, opts, out, report_path):
    try:
        traj, rep = sim.run_scenario(system, controller, gains, scenario, **opts)
    except BlowupError as exc:
        return _diverged(exc, out)
    _print_report(rep)
    if out:
        _write(out, traj.to_csv())
    if report_path:
        _write_reports(report_path, [rep])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        system, gains, scenario, opts = _load(args)
        grid = _grid(args.grid, gains, scenario) if args.command == "sweep" else None
        omegas = list(cfgmod.numbers(args.omegas, "--omegas")) \
            if args.command == "average" else []
        for v in omegas:        # a bad frequency fails here, not in the study
            replace(gains, omega=v)
    except (OSError, ValueError, KeyError) as exc:
        # malformed input: one line, no traceback
        text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise SystemExit(f"nonovershoot: {text}") from None

    if args.command == "run":
        return _run_one(system, args.controller, gains, scenario, opts,
                        args.out, args.report)

    if args.command == "safety":
        return _run_one(system, "safety-filter", gains, scenario, opts,
                        args.out, args.report)

    if args.command == "sweep":
        result = sim.sweep(system, args.controller, gains, scenario, grid,
                           mode=args.mode, **opts)
        text = result.to_csv()
        if args.out:
            _write(args.out, text)
        else:
            print(text, end="")
        diverged = [(verdict, overrides) for _, verdict, overrides in result.rows
                    if verdict.startswith("diverged")]
        for verdict, overrides in diverged:
            print(f"simulation {verdict} [{sim.grid_label(overrides)}]", file=_sys.stderr)
        return 2 if diverged else 0

    if args.command == "compare":
        rows = []
        for controller in ("es", "nussbaum"):
            try:
                _, rep = sim.run_scenario(system, controller, gains, scenario, **opts)
            except BlowupError as exc:
                return _diverged(exc)
            _print_report(rep)
            rows.append(rep)
        for tag, rep in (("comparator", rows[1]), ("seeking law", rows[0])):
            print(f"{tag}: max(x1-yr) = {rep.max_h1:.6g} at t = {rep.t_at_max:.6g}, "
                  f"ceiling violation = {rep.envelope_violation:.6g}")
        if args.out:
            _write_reports(args.out, rows)
        return 0

    if args.command == "average":
        from .control import example_lyapunov_spec

        spec = example_lyapunov_spec(system, gains, scale=opts["psi_scale"])
        try:
            study = averaging.deviation_study(system, spec, gains, scenario, omegas,
                                              halved=args.halved)
        except BlowupError as exc:      # the averaged system; a full loop's is a row
            return _diverged(exc)
        for om, dev, blow in zip(study.omegas, study.deviations, study.blowups):
            flag = " (diverged)" if blow else ""
            print(f"omega={om:g}: max deviation = {dev:.6g}{flag}")
        if args.out:
            _write(args.out, study.to_csv())
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
