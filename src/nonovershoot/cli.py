"""Command-line simulator.

Subcommands: run (one closed loop), sweep (parameter grid), compare
(seeking law vs the oscillatory-gain comparator), safety (filtered
regulation), average (full-vs-averaged deviation study).
"""

import argparse
import sys as _sys
from pathlib import Path

from . import averaging, config as cfgmod, sim
from .model import BlowupError, Scenario, get_system


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
    cfg = {}
    if args.config:
        cfg = cfgmod.parse_config(args.config.read_text())
    system = get_system(args.system)
    gains = cfgmod.gains_from_config(cfg)
    try:
        scenario = Scenario(x0=cfgmod.x0_from_config(cfg), t_end=args.t_end,
                            dt=args.dt, reference=cfgmod.reference_from_config(cfg))
    except ValueError as exc:
        raise SystemExit(f"nonovershoot: {exc}") from None
    return system, gains, scenario, cfgmod.option_floats(cfg)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _print_report(rep):
    print(f"{rep.scenario}: max_h1={rep.max_h1:.6g} at t={rep.t_at_max:.6g}, "
          f"tail|h1|={rep.tail_abs_h1:.6g}, envelope_violation={rep.envelope_violation:.6g}, "
          f"min_H={rep.min_margin:.6g}, max|u|={rep.max_abs_u:.6g} "
          f"(delta_est={rep.delta_est:g} [{rep.delta_source}])")


def _diverged(exc, out=None):
    """Report a divergence (exit code 2); the partial trajectory goes to out."""
    print(f"simulation diverged at t={exc.t:.6g}: {exc}", file=_sys.stderr)
    partial = getattr(exc, "partial_trajectory", None)
    if out and partial is not None:
        _write(out, partial.to_csv())
    return 2


def _run_one(system, controller, gains, scenario, opts, out, report_path):
    kwargs = dict(psi_scale=opts["psi_scale"], delta_est=opts["delta_est"],
                  theta0=opts["theta0"])
    try:
        traj, rep = sim.run_scenario(system, controller, gains, scenario, **kwargs)
    except BlowupError as exc:
        return _diverged(exc, out)
    _print_report(rep)
    if out:
        _write(out, traj.to_csv())
    if report_path:
        _write(report_path, ",".join(sim.REPORT_COLUMNS) + "\n" + rep.csv_row() + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    system, gains, scenario, opts = _load(args)

    if args.command == "run":
        return _run_one(system, args.controller, gains, scenario, opts,
                        args.out, args.report)

    if args.command == "safety":
        return _run_one(system, "safety-filter", gains, scenario, opts,
                        args.out, args.report)

    if args.command == "sweep":
        grid = {}
        for axis in args.grid:
            key, _, vals = axis.partition("=")
            if key.strip() == "x0":
                raise SystemExit("x0 grids are only supported through the library API")
            grid[key.strip()] = [float(v) for v in vals.split(",")]
        result = sim.sweep(system, args.controller, gains, scenario, grid,
                           mode=args.mode, psi_scale=opts["psi_scale"],
                           delta_est=opts["delta_est"])
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
                _, rep = sim.run_scenario(system, controller, gains, scenario,
                                          psi_scale=opts["psi_scale"],
                                          delta_est=opts["delta_est"],
                                          theta0=opts["theta0"])
            except BlowupError as exc:
                return _diverged(exc)
            _print_report(rep)
            rows.append(rep)
        for tag, rep in (("comparator", rows[1]), ("seeking law", rows[0])):
            print(f"{tag}: max(x1-yr) = {rep.max_h1:.6g} at t = {rep.t_at_max:.6g}, "
                  f"ceiling violation = {rep.envelope_violation:.6g}")
        if args.out:
            text = ",".join(sim.REPORT_COLUMNS) + "\n" \
                + "\n".join(r.csv_row() for r in rows) + "\n"
            _write(args.out, text)
        return 0

    if args.command == "average":
        from .control import example_lyapunov_spec

        spec = example_lyapunov_spec(system, gains, scale=opts["psi_scale"])
        omegas = [float(v) for v in args.omegas.split(",")]
        study = averaging.deviation_study(system, spec, gains, scenario, omegas,
                                          halved=args.halved)
        for om, dev, blow in zip(study.omegas, study.deviations, study.blowups):
            flag = " (diverged)" if blow else ""
            print(f"omega={om:g}: max deviation = {dev:.6g}{flag}")
        if args.out:
            _write(args.out, study.to_csv())
        return 0

    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
