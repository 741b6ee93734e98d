import pytest

from nonovershoot import cli
from nonovershoot.config import (gains_from_config, option_floats, parse_config,
                                 x0_from_config)


# --- config text -------------------------------------------------------------------

def test_parse_config_roundtrip():
    text = """
    # demo gains
    c1 = 2
    c2 = 1.5
    kappa_n=1.1
    lambda=4
    beta=0.8
    omega=60
    x0 = -0.5, 0
    """
    cfg = parse_config(text)
    g = gains_from_config(cfg)
    assert g.c == (2.0, 1.5)
    assert g.kappa == 1.1
    assert x0_from_config(cfg) == (-0.5, 0.0)


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError):
        parse_config("just some words")
    with pytest.raises(ValueError):
        parse_config("mass=1.0")


def test_defaults_apply_when_missing():
    g = gains_from_config({})
    assert g.c == (2.0, 1.5)
    assert g.omega == 60.0
    opts = option_floats({})
    assert opts["delta_est"] == 0.1
    assert opts["psi_scale"] == 0.0025
    assert opts["theta0"] == 0.0


def test_explicit_c_vector_replaces_default():
    cfg = parse_config("c1=3\nc2=2\nc3=1.5")
    assert gains_from_config(cfg).c == (3.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        gains_from_config(parse_config("c2=2"))  # gap: no c1


# --- subcommands --------------------------------------------------------------------

def run_cli(args):
    return cli.main(args)


def test_run_writes_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    rc = run_cli(["run", "--t-end", "1", "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x1,x2,h1,h2,u,yr,H,mode"
    assert len(lines) == 1002


def test_run_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["run", "--t-end", "1", "--out", str(a)])
    run_cli(["run", "--t-end", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_report_file(tmp_path):
    rep = tmp_path / "report.csv"
    rc = run_cli(["run", "--t-end", "1", "--report", str(rep)])
    assert rc == 0
    lines = rep.read_text().splitlines()
    assert lines[0].startswith("scenario,gains,max_h1")
    assert len(lines) == 2


def test_run_with_config_file(tmp_path):
    cfgp = tmp_path / "gains.cfg"
    cfgp.write_text("x0=0.2,0\nomega=120\n")
    out = tmp_path / "t.csv"
    rc = run_cli(["run", "--t-end", "0.5", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    first = out.read_text().splitlines()[1].split(",")
    assert first[1] == f"{0.2:.17g}"


def test_run_blowup_exit_code(tmp_path):
    cfgp = tmp_path / "hot.cfg"
    cfgp.write_text("psi_scale=1\n")  # unscaled certificate diverges
    out = tmp_path / "partial.csv"
    rc = run_cli(["run", "--t-end", "1", "--config", str(cfgp), "--out", str(out)])
    assert rc == 2
    assert out.exists()  # partial trajectory retained for diagnosis


def test_compare_blowup_exit_code(tmp_path, capsys):
    cfgp = tmp_path / "hot.cfg"
    cfgp.write_text("psi_scale=1\n")
    out = tmp_path / "cmp.csv"
    rc = run_cli(["compare", "--t-end", "1", "--config", str(cfgp), "--out", str(out)])
    assert rc == 2
    assert "simulation diverged at t=" in capsys.readouterr().err
    assert not out.exists()


def test_average_blowup_exit_code(tmp_path, capsys):
    # the unscaled certificate far from the reference: the averaged system
    # itself diverges, which ends the study
    cfgp = tmp_path / "hot.cfg"
    cfgp.write_text("psi_scale=1\nx0=-20,0\n")
    out = tmp_path / "dev.csv"
    rc = run_cli(["average", "--t-end", "1", "--omegas", "60", "--config", str(cfgp),
                  "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["simulation diverged at t=0.001: averaged system diverged"]
    assert not out.exists()


def test_compare_writes_two_rows(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = run_cli(["compare", "--t-end", "1", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3
    out_text = capsys.readouterr().out
    assert "comparator: max(x1-yr) = " in out_text
    assert "seeking law: max(x1-yr) = " in out_text
    assert "ceiling violation = " in out_text


def test_safety_subcommand(tmp_path):
    out = tmp_path / "safe.csv"
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("x0=-0.45,0\n")
    rc = run_cli(["safety", "--t-end", "1", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert "nominal" in body


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--t-end", "0.1", "--grid", "kappa_n=1.1,3",
                  "--grid", "lambda=4,0.1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("verdict")
    assert len(lines) == 5
    assert sum("invalid" in ln for ln in lines) == 2


def test_sweep_divergent_point_writes_csv_and_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "hot.cfg"
    cfgp.write_text("psi_scale=1\n")
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--config", str(cfgp), "--t-end", "1", "--grid", "kappa_n=1.1",
                  "--out", str(out)])
    assert rc == 2
    assert "simulation diverged at t=" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and ",diverged at t=" in lines[1]


@pytest.mark.parametrize("t_end", ["0.0104", "5e-4"])
def test_horizon_off_the_step_grid_is_a_message(t_end, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["run", "--t-end", t_end])
    assert "nearest valid t_end" in str(exc_info.value.code)


@pytest.mark.parametrize("config, args, message", [
    ("mass=1\n", ["run"], "unknown key 'mass'"),
    ("omega=abc\n", ["run"], "omega: expected a number, got 'abc'"),
    ("x0=1\n", ["run"], "x0 has 1 entries"),
    ("reference=nope\n", ["run"], "unknown reference id 'nope'"),
    ("", ["sweep", "--grid", "kappa_n=abc"], "--grid kappa_n: expected comma-separated"),
    ("", ["sweep", "--grid", "mass=1"], "unknown sweep parameter 'mass'"),
    ("", ["sweep", "--grid", "c3=1"], "unknown sweep parameter 'c3'"),
    ("", ["sweep", "--grid", "x0=1"], "x0 grids are only supported"),
    ("", ["average", "--omegas", "60,x"], "--omegas: expected comma-separated"),
    ("", ["run", "--system", "nope"], "unknown system id 'nope'"),
    ("", ["sweep", "--grid", "omega=60,inf"], "--grid omega: expected finite numbers"),
    ("", ["average", "--omegas", "60,nan"], "--omegas: expected finite numbers"),
    ("reference=constant:nan\n", ["run"],
     "reference id 'constant:nan': constant level must be finite, got nan"),
    ("reference=constant:inf\n", ["run"],
     "reference id 'constant:inf': constant level must be finite, got inf"),
    ("reference=constant:abc\n", ["run"],
     "reference id 'constant:abc': could not convert string to float: 'abc'"),
    ("", ["average", "--omegas", "60,-60"], "omega must be positive and finite, got -60.0"),
    ("", ["average", "--omegas", "0"], "omega must be positive and finite, got 0.0"),
    ("c1=2\nc1=3\n", ["run"], "config line 2: duplicate key 'c1'"),
])
def test_malformed_input_is_one_line(tmp_path, config, args, message):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(config)
    with pytest.raises(SystemExit) as exc_info:
        run_cli(args + ["--t-end", "0.01", "--config", str(cfgp)])
    text = exc_info.value.code
    assert isinstance(text, str) and text.startswith("nonovershoot: ")
    assert message in text and "\n" not in text


_SUBCOMMANDS = [["run"], ["run", "--controller", "nussbaum"], ["compare"], ["safety"],
                ["sweep", "--grid", "kappa_n=1.1"], ["average", "--omegas", "60"]]


_BAD_CONFIGS = [
    ("lambda=nan", "lambda: expected a finite number, got 'nan'"),
    ("kappa_n=inf", "kappa_n: expected a finite number, got 'inf'"),
    ("x0=nan,0", "x0: expected finite numbers, got 'nan,0'"),
    ("beta=inf", "beta: expected a finite number, got 'inf'"),
    ("theta0=inf", "theta0: expected a finite number, got 'inf'"),
    ("omega=nan", "omega: expected a finite number, got 'nan'"),
    ("omega=inf", "omega: expected a finite number, got 'inf'"),
    ("psi_scale=0", "psi_scale: expected a positive number, got '0'"),
    ("psi_scale=nan", "psi_scale: expected a finite number, got 'nan'"),
    ("delta_est=nan", "delta_est: expected a finite number, got 'nan'"),
    ("delta_est=-5", "delta_est: expected a nonnegative number, got '-5'"),
    ("delta_est=-1e-9", "delta_est: expected a nonnegative number, got '-1e-9'"),
    ("c1=2", "1 rate gains c1..c1 given; system 'example' has 2 states"),
    ("c1=2\nc2=1.5\nc3=1.2", "3 rate gains c1..c3 given; system 'example' has 2 states"),
]


@pytest.mark.parametrize("args", _SUBCOMMANDS, ids=lambda a: "-".join(a[:1] + a[2:3]))
@pytest.mark.parametrize("config, message", _BAD_CONFIGS,
                         ids=[c.replace("\n", ";") for c, _ in _BAD_CONFIGS])
def test_non_finite_option_or_gain_count_is_one_line(tmp_path, config, message, args):
    # rejected where the input is read, before any run: not relabelled as
    # a divergence, not a traceback from the generated loop
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(config + "\n")
    with pytest.raises(SystemExit) as exc_info:
        run_cli(args + ["--t-end", "0.01", "--config", str(cfgp)])
    text = exc_info.value.code          # a string: exit status 1, the text on stderr
    assert text == f"nonovershoot: {message}"
    assert "diverged" not in text


def test_average_subcommand(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = run_cli(["average", "--t-end", "1", "--omegas", "60,240", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,max_deviation,blowup_flag"
    assert len(lines) == 3
    assert "max deviation" in capsys.readouterr().out


@pytest.mark.parametrize("args", [["run", "--out"], ["run", "--report"],
                                  ["average", "--omegas", "60", "--out"]],
                         ids=["run-out", "run-report", "average-out"])
def test_unwritable_output_is_one_line(tmp_path, args, capsys):
    # the parent of the output path is a file: one line, exit status 1
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "y.csv"
    with pytest.raises(SystemExit) as exc_info:
        run_cli(args + [str(target), "--t-end", "0.01"])
    text = exc_info.value.code          # a string: exit status 1, the text on stderr
    assert isinstance(text, str) and text.startswith(f"nonovershoot: cannot write {target}: ")
    assert "\n" not in text and "Errno" not in text


def test_cli_help():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["--help"])
    assert exc_info.value.code == 0


# every subcommand runs what the library call runs under the same config;
# theta0 reaches only the comparator, which sweep dropped once
THETA_CONFIG = "theta0 = 3.0\nx0 = -0.4, 0.1\n"


@pytest.mark.parametrize("command, controller", [
    ("run", "es"), ("run", "nussbaum"), ("safety", None), ("compare", None),
    ("sweep", "es"), ("sweep", "nussbaum")])
def test_each_subcommand_reports_what_the_library_call_does(tmp_path, capsys, command,
                                                            controller):
    from nonovershoot import Scenario, demo_gains, example_system, run_scenario, sim

    config = tmp_path / "theta.cfg"
    config.write_text(THETA_CONFIG)
    out = tmp_path / "report.csv"
    args = [command, "--config", str(config), "--t-end", "0.5", "--dt", "1e-3"]
    args += ["--controller", controller] * (controller is not None)
    args += ["--grid", "kappa_n=1.1,3"] * (command == "sweep")
    args += ["--report" if command in ("run", "safety") else "--out", str(out)]
    if command in ("run", "safety"):
        args += ["--out", str(tmp_path / "traj.csv")]
    assert cli.main(args) == 0
    capsys.readouterr()

    plant, gains = example_system(), demo_gains()
    sc = Scenario(x0=(-0.4, 0.1), t_end=0.5, dt=1e-3)
    opts = {"theta0": 3.0, "psi_scale": 0.0025, "delta_est": 0.1}
    if command == "sweep":
        expected = sim.sweep(plant, controller, gains, sc, {"kappa_n": [1.1, 3.0]},
                             **opts).to_csv()
    else:
        controllers = {"run": [controller], "safety": ["safety-filter"],
                       "compare": ["es", "nussbaum"]}[command]
        rows = [run_scenario(plant, c, gains, sc, **opts)[1].csv_row() for c in controllers]
        expected = "\n".join([",".join(sim.REPORT_COLUMNS), *rows]) + "\n"
    assert out.read_text() == expected
