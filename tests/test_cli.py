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


def test_average_subcommand(tmp_path, capsys):
    out = tmp_path / "study.csv"
    rc = run_cli(["average", "--t-end", "1", "--omegas", "60,240", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,max_deviation,blowup_flag"
    assert len(lines) == 3
    assert "max deviation" in capsys.readouterr().out


def test_cli_help():
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["--help"])
    assert exc_info.value.code == 0
