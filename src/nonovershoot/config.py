"""Flat key=value configuration for gains and run options.

Recognised keys: c1..cn, kappa_n, lambda, beta, omega, x0 (comma
separated), reference, theta0, delta_est, psi_scale.  One key per line,
and each key at most once; blank lines and #-comments ignored.  Every
number must be finite, psi_scale positive and delta_est nonnegative.
"""

import math
import re

from .sim import DEFAULT_PSI_SCALE
from .synth import GainConfig

DEFAULTS = {
    "c1": "2", "c2": "1.5",
    "kappa_n": "1.1", "lambda": "4", "beta": "0.8", "omega": "60",
    "x0": "-0.5,0",
    "reference": "sine04",
    "theta0": "0",
    "delta_est": "0.1",
    "psi_scale": str(DEFAULT_PSI_SCALE),
}

_KNOWN = {k for k in DEFAULTS if not re.fullmatch(r"c\d+", k)}


def parse_config(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not (key in _KNOWN or re.fullmatch(r"c\d+", key)):
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def merged(cfg: dict) -> dict:
    """Config over defaults; an explicit c-vector drops the default one."""
    base = dict(DEFAULTS)
    if any(re.fullmatch(r"c\d+", k) for k in cfg):
        base = {k: v for k, v in base.items() if not re.fullmatch(r"c\d+", k)}
    base.update(cfg)
    return base


def numbers(text: str, what: str) -> tuple:
    """Comma-separated numbers as floats; ValueError naming ``what`` if
    any of them is not a number or not finite."""
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{what}: expected finite numbers, got {text!r}")
    return vals


def _number(cfg: dict, key: str) -> float:
    try:
        v = float(cfg[key])
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {cfg[key]!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"{key}: expected a finite number, got {cfg[key]!r}")
    return v


def gains_from_config(cfg: dict) -> GainConfig:
    cfg = merged(cfg)
    indices = sorted(int(k[1:]) for k in cfg if re.fullmatch(r"c\d+", k))
    if indices != list(range(1, len(indices) + 1)):
        raise ValueError(f"rate gains must be contiguous c1..cn, got {indices}")
    c = tuple(_number(cfg, f"c{i}") for i in indices)
    return GainConfig(c=c, kappa=_number(cfg, "kappa_n"), lam=_number(cfg, "lambda"),
                      beta=_number(cfg, "beta"), omega=_number(cfg, "omega"))


def x0_from_config(cfg: dict) -> tuple:
    return numbers(merged(cfg)["x0"], "x0")


def option_floats(cfg: dict) -> dict:
    cfg = merged(cfg)
    opts = {key: _number(cfg, key) for key in ("theta0", "delta_est", "psi_scale")}
    if opts["psi_scale"] <= 0:
        raise ValueError(f"psi_scale: expected a positive number, got {cfg['psi_scale']!r}")
    if opts["delta_est"] < 0:
        raise ValueError(f"delta_est: expected a nonnegative number, got {cfg['delta_est']!r}")
    return opts


def reference_from_config(cfg: dict) -> str:
    return merged(cfg)["reference"]
