"""Flat key=value configuration for gains and run options.

Recognised keys: c1..cn, kappa_n, lambda, beta, omega, x0 (comma
separated), reference, theta0, delta_est, psi_scale.  One key per line;
blank lines and #-comments ignored.
"""

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

_KNOWN = {"kappa_n", "lambda", "beta", "omega", "x0", "reference",
          "theta0", "delta_est", "psi_scale"}


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
        out[key] = val
    return out


def merged(cfg: dict) -> dict:
    """Config over defaults; an explicit c-vector drops the default one."""
    base = dict(DEFAULTS)
    if any(re.fullmatch(r"c\d+", k) for k in cfg):
        base = {k: v for k, v in base.items() if not re.fullmatch(r"c\d+", k)}
    base.update(cfg)
    return base


def gains_from_config(cfg: dict) -> GainConfig:
    cfg = merged(cfg)
    indices = sorted(int(k[1:]) for k in cfg if re.fullmatch(r"c\d+", k))
    if indices != list(range(1, len(indices) + 1)):
        raise ValueError(f"rate gains must be contiguous c1..cn, got {indices}")
    c = tuple(float(cfg[f"c{i}"]) for i in indices)
    return GainConfig(c=c, kappa=float(cfg["kappa_n"]), lam=float(cfg["lambda"]),
                      beta=float(cfg["beta"]), omega=float(cfg["omega"]))


def x0_from_config(cfg: dict) -> tuple:
    cfg = merged(cfg)
    return tuple(float(v) for v in cfg["x0"].split(","))


def option_floats(cfg: dict) -> dict:
    cfg = merged(cfg)
    return {"theta0": float(cfg["theta0"]),
            "delta_est": float(cfg["delta_est"]),
            "psi_scale": float(cfg["psi_scale"])}


def reference_from_config(cfg: dict) -> str:
    return merged(cfg)["reference"]
