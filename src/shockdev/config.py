"""Run configuration: sectioned key = value text or JSON, with env overrides.

A configuration file uses flat ``key = value`` entries grouped in sections
(INI syntax); the same nesting expressed as a JSON object is accepted too
(files ending in ``.json``, or whose first non-blank character is ``{``).
Every key has a default, so an empty file — or no file — yields the
canonical desk-scale run.  After the file layer, environment variables of
the form ``SHOCKDEV_<SECTION>_<KEY>`` override individual entries; one
that names a known section but no key of it is rejected, and so is a
blank or null value for any key.

Sections and keys::

    [eos]     kind (radiation | poly2), coefficient (poly2 stiffness)
    [cusp]    alpha0, beta0, kappa, lam, r0, dbeta_dt0, alpha_ddot0, xi
    [solver]  eps, n, tol_outer, max_outer, max_retries
    [output]  grid_csv, shock_csv, report_json
    [checks]  seed (RNG seed for the sampled property checks)

The inner solver's numerics have no keys: the corner value of the
reflection ratio and the trust index of the hatted curve follow from the
corner asymptotics, and the field sweep stops at its rounding floor well
inside its fixed tolerance and budget.

Validation failures raise :class:`~shockdev.errors.ConfigError` carrying
every violation, so the command line can report them all at once.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eos as eos_mod
from .errors import ConfigError
from .state_ahead import CuspData, StateAheadModel, synthesize_model

__all__ = ["SolverConfig", "load_config", "build_problem"]

_MACH_EPS = float(np.finfo(float).eps)

# schema: section -> key -> (python type, default)
_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "eos": {
        "kind": (str, "radiation"),
        "coefficient": (float, 0.1),
    },
    "cusp": {
        "alpha0": (float, 0.0),
        "beta0": (float, 0.0),
        "kappa": (float, 1.0),
        "lam": (float, 1.0),
        "r0": (float, 1.0),
        "dbeta_dt0": (float, 0.3),
        "alpha_ddot0": (float, 0.0),
        "xi": (float, 0.0),
    },
    "solver": {
        "eps": (float, 0.01),
        "n": (int, 64),
        "tol_outer": (float, 1e-10),
        "max_outer": (int, 60),
        "max_retries": (int, 3),
    },
    "output": {
        "grid_csv": (str, "grid.csv"),
        "shock_csv": (str, "shock.csv"),
        "report_json": (str, "report.json"),
    },
    "checks": {
        "seed": (int, 20260815),
    },
}


@dataclass(frozen=True)
class SolverConfig:
    """Validated run configuration (see the module docstring for the schema)."""

    eos_kind: str = "radiation"
    eos_coefficient: float = 0.1
    alpha0: float = 0.0
    beta0: float = 0.0
    kappa: float = 1.0
    lam: float = 1.0
    r0: float = 1.0
    dbeta_dt0: float = 0.3
    alpha_ddot0: float = 0.0
    xi: float = 0.0
    eps: float = 0.01
    n: int = 64
    tol_outer: float = 1e-10
    max_outer: int = 60
    max_retries: int = 3
    grid_csv: str = "grid.csv"
    shock_csv: str = "shock.csv"
    report_json: str = "report.json"
    seed: int = 20260815

    @classmethod
    def canonical(cls) -> "SolverConfig":
        """The bundled default: radiation law, unit scales, desk-size grid."""
        return cls()

    def as_sections(self) -> dict:
        """Nested {section: {key: value}} view (the report echoes this)."""
        out: dict[str, dict] = {}
        for section, keys in _SCHEMA.items():
            out[section] = {key: getattr(self, _FIELD_OF[(section, key)]) for key in keys}
        return out

    def solver_options(self) -> dict:
        """Keyword arguments for ``run_shock_development`` besides eps and n."""
        return {
            "tol_outer": self.tol_outer,
            "max_outer": self.max_outer,
            "max_retries": self.max_retries,
        }


# map (section, key) -> dataclass field name: the key, prefixed in [eos]
_FIELD_OF = {
    (section, key): f"eos_{key}" if section == "eos" else key
    for section, keys in _SCHEMA.items()
    for key in keys
}


def _coerce(section: str, key: str, raw, errors: list[str]):
    """Convert a raw file/env value to the schema type; None on an error."""
    typ, _ = _SCHEMA[section][key]
    if raw is None:
        errors.append(f"[{section}] {key}: null value")
        return None
    if isinstance(raw, str):
        text = raw.strip()
        if text == "":
            errors.append(f"[{section}] {key}: empty value")
            return None
        try:
            if typ is float:
                return float(text)
            if typ is int:
                return int(text)
            return text
        except ValueError:
            errors.append(f"[{section}] {key}: cannot parse {text!r} as {typ.__name__}")
            return None
    # JSON layer delivers native types
    if typ is float and isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    if typ is int and isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    errors.append(f"[{section}] {key}: expected {typ.__name__}, got {type(raw).__name__}")
    return None


def _read_file_layer(path: Path, errors: list[str]) -> dict:
    """Parse the config file into {(section, key): raw value}."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    looks_json = path.suffix.lower() == ".json" or text.lstrip()[:1] == "{"
    layer: dict[tuple[str, str], object] = {}
    if looks_json:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        for section, body in data.items():
            if section not in _SCHEMA:
                errors.append(f"unknown section [{section}]")
                continue
            if not isinstance(body, dict):
                errors.append(f"[{section}]: must be an object of key/value pairs")
                continue
            for key, raw in body.items():
                if key not in _SCHEMA[section]:
                    errors.append(f"unknown key [{section}] {key}")
                    continue
                layer[(section, key)] = raw
        return layer
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is not valid sectioned text: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                errors.append(f"unknown key [{section}] {key}")
                continue
            layer[(section, key)] = raw
    return layer


def _env_layer(env, errors: list[str]) -> dict:
    layer: dict[tuple[str, str], object] = {}
    for section, keys in _SCHEMA.items():
        prefix = f"SHOCKDEV_{section.upper()}_"
        for name in sorted(n for n in env if n.startswith(prefix)):
            key = name[len(prefix) :].lower()
            if key in keys and name == prefix + key.upper():
                layer[(section, key)] = env[name]
            else:
                errors.append(f"unknown key [{section}] in environment variable {name}")
    return layer


def _validate(values: dict, errors: list[str]) -> None:
    def get(section, key):
        return values[(section, key)]

    kind = get("eos", "kind")
    if kind not in ("radiation", "poly2"):
        errors.append(f"[eos] kind: must be 'radiation' or 'poly2', got {kind!r}")
    if kind == "poly2" and not (
        isinstance(get("eos", "coefficient"), float) and get("eos", "coefficient") > 0
    ):
        errors.append("[eos] coefficient: must be positive for the quadratic law")
    for key in ("kappa", "lam", "r0"):
        val = get("cusp", key)
        if not (math.isfinite(val) and val > 0):
            errors.append(f"[cusp] {key}: must be finite and positive, got {val}")
    eps = get("solver", "eps")
    if not (math.isfinite(eps) and eps > 0):
        errors.append(f"[solver] eps: must be finite and positive, got {eps}")
    n = get("solver", "n")
    if n < 2:
        errors.append(f"[solver] n: must be at least 2, got {n}")
    tol = get("solver", "tol_outer")
    if not (math.isfinite(tol) and tol > _MACH_EPS):
        errors.append(
            f"[solver] tol_outer: must exceed machine epsilon ({_MACH_EPS:.2e}), got {tol}"
        )
    if get("solver", "max_outer") < 1:
        errors.append("[solver] max_outer: must be at least 1")
    if get("solver", "max_retries") < 0:
        errors.append("[solver] max_retries: must be non-negative")
    if get("checks", "seed") < 0:
        errors.append("[checks] seed: must be non-negative")
    for key in ("grid_csv", "shock_csv", "report_json"):
        name = get("output", key)
        if not name or Path(name).is_absolute():
            errors.append(f"[output] {key}: must be a non-empty relative path")


def load_config(path=None, env=None) -> SolverConfig:
    """Build a validated configuration from defaults, file, and environment.

    Args:
        path: config file (sectioned text or JSON); None for pure defaults.
        env: environment mapping; defaults to ``os.environ``.

    Raises:
        ConfigError: unreadable/unparsable file, unknown keys, or invalid
            values; the message lists every violation.
    """
    if env is None:
        env = os.environ
    errors: list[str] = []
    values = {
        (section, key): default
        for section, keys in _SCHEMA.items()
        for key, (_, default) in keys.items()
    }
    layers = []
    if path is not None:
        layers.append(_read_file_layer(Path(path), errors))
    layers.append(_env_layer(env, errors))
    for layer in layers:
        for (section, key), raw in layer.items():
            value = _coerce(section, key, raw, errors)
            if value is not None:
                values[(section, key)] = value
    if not errors:
        _validate(values, errors)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return SolverConfig(
        **{_FIELD_OF[(s, k)]: v for (s, k), v in values.items()}
    )


def build_problem(cfg: SolverConfig):
    """Construct the (eos, cusp data, ahead-state model) triple for a config."""
    if cfg.eos_kind == "radiation":
        eos = eos_mod.radiation()
    else:
        eos = eos_mod.poly2(cfg.eos_coefficient)
    cusp = CuspData.from_physics(
        eos,
        kappa=cfg.kappa,
        lam=cfg.lam,
        alpha0=cfg.alpha0,
        beta0=cfg.beta0,
        dbeta_dt0=cfg.dbeta_dt0,
        r0=cfg.r0,
        alpha_ddot0=cfg.alpha_ddot0,
        xi=cfg.xi,
    )
    model = synthesize_model(cusp, eos, eps=cfg.eps)
    return eos, cusp, model
