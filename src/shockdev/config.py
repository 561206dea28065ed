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

The config owns the rules of its own layer: types, section and key
names, the [eos] kind and coefficient (the kind decides whether the
coefficient is read), a non-negative seed and relative output paths.  The
[solver] bounds and defaults come from ``free_boundary.setting_errors``
and its constants; the [cusp] bounds are judged when ``build_problem``
makes the cusp data, so a bad cusp is a setup error, not a config error.

Validation failures raise :class:`~shockdev.errors.ConfigError` carrying
every violation, so the command line can report them all at once.
"""

from __future__ import annotations

import configparser
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import eos as eos_mod
from . import free_boundary
from .errors import ConfigError
from .state_ahead import CuspData, synthesize_model

__all__ = ["SolverConfig", "load_config", "build_problem"]


def _key(section: str, default):
    """A config field whose key lives in ``section``."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class SolverConfig:
    """Validated run configuration (see the module docstring for the schema).

    The fields are the one declaration of every key, its type and its
    default.  A key is its field name less the section prefix, which only
    the [eos] fields carry.
    """

    eos_kind: str = _key("eos", "radiation")
    eos_coefficient: float = _key("eos", 0.1)
    alpha0: float = _key("cusp", 0.0)
    beta0: float = _key("cusp", 0.0)
    kappa: float = _key("cusp", 1.0)
    lam: float = _key("cusp", 1.0)
    r0: float = _key("cusp", 1.0)
    dbeta_dt0: float = _key("cusp", 0.3)
    alpha_ddot0: float = _key("cusp", 0.0)
    xi: float = _key("cusp", 0.0)
    eps: float = _key("solver", 0.01)
    n: int = _key("solver", 64)
    tol_outer: float = _key("solver", free_boundary.TOL_OUTER)
    max_outer: int = _key("solver", free_boundary.MAX_OUTER)
    max_retries: int = _key("solver", free_boundary.MAX_RETRIES)
    grid_csv: str = _key("output", "grid.csv")
    shock_csv: str = _key("output", "shock.csv")
    report_json: str = _key("output", "report.json")
    seed: int = _key("checks", 20260815)

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


def _schema():
    """section -> key -> (python type, default), and (section, key) -> field
    name, both read off the fields of :class:`SolverConfig`."""
    types = {"str": str, "float": float, "int": int}  # the annotations, as text
    schema: dict[str, dict[str, tuple[type, object]]] = {}
    field_of: dict[tuple[str, str], str] = {}
    for f in fields(SolverConfig):
        section = f.metadata["section"]
        key = f.name.removeprefix(section + "_")
        schema.setdefault(section, {})[key] = (types[f.type], f.default)
        field_of[section, key] = f.name
    return schema, field_of


_SCHEMA, _FIELD_OF = _schema()


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
    """Parse the config file into {(section, key): raw value}; either format
    is read as {section: {key: raw}}, then one pass checks the names."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix.lower() == ".json" or text.lstrip()[:1] == "{":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
    else:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"config file {path} is not valid sectioned text: {exc}") from exc
        data = {section: parser[section] for section in parser.sections()}
    layer: dict[tuple[str, str], object] = {}
    for section, body in data.items():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        if not isinstance(body, Mapping):
            errors.append(f"[{section}]: must be an object of key/value pairs")
            continue
        for key, raw in body.items():
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


# [eos] kind -> the law it builds from [eos] coefficient
_EOS_KINDS = {
    "radiation": lambda coefficient: eos_mod.radiation(),
    "poly2": eos_mod.poly2,
}


def _validate(values: dict, errors: list[str]) -> None:
    def get(section, key):
        return values[(section, key)]

    kind = get("eos", "kind")
    if kind not in _EOS_KINDS:
        kinds = " or ".join(map(repr, _EOS_KINDS))
        errors.append(f"[eos] kind: must be {kinds}, got {kind!r}")
    if kind == "poly2" and not (
        isinstance(get("eos", "coefficient"), float) and get("eos", "coefficient") > 0
    ):
        errors.append("[eos] coefficient: must be positive for the quadratic law")
    solver = {key: get("solver", key) for key in _SCHEMA["solver"]}
    for name, text in free_boundary.setting_errors(**solver):
        errors.append(f"[solver] {name}: {text}")
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
    eos = _EOS_KINDS[cfg.eos_kind](cfg.eos_coefficient)
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
