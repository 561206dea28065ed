"""Configuration loading: defaults, sectioned text, JSON, env, validation."""

from __future__ import annotations

import configparser
import json
import re
from pathlib import Path

import pytest

from shockdev.config import _SCHEMA, SolverConfig, build_problem, load_config
from shockdev.errors import ConfigError

# solver numerics that are fixed rules of the solver, not configuration
REMOVED_SOLVER_KEYS = ("tol_inner", "max_sweeps", "v_floor", "trust_index")
ALL_KEYS = [(s, k) for s, keys in _SCHEMA.items() for k in keys]


class TestDefaults:
    def test_no_file_gives_canonical(self):
        cfg = load_config(None, env={})
        assert cfg == SolverConfig.canonical()

    def test_canonical_values(self):
        cfg = SolverConfig.canonical()
        assert cfg.eos_kind == "radiation"
        assert cfg.eps == 0.01
        assert cfg.n == 64
        assert cfg.report_json == "report.json"

    def test_empty_file_gives_canonical(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        assert load_config(path, env={}) == SolverConfig.canonical()

    def test_sections_round_trip(self, tmp_path):
        cfg = SolverConfig.canonical()
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg.as_sections()))
        assert load_config(path, env={}) == cfg

    def test_solver_options_keys(self):
        opts = SolverConfig.canonical().solver_options()
        assert set(opts) == {"tol_outer", "max_outer", "max_retries"}

    def test_schema_has_no_unset_defaults(self):
        assert set(_SCHEMA["solver"]) == {"eps", "n", "tol_outer", "max_outer", "max_retries"}
        assert all(default is not None for _, default in (
            entry for keys in _SCHEMA.values() for entry in keys.values()
        ))


class TestSectionedText:
    def test_basic(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[eos]\nkind = poly2\ncoefficient = 0.25\n"
            "[cusp]\nalpha0 = 0.4\n"
            "[solver]\neps = 0.005\nn = 32\n"
            "[checks]\nseed = 7\n"
        )
        cfg = load_config(path, env={})
        assert cfg.eos_kind == "poly2"
        assert cfg.eos_coefficient == 0.25
        assert cfg.alpha0 == 0.4
        assert cfg.eps == 0.005
        assert cfg.n == 32
        assert cfg.seed == 7
        # untouched keys keep their defaults
        assert cfg.kappa == 1.0

    def test_inline_comments(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\nn = 32  ; coarse\neps = 0.02 # wide\n")
        cfg = load_config(path, env={})
        assert (cfg.n, cfg.eps) == (32, 0.02)

    def test_blank_required_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\neps =\n")
        with pytest.raises(ConfigError, match=r"\[solver\] eps"):
            load_config(path, env={})

    @pytest.mark.parametrize("section, key", ALL_KEYS)
    def test_blank_value_rejected_for_every_key(self, tmp_path, section, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} =\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: empty value"):
            load_config(path, env={})


class TestJson:
    def test_basic(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "eos": {"kind": "poly2", "coefficient": 0.2},
            "solver": {"eps": 0.02, "n": 16},
        }))
        cfg = load_config(path, env={})
        assert (cfg.eos_kind, cfg.eos_coefficient) == ("poly2", 0.2)
        assert (cfg.eps, cfg.n) == (0.02, 16)

    @pytest.mark.parametrize("section, key", ALL_KEYS)
    def test_null_value_rejected_for_every_key(self, tmp_path, section, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {key: None}}))
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: null value"):
            load_config(path, env={})

    def test_json_detected_without_suffix(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text('{"solver": {"n": 24}}')
        assert load_config(path, env={}).n == 24

    def test_bool_is_not_a_number(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"solver": {"n": True}}))
        with pytest.raises(ConfigError, match=r"\[solver\] n"):
            load_config(path, env={})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path, env={})


class TestEnvOverrides:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\nn = 32\n")
        cfg = load_config(path, env={"SHOCKDEV_SOLVER_N": "128"})
        assert cfg.n == 128

    def test_env_alone(self):
        cfg = load_config(None, env={
            "SHOCKDEV_EOS_KIND": "poly2",
            "SHOCKDEV_CUSP_KAPPA": "2.0",
            "SHOCKDEV_CHECKS_SEED": "99",
            "SHOCKDEV_OUTPUT_REPORT_JSON": "out.json",
        })
        assert cfg.eos_kind == "poly2"
        assert cfg.kappa == 2.0
        assert cfg.seed == 99
        assert cfg.report_json == "out.json"

    def test_unrelated_env_ignored(self):
        cfg = load_config(None, env={"SHOCKDEV_SOLVERN": "8", "PATH": "/bin"})
        assert cfg.n == 64

    @pytest.mark.parametrize("name", ["SHOCKDEV_SOLVER_NN", "SHOCKDEV_SOLVER_T_MAX_ITER"])
    def test_unknown_key_in_known_section_rejected(self, name):
        with pytest.raises(ConfigError, match=rf"\[solver\] in environment variable {name}"):
            load_config(None, env={name: "7"})

    def test_env_typos_listed_with_file_errors(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\ngrid = 8\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path, env={"SHOCKDEV_SOLVER_NN": "7", "SHOCKDEV_CUSP_KAPA": "2"})
        msg = str(exc.value)
        assert "unknown key [solver] grid" in msg
        assert "SHOCKDEV_SOLVER_NN" in msg and "SHOCKDEV_CUSP_KAPA" in msg

    @pytest.mark.parametrize("section, key", ALL_KEYS)
    def test_blank_env_value_rejected(self, section, key):
        name = f"SHOCKDEV_{section.upper()}_{key.upper()}"
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: empty value"):
            load_config(None, env={name: ""})

    def test_bad_env_value(self):
        with pytest.raises(ConfigError, match=r"\[solver\] eps"):
            load_config(None, env={"SHOCKDEV_SOLVER_EPS": "wide"})


class TestValidation:
    def test_all_violations_reported_at_once(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[eos]\nkind = magic\n"
            "[solver]\neps = -1\nn = 1\nmax_retries = -2\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(path, env={})
        msg = str(err.value)
        for frag in ("[eos] kind", "[solver] eps", "[solver] n", "max_retries"):
            assert frag in msg

    def test_unknown_section_and_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[sovler]\nn = 8\n[solver]\ngrid = 8\n")
        with pytest.raises(ConfigError) as err:
            load_config(path, env={})
        assert "unknown section [sovler]" in str(err.value)
        assert "unknown key [solver] grid" in str(err.value)

    def test_removed_time_solve_budget_is_unknown(self, tmp_path):
        # the time solve is direct and has no iteration budget to set
        path = tmp_path / "run.ini"
        path.write_text("[solver]\nt_max_iter = 400\n")
        with pytest.raises(ConfigError, match=r"unknown key \[solver\] t_max_iter"):
            load_config(path, env={})
        assert "t_max_iter" not in SolverConfig.canonical().as_sections()["solver"]

    @pytest.mark.parametrize("key", REMOVED_SOLVER_KEYS)
    def test_removed_solver_numerics_are_unknown(self, tmp_path, key):
        # fixed rules of the solver: every layer rejects them as unknown keys
        ini = tmp_path / "run.ini"
        ini.write_text(f"[solver]\n{key} = 1\n")
        js = tmp_path / "run.json"
        js.write_text(json.dumps({"solver": {key: 1}}))
        for path in (ini, js):
            with pytest.raises(ConfigError, match=rf"unknown key \[solver\] {key}"):
                load_config(path, env={})
        name = f"SHOCKDEV_SOLVER_{key.upper()}"
        env_msg = rf"unknown key \[solver\] in environment variable {name}"
        with pytest.raises(ConfigError, match=env_msg):
            load_config(None, env={name: "1"})
        assert key not in SolverConfig.canonical().as_sections()["solver"]
        assert not hasattr(SolverConfig.canonical(), key)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.ini", env={})

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\neps = fast\n")
        with pytest.raises(ConfigError, match="cannot parse 'fast'"):
            load_config(path, env={})

    def test_tolerance_below_machine_eps(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solver]\ntol_outer = 1e-20\n")
        with pytest.raises(ConfigError, match="machine epsilon"):
            load_config(path, env={})

    def test_absolute_output_path_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[output]\ngrid_csv = /etc/grid.csv\n")
        with pytest.raises(ConfigError, match=r"\[output\] grid_csv"):
            load_config(path, env={})

    def test_poly2_needs_positive_coefficient(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[eos]\nkind = poly2\ncoefficient = -0.1\n")
        with pytest.raises(ConfigError, match=r"\[eos\] coefficient"):
            load_config(path, env={})


class TestBuildProblem:
    def test_canonical_problem(self):
        eos, cusp, model = build_problem(SolverConfig.canonical())
        assert eos.label == "radiation"
        assert cusp.c_plus0 == pytest.approx(3**-0.5, rel=1e-14)
        assert cusp.r0 == 1.0
        assert model.box_w == pytest.approx(0.02)

    def test_poly2_problem(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"eos": {"kind": "poly2", "coefficient": 0.3}}))
        eos, cusp, model = build_problem(load_config(path, env={}))
        assert "poly2" in eos.label
        assert cusp.c_plus0 > 0


def test_readme_ini_block_lists_every_key(tmp_path):
    """The README's sample config names every schema key at its default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    listed = {(s, k) for s in parser.sections() for k in parser[s]}
    schema = SolverConfig.canonical().as_sections()
    assert listed == {(s, k) for s, keys in schema.items() for k in keys}
    assert load_config(path, env={}) == SolverConfig.canonical()
