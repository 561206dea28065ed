"""Command-line interface: subcommands, exit codes, written artifacts."""

from __future__ import annotations

import json

import numpy as np
import pytest

import shockdev.cli as cli
import shockdev.config as config
import shockdev.free_boundary as FBD
import shockdev.report as report_mod
from shockdev.errors import ShockDevError


def run_cli(argv):
    return cli.main(argv)


def _counted(made, synthesize):
    def counting(*args, **kwargs):
        made.append(synthesize(*args, **kwargs))
        return made[-1]

    return counting


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "run" in capsys.readouterr().out

    def test_eps_and_n_mutually_exclusive(self, capsys):
        assert run_cli(["sweep", "--eps", "0.01", "--n", "8"]) == 2


class TestConfigErrors:
    def test_run_malformed_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[solver]\neps = not-a-number\n")
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_verify_missing_file(self, tmp_path, capsys):
        assert run_cli(["verify", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_sweep_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[solver]\ngrid = 8\n")
        assert run_cli(["sweep", "--config", str(cfg), "--n", "8"]) == 2

    def test_removed_solver_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "old.ini"
        cfg.write_text("[solver]\nv_floor =\ntrust_index = 6\n")
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key [solver] v_floor" in err
        assert "unknown key [solver] trust_index" in err
        assert not (tmp_path / "report.json").exists()

    def test_env_typo_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHOCKDEV_SOLVER_NN", "7")
        assert run_cli(["run", "--out", str(tmp_path)]) == 2
        assert "SHOCKDEV_SOLVER_NN" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", [["run"], ["verify"], ["sweep", "--n", "8"]])
    def test_setup_error_exits_2(self, tmp_path, capsys, command):
        # cusp data the cusp record refuses, judged before any solve: a state
        # outside the radiation law's admissible range, non-finite shape
        # data, and a negative refocusing rate (once a config error)
        for k, entry in enumerate(["alpha0 = 40", "dbeta_dt0 = nan", "xi = inf", "kappa = -1"]):
            cfg = tmp_path / f"bad{k}.ini"
            cfg.write_text(f"[cusp]\n{entry}\n")
            out = tmp_path / f"out{k}"
            argv = [*command, "--config", str(cfg)]
            if command == ["run"]:
                argv += ["--out", str(out)]
            assert run_cli(argv) == 2, entry
            assert "setup error" in capsys.readouterr().err, entry
            assert not (out / "report.json").exists()

    def test_refused_run_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHOCKDEV_CUSP_KAPPA", "-1")
        out = tmp_path / "d"
        assert run_cli(["run", "--out", str(out)]) == 2
        assert "setup error" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_invalid_values(self, capsys):
        assert run_cli(["sweep", "--n", "1"]) == 2
        # two nodes along the shock are too few for the corner fits
        assert run_cli(["sweep", "--n", "2"]) == 2
        assert run_cli(["sweep", "--n", "16", "2"]) == 2
        assert run_cli(["sweep", "--eps", "-0.5"]) == 2
        # an infinite domain once reached the grid and left a traceback
        assert run_cli(["sweep", "--eps", "0.01", "inf"]) == 2
        assert run_cli(["sweep", "--eps", "nan"]) == 2
        assert "finite and positive" in capsys.readouterr().err


class TestVerify:
    def test_canonical_passes(self, capsys):
        assert run_cli(["verify"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 6
        assert all(l.startswith("PASS") for l in lines)
        assert "6/6 passed" in out


class TestSweep:
    def test_empty_list_is_noop(self, capsys):
        assert run_cli(["sweep", "--eps"]) == 0
        assert "nothing to sweep" in capsys.readouterr().out
        assert run_cli(["sweep", "--n"]) == 0
        assert run_cli(["sweep"]) == 0

    def test_n_sweep_table(self, capsys):
        assert run_cli(["sweep", "--n", "8", "16"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["n", "residual_max", "y_end", "iters", "order"]
        assert len(lines) == 3
        # refinement order column appears on the second row
        assert len(lines[2].split()) == 5

    def test_failing_diagnostic_fails_its_row(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ShockDevError("geometry unavailable")

        monkeypatch.setattr(FBD, "geometry_checks", failing)
        assert run_cli(["sweep", "--n", "16"]) == 3
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split() == ["16", "failed"]
        assert "n=16: ShockDevError: geometry unavailable" in captured.err

    def test_eps_sweep_table(self, capsys):
        assert run_cli(["sweep", "--eps", "0.01", "0.005"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["eps", "outer_ratio", "inner_ratio", "y_end", "iters"]
        assert len(lines) == 3
        # the inner ratio is the one measured at outer step 1, whose full
        # inner solve keeps two sweep changes; it shrinks with the domain
        inner = [float(line.split()[2]) for line in lines[1:]]
        assert all(np.isfinite(r) and 0.0 < r < 1.0 for r in inner)
        assert inner[1] < inner[0]


class TestRun:
    def test_canonical_run_all_pass(self, tmp_path, monkeypatch, capsys, canon_bundle):
        """Full canonical run through the CLI, reusing the session solves."""

        def fake_compute(cfg):
            return canon_bundle

        monkeypatch.setattr(cli, "compute_bundle", fake_compute)
        assert run_cli(["run", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(l.startswith("PASS") for l in lines)
        assert "10/10 passed" in out

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_pass"] is True

        grid = np.genfromtxt(tmp_path / "grid.csv", delimiter=",", names=True)
        assert grid.dtype.names == (
            "i", "j", "u", "v", "t", "r", "alpha", "beta", "dt_du", "dt_dv",
        )
        shock = np.genfromtxt(tmp_path / "shock.csv", delimiter=",", names=True)
        assert shock.dtype.names == (
            "v", "f", "g", "V", "y", "alpha_plus", "beta_plus",
            "f_hat", "g_hat", "delta_hat", "V_hat",
        )
        assert shock.shape == (65,)
        assert np.allclose(shock["y"][-1], canon_bundle.base.curve.y[-1], rtol=0, atol=0)

    def test_one_corner_expansion_per_model(self, tmp_path, monkeypatch, capsys):
        # the canonical run makes five solves on two models (the half-eps
        # solve has its own); each model's corner expansion is computed
        # once, through free_boundary.corner_expansion (5 calls when every
        # solve computed its own), and the outputs do not change.  The
        # report reads the EOS and the cusp from the bundle's model, so the
        # run synthesizes only those two (3 when it built the problem again)
        direct = FBD.corner_expansion
        models, made = [], []

        def counting(model, eos):
            models.append(model)
            return direct(model, eos)

        for module in (cli, config, report_mod):
            monkeypatch.setattr(module, "synthesize_model", _counted(made, module.synthesize_model))
        monkeypatch.setattr(FBD, "corner_expansion", counting)
        assert run_cli(["run", "--out", str(tmp_path)]) == 0
        assert len(models) == 2
        assert models[0] is not models[1]
        assert len(made) == 2
        assert made[0] is models[0] and made[1] is models[1]

    def test_coarse_grid_flags_convergence_and_exits_3(self, tmp_path, capsys):
        """n = 8 is below the grid floor: outputs are still written, the
        refinement check fails, and the exit code reports it."""
        cfg = tmp_path / "coarse.ini"
        cfg.write_text("[solver]\nn = 8\n")
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["grid_convergence"]["pass"]
        assert by_name["grid_convergence"]["detail"]["grid_adequate"] is False
        assert report["all_pass"] is False
        assert (tmp_path / "grid.csv").exists()
        assert (tmp_path / "shock.csv").exists()

    def test_nonconvergence_still_writes_report(self, tmp_path, capsys):
        """With the iteration budget strangled the solver cannot converge:
        the report is written with the failure recorded, CSVs are not."""
        cfg = tmp_path / "strangled.ini"
        cfg.write_text("[solver]\nn = 16\nmax_outer = 2\nmax_retries = 0\n")
        out_dir = tmp_path / "out"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "solver failed" in err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["solver"]["converged"] is False
        assert "NonConvergence" in report["solver"]["error"]
        assert report["all_pass"] is False
        assert not (out_dir / "grid.csv").exists()
        assert not (out_dir / "shock.csv").exists()

    def test_out_dir_created(self, tmp_path, monkeypatch, canon_bundle, capsys):
        def fake_compute(cfg):
            return canon_bundle

        monkeypatch.setattr(cli, "compute_bundle", fake_compute)
        nested = tmp_path / "a" / "b"
        assert run_cli(["run", "--out", str(nested)]) == 0
        assert (nested / "report.json").exists()

    def test_output_names_honored(self, tmp_path, monkeypatch, canon_bundle, capsys):
        def fake_compute(cfg):
            return canon_bundle

        monkeypatch.setattr(cli, "compute_bundle", fake_compute)
        cfg = tmp_path / "names.ini"
        cfg.write_text(
            "[output]\ngrid_csv = interior.csv\nshock_csv = front.csv\n"
            "report_json = checks.json\n"
        )
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        for name in ("interior.csv", "front.csv", "checks.json"):
            assert (tmp_path / name).exists()


class TestCsvPrecision:
    def test_seventeen_significant_digits(self, tmp_path, monkeypatch,
                                          canon_bundle, capsys):
        def fake_compute(cfg):
            return canon_bundle

        monkeypatch.setattr(cli, "compute_bundle", fake_compute)
        assert run_cli(["run", "--out", str(tmp_path)]) == 0
        for name in ("grid.csv", "shock.csv"):
            line = (tmp_path / name).read_text().splitlines()[5]
            cell = line.split(",")[-1]
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) == 17
        # round trip is exact at this precision
        shock = np.genfromtxt(tmp_path / "shock.csv", delimiter=",", names=True)
        assert np.array_equal(shock["f_hat"], canon_bundle.base.curve.f_hat)
