"""Diagnostics report: structure, determinism, failure capture."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from shockdev.config import SolverConfig
from shockdev.free_boundary import SubCheck, blowup_fits
from shockdev.report import (
    SolutionBundle,
    _pyify,
    format_check_lines,
    full_report,
    render_report,
    verify_report,
    write_report,
)

FULL_CHECKS = [
    "eos_thermo_identities",
    "jump_coincidence_structure",
    "jump_cubic_law",
    "inner_time_asymptotics",
    "outer_corner_limits",
    "shock_geometry",
    "jump_residuals_on_shock",
    "grid_convergence",
    "convergence_structure",
    "blowup_signature",
]

VERIFY_CHECKS = [
    "eos_thermo_identities",
    "jump_coincidence_structure",
    "jump_cubic_law",
    "state_speed_ordering",
    "state_stress_derivatives",
    "ahead_model_structure",
]


@pytest.fixture(scope="module")
def rep():
    return verify_report(SolverConfig.canonical())


@pytest.fixture(scope="module")
def broken():
    """Report over an empty bundle: every solver-level check must fail
    gracefully, the pointwise ones still run."""
    bundle = SolutionBundle(errors={"base": "NonConvergence: synthetic"})
    return full_report(SolverConfig.canonical(), bundle=bundle)


class TestVerifyReport:
    def test_check_names_and_order(self, rep):
        assert [c["name"] for c in rep["checks"]] == VERIFY_CHECKS

    def test_all_pass_canonically(self, rep):
        failed = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert not failed and rep["all_pass"]

    def test_schema_and_counts(self, rep):
        assert rep["schema"] == "shockdev-verify/2"
        assert rep["counts"] == {"total": 6, "passed": 6}
        assert rep["config"] == SolverConfig.canonical().as_sections()

    def test_deterministic(self):
        cfg = SolverConfig.canonical()
        assert render_report(verify_report(cfg)) == render_report(verify_report(cfg))

    def test_seed_changes_samples_not_verdicts(self):
        import dataclasses

        other = verify_report(dataclasses.replace(SolverConfig.canonical(), seed=1))
        assert other["all_pass"]
        assert render_report(other) != render_report(verify_report(SolverConfig.canonical()))


class TestFullReport:
    def test_every_criterion_exactly_once(self, canon_report):
        names = [c["name"] for c in canon_report["checks"]]
        assert names == FULL_CHECKS
        assert len(set(names)) == len(names)

    def test_all_pass_canonically(self, canon_report):
        failed = [
            (c["name"], c["measured"], c["detail"])
            for c in canon_report["checks"]
            if not c["pass"]
        ]
        assert not failed and canon_report["all_pass"]

    def test_check_fields(self, canon_report):
        for c in canon_report["checks"]:
            assert set(c) == {
                "name", "description", "source", "target",
                "tolerance", "measured", "pass", "detail",
            }
            assert isinstance(c["measured"], float)
            assert math.isfinite(c["measured"])
            assert c["description"] and c["source"]

    def test_solver_summary(self, canon_report):
        s = canon_report["solver"]
        assert s["converged"] is True
        assert s["error"] is None
        assert s["eps_requested"] == 0.01
        assert s["eps_used"] == 0.01
        assert s["n"] == 64
        assert s["retries"] == 0
        assert s["outer_iterations"] >= 3

    def test_histories(self, canon_report):
        h = canon_report["histories"]
        assert len(h["outer_metric"]) == canon_report["solver"]["outer_iterations"]
        assert len(h["inner_changes_final"]) >= 1

    def test_deterministic_given_bundle(self, canon_bundle, canon_report):
        again = full_report(SolverConfig.canonical(), bundle=canon_bundle)
        assert render_report(again) == render_report(canon_report)

    def test_rendered_json_round_trip(self, canon_report, tmp_path):
        path = tmp_path / "report.json"
        write_report(canon_report, path)
        text = path.read_text()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["schema"] == "shockdev-report/2"
        assert parsed["all_pass"] is True
        limit = parsed["checks"][4]["detail"]["y0"]
        assert set(limit) == {"value", "target", "tolerance", "margin", "passed"}
        assert [c["name"] for c in parsed["checks"]] == FULL_CHECKS
        write_report(canon_report, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_format_lines(self, canon_report):
        lines = format_check_lines(canon_report)
        assert len(lines) == 10
        assert all(line.startswith("PASS ") for line in lines)
        assert lines[0].split()[1].rstrip(":") == "eos_thermo_identities"


class TestFailureCapture:
    def test_pointwise_checks_still_pass(self, broken):
        by_name = {c["name"]: c for c in broken["checks"]}
        for name in ("eos_thermo_identities", "jump_coincidence_structure",
                     "jump_cubic_law"):
            assert by_name[name]["pass"]

    def test_solver_checks_fail_with_recorded_error(self, broken):
        by_name = {c["name"]: c for c in broken["checks"]}
        for name in ("outer_corner_limits", "grid_convergence",
                     "convergence_structure", "blowup_signature"):
            assert not by_name[name]["pass"]
            assert "NonConvergence" in by_name[name]["detail"]["error"]

    def test_overall_verdict_and_solver_block(self, broken):
        assert broken["all_pass"] is False
        assert broken["solver"]["converged"] is False
        assert "NonConvergence" in broken["solver"]["error"]
        assert broken["histories"] == {}

    def test_still_serializable(self, broken):
        parsed = json.loads(render_report(broken))
        assert parsed["counts"]["passed"] < parsed["counts"]["total"]


class TestSerialization:
    def test_pyify_numpy_and_nonfinite(self):
        data = {
            "a": np.float64(1.5),
            "b": np.int32(3),
            "c": np.bool_(True),
            "d": np.array([1.0, 2.0]),
            "e": float("nan"),
            "f": float("inf"),
            "g": -float("inf"),
            2: "int key",
        }
        out = _pyify(data)
        assert out["a"] == 1.5 and isinstance(out["a"], float)
        assert out["b"] == 3 and isinstance(out["b"], int)
        assert out["c"] is True
        assert out["d"] == [1.0, 2.0]
        assert (out["e"], out["f"], out["g"]) == ("nan", "inf", "-inf")
        assert out["2"] == "int key"
        json.dumps(out)


# (value, target, tol, scale) -> (margin, passed): the shapes a sub-limit
# takes (relative, absolute, bare value against a tolerance or a bound, a
# fitted exponent, exact conditions that hold or fail) and a NaN value
SUBCHECK_CASES = [
    (2.1, 2.0, 0.1, 2.0, 0.5, True),
    (1.02, 1.0, 0.1, 1.0, 0.2, True),
    (0.03, 0.0, 0.1, 1.0, 0.3, True),
    (0.5, 0.0, 2.0, 1.0, 0.25, True),
    (1.9, 2.0, 0.2, 1.0, 0.5, True),
    (0.0, 0.0, 0.0, 1.0, 0.0, True),
    (3.0, 0.0, 0.0, 1.0, math.inf, False),
    (1.3, 1.0, 0.1, 1.0, 3.0, False),
    (math.nan, 0.0, 1.0, 1.0, math.nan, False),
]


class TestSubCheck:
    @pytest.mark.parametrize("value, target, tol, scale, margin, passed", SUBCHECK_CASES)
    def test_margin_rule(self, value, target, tol, scale, margin, passed):
        rec = SubCheck.of(value, target, tol, scale=scale)
        assert rec.margin == pytest.approx(margin, nan_ok=True)
        assert rec.passed is passed
        assert rec.passed == (rec.margin <= 1.0)
        assert rec.tolerance == tol * scale

    def test_diagnostics_are_records(self, canon_sol):
        groups = [
            canon_sol.diagnostics["limits"],
            canon_sol.diagnostics["geometry"],
            blowup_fits(canon_sol.fields),
            blowup_fits(canon_sol.fields, 16),
        ]
        for group in groups:
            for name, rec in group.items():
                assert isinstance(rec, SubCheck), name
                assert isinstance(rec.passed, bool) and rec.passed == (rec.margin <= 1.0), name

    def test_zero_tolerance_keeps_the_rule(self, canon_sol):
        fit = blowup_fits(canon_sol.fields)
        coeff = fit["alpha_linear_coeff"]
        for rec in (
            SubCheck.of(coeff.value, 0.0, 0.0),
            SubCheck.of(0.0, 0.0, 0.0),
            canon_sol.diagnostics["geometry"]["positive_margins"],
        ):
            assert rec.passed == (rec.margin <= 1.0)
            assert rec.passed == (abs(rec.value - rec.target) <= rec.tolerance)

    def test_bundled_measured_is_worst_margin(self, canon_report, rep):
        by_name = {c["name"]: c for c in canon_report["checks"] + rep["checks"]}
        for name in ("outer_corner_limits", "shock_geometry", "jump_residuals_on_shock",
                     "ahead_model_structure"):
            c = by_name[name]
            assert c["measured"] == max(e.margin for e in c["detail"].values()), name
            assert (c["target"], c["tolerance"]) == (0.0, 1.0)
        blow = by_name["blowup_signature"]
        margins = [e.margin for fit in blow["detail"]["rows"].values() for e in fit.values()]
        assert blow["measured"] == max(margins)
        assert (blow["target"], blow["tolerance"]) == (0.0, 1.0)
