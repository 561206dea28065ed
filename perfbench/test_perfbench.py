"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_perfbench.py

The smoke runs use the small grids of ``run.py --smoke``; the report
workload has no smaller form, so its two runs take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import common  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(workload, trace, seed=1):
    """Run the benchmark in smoke mode; returns (exit code, info, last line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), None)
    return proc.returncode, info, (json.loads(lines[-1]) if proc.returncode == 0 else None)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    code, info, result = bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = common.PER_LAYER_UNITS if trace else common.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for key in ("nproc", "python", "numpy", "scipy", "seed"):
        assert key in info
    if trace:
        # spans nest inside the unit, so their self times cannot add up to more
        wall = info["traced_unit_s"]
        doc = json.loads((ROOT / info["trace_file"]).read_text())
        tr = Tracer()
        tr.spans = doc["spans"]
        _, incl, self_s = tr.summary()
        assert all(0.0 <= s <= wall for s in self_s.values())
        assert sum(self_s.values()) <= wall
        assert all(s <= wall for s in incl.values())
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, _, result = bench("solve_n64", 1, seed=7)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["free_boundary.outer_iterate.calls"] > 0
    assert counts[0]["jump.solve_jump_beta.calls"] > 0


def test_failing_unit_is_counted_not_raised():
    # eps = 0.08 leaves the pre-shock chart's range at this commit
    times, errors, refs = common.run_units(
        lambda: reference.sampled(
            lambda: worker.attempt(lambda: worker.solve_unit(8, 0.0, eps=0.08), lambda sol: None)
        ),
        0.0,
    )
    assert len(times) == 1 and times[0] > 0 and refs[0] > 0
    assert errors[0] is not None and "OutOfRange" in errors[0]


def test_units_stop_when_the_next_would_overrun():
    # the second unit's reported time makes the loop stop after it
    units = iter([(0.0, None, 1.0), (100.0, "failed", 2.0)])
    times, errors, refs = common.run_units(lambda: next(units), 10.0)
    assert times == [0.0, 100.0] and errors == [None, "failed"] and refs == [1.0, 2.0]


def test_sampler_passes_are_taken_out_of_the_unit():
    busy = 3 * reference.SAMPLE_S

    def attempt():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < busy:
            pass
        return time.perf_counter() - t0, None

    with reference.Sampler() as sampler:
        attempt()
    assert len(sampler.passes) >= 2 and sampler.spent > 0
    unit_s, err, ref = reference.sampled(attempt)
    assert err is None and ref > 0
    assert 0 < unit_s < busy


def test_solve_check_rejects_a_moved_curve():
    sol = worker.solve_unit(8, 0.05)
    golden = common.load_golden("solve", 8)
    assert worker.check_solve(sol, golden) is None
    moved = {k: list(v) for k, v in golden["columns"].items()}
    moved["y"][-1] += 10 * common.TOL
    assert worker.check_solve(sol, {"columns": moved}) is not None


def test_report_check_rejects_changed_outputs(tmp_path):
    golden = common.load_golden("report", 16)
    cols = golden["columns"]

    def write(passed, columns):
        checks = [{"name": k, "pass": v} for k, v in passed.items()]
        (tmp_path / "report.json").write_text(json.dumps({"checks": checks}))
        rows = [",".join(common.CURVE_COLUMNS)]
        for k in range(len(columns["v"])):
            rows.append(",".join("%.16e" % columns[c][k] for c in common.CURVE_COLUMNS))
        (tmp_path / "shock.csv").write_text("\n".join(rows) + "\n")

    write(golden["passed"], cols)
    assert common.check_report(tmp_path, golden["exit_code"], golden) is None
    assert common.check_report(tmp_path, golden["exit_code"] + 1, golden) is not None
    flipped = dict(golden["passed"])
    flipped["blowup_signature"] = not flipped["blowup_signature"]
    write(flipped, cols)
    assert common.check_report(tmp_path, golden["exit_code"], golden) is not None
    moved = {k: list(v) for k, v in cols.items()}
    moved["V"][3] += 10 * common.TOL
    write(golden["passed"], moved)
    assert common.check_report(tmp_path, golden["exit_code"], golden) is not None


def test_inputs_come_from_the_seed():
    for name in run.WORKLOADS:
        assert run.workload_inputs(name, 3) == run.workload_inputs(name, 3)
    assert 0.0 <= run.workload_inputs("solve_n64", 3)["a"] <= 0.1
    assert {run.workload_inputs("interior_n256", s)["a"] for s in range(40)} == set(run.INTERIOR_A)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
