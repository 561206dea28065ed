"""shockdev benchmark: one workload run, from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` the run measures the end-to-end metrics: ``setup_s``
(median over fresh processes of import + config + ``build_problem``),
``wall_ref`` (median wall time of one unit, in passes of the reference
loop timed before, during and after it; see ``reference.py``),
``peak_rss_mb`` (peak resident memory of the workload process) and
``ok_frac`` (units that passed their output check over units attempted).
With ``--trace 1`` it runs one unit untraced and one traced, and reports
the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Workload processes run one at a time, with the BLAS/OpenMP thread pools
capped at the CPUs this process may use.  The solver is imported from the
checkout's ``src``; without it the run stops with exit code 2.  See
``perfbench/README.md`` for the workloads and the layer metrics.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from common import (
    BENCH_DIR,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    ROOT,
    SRC,
    WORK_DIR,
    check_report,
    golden_path,
    load_golden,
    run_units,
)
from reference import reference_pass

# kind of unit and grid size; ``smoke_n`` is the size used by --smoke
WORKLOADS = {
    "solve_n64": {"kind": "solve", "n": 64, "smoke_n": 8},
    "interior_n256": {"kind": "interior", "n": 256, "smoke_n": 16},
    "report_n16": {"kind": "report", "n": 16, "smoke_n": 16},
}
# frozen-curve starting slopes with a golden copy each
INTERIOR_A = (0.0, 0.05, 0.1)
# set-up processes timed before the units, and as many after them
SETUP_REPEATS = 3
# reference passes (about 60 ms each) before the traced run's units, and as many after
PROBE_PASSES = 15
# every child process is killed when the run gets this old
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER = str(BENCH_DIR / "worker.py")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed unit)."""


def workload_inputs(name: str, seed: int) -> dict:
    """The inputs a workload's program receives, made from the seed alone."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    if spec["kind"] == "solve":
        return {"a": rng.uniform(0.0, 0.1)}
    if spec["kind"] == "interior":
        return {"a": rng.choice(INTERIOR_A)}
    return {"checks_seed": rng.randrange(1, 2**31)}


class Runner:
    """Starts the child processes of one run and enforces its deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.log = work / "children.log"
        nproc = len(os.sched_getaffinity(0))
        env = {k: v for k, v in os.environ.items() if not k.startswith("SHOCKDEV_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p
        )
        for var in THREAD_VARS:
            cur = env.get(var, "")
            if not (cur.isdigit() and 0 < int(cur) <= nproc):
                env[var] = str(nproc)
        self.env = env
        self.nproc = nproc

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:g} s")
        return left

    def run(self, args) -> tuple[int, float]:
        """Run a child to completion; returns (exit code, peak RSS in MB)."""
        timeout = self._timeout()
        with open(self.log, "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=ROOT,
            )
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"child {args[:2]} killed by signal {-proc.returncode}")
        return proc.returncode, usage.ru_maxrss / 1024.0

    def time_setup(self) -> float:
        """Seconds from spawning a fresh interpreter to its built problem."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "setup"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT,
        )
        try:
            with proc.stdout:
                line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=self._timeout())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != b"ready" or code != 0:
            raise BenchError(f"setup process failed (exit {code})")
        return elapsed

    def worker(self, args) -> tuple[dict, float]:
        """Run the workload process; returns (its result, its peak RSS in MB)."""
        result = self.work / "result.json"
        code, rss = self.run([WORKER, *args, "--result", str(result)])
        if code != 0:
            tail = self.log.read_text(errors="replace").splitlines()[-20:]
            raise BenchError(f"workload process exited {code}:\n" + "\n".join(tail))
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), rss


def write_config(runner: Runner, n: int, checks_seed: int) -> Path:
    """Config of a report unit: the canonical problem at grid size n."""
    config = runner.work / "run.ini"
    config.write_text(f"[solver]\nn = {n}\n\n[checks]\nseed = {checks_seed}\n", encoding="utf-8")
    return config


def report_units(runner: Runner, n: int, checks_seed: int, seconds: float):
    """Timed report units: each one a fresh process running ``shockdev run``."""
    config = write_config(runner, n, checks_seed)
    golden = load_golden("report", n)
    peak = [0.0]

    def attempt():
        out = runner.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        before = reference_pass()
        t0 = time.perf_counter()
        res, rss = runner.worker(["report", "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - t0 - res["spent"]
        after = reference_pass()
        peak[0] = max(peak[0], rss)
        ref = statistics.fmean([before, *res["passes"], after])
        return elapsed, check_report(out, res["code"], golden), ref

    times, errors, refs = run_units(attempt, seconds)
    return times, errors, refs, peak[0]


def measure_timed(runner: Runner, kind: str, n: int, inputs: dict, seconds: float):
    """End-to-end run; returns (unit times, unit errors, metrics, notes)."""
    setups = [runner.time_setup() for _ in range(SETUP_REPEATS)]
    if kind == "report":
        times, errors, refs, rss = report_units(runner, n, inputs["checks_seed"], seconds)
    else:
        res, rss = runner.worker(
            [kind, "--n", str(n), "--a", repr(inputs["a"]), "--seconds", repr(seconds)]
        )
        times, errors, refs = res["unit_s"], res["errors"], res["ref_s"]
    # after the units too, so that the median spans the run's host speeds
    setups += [runner.time_setup() for _ in range(SETUP_REPEATS)]
    # medians over the passing units, or over all units when none passed
    passed = [e is None for e in errors]
    keep = passed if any(passed) else [True] * len(errors)
    values = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(t / r for t, r, k in zip(times, refs, keep) if k),
        "peak_rss_mb": rss,
        "ok_frac": sum(passed) / len(times),
    }
    notes = {
        "units": len(times),
        "unit_s": times,
        "wall_s": statistics.median(t for t, k in zip(times, keep) if k),
        "ref_s": refs,
        "setup_s_samples": setups,
        "fail_frac": 1.0 - values["ok_frac"],
    }
    return times, errors, values, notes


def measure_traced(runner: Runner, name: str, n: int, inputs: dict):
    """Per-layer run: one unit untraced, then one traced."""
    kind = WORKLOADS[name]["kind"]
    trace_path = WORK_DIR / f"trace-{name}-n{n}.json"
    if kind == "report":
        config = write_config(runner, n, inputs["checks_seed"])
        args = ["report", "--n", str(n), "--config", str(config),
                "--out", str(runner.work / "out")]
    else:
        args = [kind, "--n", str(n), "--a", repr(inputs["a"])]
    probes = [reference_pass() for _ in range(PROBE_PASSES)]
    res, _ = runner.worker([*args, "--trace", str(trace_path)])
    probes += [reference_pass() for _ in range(PROBE_PASSES)]
    values = dict(res["layers"])
    values["host.probe_s"] = statistics.median(probes)
    notes = {
        "trace_file": str(trace_path.relative_to(ROOT)),
        "untraced_unit_s": res["unit_s"][0],
        "traced_unit_s": res["unit_s"][1],
        "self_s_total": res["self_s_total"],
        "host_probe_s": probes,
    }
    return res["unit_s"], res["errors"], values, notes


def check_checkout(name: str, n: int) -> None:
    if not (SRC / "shockdev" / "__init__.py").is_file():
        raise BenchError(f"no shockdev sources under {SRC}")
    kind = WORKLOADS[name]["kind"]
    if not golden_path(kind, n).is_file():
        raise BenchError(f"no golden copy {golden_path(kind, n)}")


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shockdev benchmark (one workload run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small grids, for testing the benchmark itself")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)

    spec = WORKLOADS[args.workload]
    n = spec["smoke_n"] if args.smoke else spec["n"]
    inputs = workload_inputs(args.workload, args.seed)
    try:
        check_checkout(args.workload, n)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        with open(WORK_DIR / "lock", "w") as lock:
            # one workload process at a time, also across concurrent runs
            fcntl.flock(lock, fcntl.LOCK_EX)
            deadline = time.monotonic() + RUN_DEADLINE_S
            work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
            try:
                runner = Runner(Path(work), deadline)
                if args.trace:
                    measured = measure_traced(runner, args.workload, n, inputs)
                else:
                    measured = measure_timed(runner, spec["kind"], n, inputs, args.seconds)
                times, errors, values, notes = measured
            finally:
                shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload, "seed": args.seed, "n": n, "inputs": inputs,
        "seconds": args.seconds, "trace": args.trace, "nproc": runner.nproc,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), **notes,
    }
    print("info " + json.dumps(info, sort_keys=True))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for err in filter(None, errors):
        print(f"failed unit: {err}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{key:40s} {values[key]:.6g} {unit}")
    if not args.trace:
        print(f"{'fail_frac':40s} {notes['fail_frac']:.6g} frac ({len(times)} units)")
    failed = sum(e is not None for e in errors)
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
