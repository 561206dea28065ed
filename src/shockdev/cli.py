"""Command-line interface.

Subcommands:

* ``run``    — solve the configured problem, write the grid and shock
  CSVs plus the JSON diagnostics report, and print one pass/fail line
  per check.
* ``verify`` — run only the pointwise property checks (no boundary-value
  solve) and print their pass/fail lines.
* ``sweep``  — repeat the solve over a list of grid sizes or domain
  sizes and print a convergence table.

Exit codes: 0 all checks passed (or nothing to do), 2 configuration or
usage error, 3 solver failure or failed checks.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import build_problem, load_config
from .errors import ConfigError, ShockDevError
from .fixed_bvp import write_grid_csv
from .free_boundary import run_shock_development, write_shock_csv
from .report import (
    compute_bundle,
    format_check_lines,
    full_report,
    verify_report,
    write_report,
)
from .state_ahead import synthesize_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shockdev",
        description="Construct and check the shock development solution "
        "for a barotropic relativistic fluid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve, write outputs, check everything")
    run.add_argument("--config", metavar="PATH", default=None,
                     help="config file (INI-style sections or JSON)")
    run.add_argument("--out", metavar="DIR", default=".",
                     help="directory for the CSV and report outputs")

    verify = sub.add_parser("verify", help="pointwise property checks only")
    verify.add_argument("--config", metavar="PATH", default=None)

    sweep = sub.add_parser("sweep", help="convergence table over a parameter list")
    sweep.add_argument("--config", metavar="PATH", default=None)
    group = sweep.add_mutually_exclusive_group()
    group.add_argument("--n", metavar="N", type=int, nargs="*", default=None,
                       help="grid sizes to sweep")
    group.add_argument("--eps", metavar="EPS", type=float, nargs="*", default=None,
                       help="domain sizes to sweep")
    return parser


def _print_summary(report: dict, stream) -> None:
    for line in format_check_lines(report):
        print(line, file=stream)
    counts = report["counts"]
    verdict = "all checks passed" if report["all_pass"] else "checks FAILED"
    print(f"{counts['passed']}/{counts['total']} passed - {verdict}", file=stream)


def cmd_run(args, stdout, stderr) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        eos, cusp, model, bundle = compute_bundle(cfg)
        report = full_report(cfg, bundle=bundle)
    except ShockDevError as exc:
        print(f"setup error: {exc}", file=stderr)
        return EXIT_CONFIG

    write_report(report, out_dir / cfg.report_json)
    if bundle.base is not None:
        write_grid_csv(bundle.base.fields, out_dir / cfg.grid_csv)
        write_shock_csv(bundle.base.curve, out_dir / cfg.shock_csv)
        print(f"wrote {out_dir / cfg.grid_csv}", file=stdout)
        print(f"wrote {out_dir / cfg.shock_csv}", file=stdout)
    else:
        print(f"solver failed: {report['solver']['error']}", file=stderr)
    print(f"wrote {out_dir / cfg.report_json}", file=stdout)

    _print_summary(report, stdout)
    return EXIT_OK if report["all_pass"] else EXIT_FAILED


def cmd_verify(args, stdout, stderr) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG
    try:
        report = verify_report(cfg)
    except ShockDevError as exc:
        print(f"setup error: {exc}", file=stderr)
        return EXIT_CONFIG
    _print_summary(report, stdout)
    return EXIT_OK if report["all_pass"] else EXIT_FAILED


def _sweep_rows(cfg, eos, cusp, model, ns, epses, stderr):
    """Solve once per sweep value; yield (label, value, solution-or-None)."""
    rows = []
    opts = cfg.solver_options()
    if ns is not None:
        for n in ns:
            try:
                sol = run_shock_development(eos, model, cusp, eps=cfg.eps, n=n, **opts)
            except ShockDevError as exc:
                print(f"n={n}: {type(exc).__name__}: {exc}", file=stderr)
                sol = None
            rows.append(("n", n, sol))
    else:
        for eps in epses:
            try:
                model_e = synthesize_model(cusp, eos, eps=eps)
                sol = run_shock_development(
                    eos, model_e, cusp, eps=eps, n=cfg.n, **opts
                )
            except ShockDevError as exc:
                print(f"eps={eps}: {type(exc).__name__}: {exc}", file=stderr)
                sol = None
            rows.append(("eps", eps, sol))
    return rows


def _print_n_table(rows, stdout) -> None:
    print(f"{'n':>6} {'residual_max':>14} {'y_end':>14} {'iters':>6} {'order':>7}",
          file=stdout)
    prev = None
    for _, n, sol in rows:
        if sol is None:
            print(f"{n:>6} {'failed':>14}", file=stdout)
            prev = None
            continue
        res = sol.diagnostics["residuals"]["max"]
        order = ""
        if prev is not None and res > 0 and prev[1] > 0 and n != prev[0]:
            order = f"{math.log(prev[1] / res) / math.log(n / prev[0]):7.3f}"
        print(
            f"{n:>6} {res:>14.6e} {sol.curve.y[-1]:>14.8f} "
            f"{len(sol.outer_history):>6} {order:>7}",
            file=stdout,
        )
        prev = (n, res)


def _print_eps_table(rows, stdout) -> None:
    print(
        f"{'eps':>10} {'outer_ratio':>12} {'inner_ratio':>12} "
        f"{'y_end':>14} {'iters':>6}",
        file=stdout,
    )
    for _, eps, sol in rows:
        if sol is None:
            print(f"{eps:>10.6g} {'failed':>12}", file=stdout)
            continue
        m = [max(h) for h in sol.outer_history]
        outer = m[1] / m[0] if len(m) > 1 and m[0] > 0 else float("nan")
        ch = sol.fields.changes
        inner = ch[1] / ch[0] if len(ch) > 1 and ch[0] > 0 else float("nan")
        print(
            f"{eps:>10.6g} {outer:>12.6f} {inner:>12.3e} "
            f"{sol.curve.y[-1]:>14.8f} {len(sol.outer_history):>6}",
            file=stdout,
        )


def cmd_sweep(args, stdout, stderr) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG

    ns, epses = args.n, args.eps
    if not ns and not epses:
        print("nothing to sweep", file=stdout)
        return EXIT_OK
    if ns is not None and any(n < 2 for n in ns):
        print("config error: sweep grid sizes must be >= 2", file=stderr)
        return EXIT_CONFIG
    if epses is not None and any(not e > 0 for e in epses):
        print("config error: sweep domain sizes must be positive", file=stderr)
        return EXIT_CONFIG

    try:
        eos, cusp, model = build_problem(cfg)
    except ShockDevError as exc:
        print(f"setup error: {exc}", file=stderr)
        return EXIT_CONFIG

    rows = _sweep_rows(cfg, eos, cusp, model, ns, epses, stderr)
    if ns is not None:
        _print_n_table(rows, stdout)
    else:
        _print_eps_table(rows, stdout)
    return EXIT_OK if all(sol is not None for _, _, sol in rows) else EXIT_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}
    return handlers[args.command](args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
