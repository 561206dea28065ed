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
from .fixed_bvp import grid_errors, write_grid_csv
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


def cmd_run(args, cfg, stdout, stderr) -> int:
    bundle = compute_bundle(cfg)
    report = full_report(cfg, bundle)

    # made only once there is something to write, so a refused run leaves none
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_verify(args, cfg, stdout, stderr) -> int:
    report = verify_report(cfg)
    _print_summary(report, stdout)
    return EXIT_OK if report["all_pass"] else EXIT_FAILED


def _sweep_rows(cfg, eos, cusp, model, ns, epses, stderr):
    """Solve once per sweep value.

    Returns (n, solution, residual max) rows for ``ns``, else (eps,
    solution) rows; a failed row holds None.  Reading the residual max
    computes the diagnostics, so it happens here, where a failing
    diagnostic fails its row as a failed solve does.
    """
    rows = []
    if ns is not None:
        for n in ns:
            try:
                sol = run_shock_development(eos, model, cusp, eps=cfg.eps, n=n)
                rows.append((n, sol, sol.diagnostics["residuals"]["max"]))
            except ShockDevError as exc:
                print(f"n={n}: {type(exc).__name__}: {exc}", file=stderr)
                rows.append((n, None, None))
    else:
        for eps in epses:
            try:
                model_e = synthesize_model(cusp, eos, eps=eps)
                sol = run_shock_development(eos, model_e, cusp, eps=eps, n=cfg.n)
            except ShockDevError as exc:
                print(f"eps={eps}: {type(exc).__name__}: {exc}", file=stderr)
                sol = None
            rows.append((eps, sol))
    return rows


def _print_n_table(rows, stdout) -> None:
    print(f"{'n':>6} {'residual_max':>14} {'y_end':>14} {'iters':>6} {'order':>7}",
          file=stdout)
    prev = None
    for n, sol, res in rows:
        if sol is None:
            print(f"{n:>6} {'failed':>14}", file=stdout)
            prev = None
            continue
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
    for eps, sol in rows:
        if sol is None:
            print(f"{eps:>10.6g} {'failed':>12}", file=stdout)
            continue
        print(
            f"{eps:>10.6g} {sol.outer_ratio:>12.6f} {sol.inner_ratio:>12.3e} "
            f"{sol.curve.y[-1]:>14.8f} {len(sol.outer_history):>6}",
            file=stdout,
        )


def cmd_sweep(args, cfg, stdout, stderr) -> int:
    ns, epses = args.n, args.eps
    if not ns and not epses:
        print("nothing to sweep", file=stdout)
        return EXIT_OK
    swept = [(cfg.eps, n) for n in ns] if ns is not None else [(e, cfg.n) for e in epses]
    bad = [f"{name} {text}" for eps, n in swept for name, text in grid_errors(eps, n)]
    if bad:
        raise ConfigError("invalid sweep:\n  " + "\n  ".join(bad))
    eos, cusp, model = build_problem(cfg)

    rows = _sweep_rows(cfg, eos, cusp, model, ns, epses, stderr)
    if ns is not None:
        _print_n_table(rows, stdout)
    else:
        _print_eps_table(rows, stdout)
    return EXIT_OK if all(row[1] is not None for row in rows) else EXIT_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}
    # a bad config, or a setup that fails before any solve, is exit 2
    try:
        cfg = load_config(args.config)
        return handlers[args.command](args, cfg, sys.stdout, sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except ShockDevError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
