"""Write the golden copies the benchmark checks its outputs against.

    python3 perfbench/make_golden.py

Run it from a source checkout at the commit whose outputs are the
reference.  It solves every workload at its full and its smoke grid size
(for the interior workload, at every starting slope the seed can pick) and
overwrites ``perfbench/golden/``.  A later change may move rounding, but
its outputs must stay within ``common.TOL`` of these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from common import GOLDEN_DIR, ROOT, SRC, golden_path, report_outcome

sys.path.insert(0, str(SRC))

import worker  # noqa: E402  (needs SRC on the path)
from run import INTERIOR_A, WORKLOADS  # noqa: E402


def dump(kind: str, n: int, doc: dict) -> None:
    path = golden_path(kind, n)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for spec in WORKLOADS.values():
        kind = spec["kind"]
        for n in sorted({spec["n"], spec["smoke_n"]}):
            if kind == "solve":
                sol = worker.solve_unit(n, 0.0)
                dump(kind, n, {"n": n, "a": 0.0, "columns": worker.curve_columns(sol.curve)})
            elif kind == "interior":
                per_a = {repr(a): worker.interior_outcome(worker.interior_unit(n, a)) for a in INTERIOR_A}
                dump(kind, n, {"n": n, "a": per_a})
            else:
                with tempfile.TemporaryDirectory() as tmp:
                    config = Path(tmp) / "run.ini"
                    config.write_text(f"[solver]\nn = {n}\n", encoding="utf-8")
                    code = worker.report_unit(config, Path(tmp) / "out")
                    dump(kind, n, {"n": n, **report_outcome(Path(tmp) / "out", code)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
