#!/usr/bin/env bash
# Runs `shockdev run` twice, into OUTDIR/1 and OUTDIR/2, and requires the
# two runs to write the same report.json, shock.csv and grid.csv bytes.
#
# Usage: deterministic-run.sh [--same-exit] OUTDIR
#
# Both runs must exit 0. With --same-exit, for a config whose report fails
# a check, the two exit codes need only equal each other.
set -eu
same_exit=0
if [ "${1:-}" = "--same-exit" ]; then
  same_exit=1
  shift
fi
out=$1
if [ "$same_exit" -eq 1 ]; then
  rc1=0
  shockdev run --out "$out/1" || rc1=$?
  rc2=0
  shockdev run --out "$out/2" || rc2=$?
  test "$rc1" -eq "$rc2"
  echo "both runs exited $rc1"
else
  shockdev run --out "$out/1"
  shockdev run --out "$out/2"
fi
for f in report.json shock.csv grid.csv; do
  cmp "$out/1/$f" "$out/2/$f"
done
echo "deterministic: $out (report.json, shock.csv, grid.csv)"
