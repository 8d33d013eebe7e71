#!/bin/sh
# Repository check: build, dead-code check, full test suite, and a quick
# solver-kernel bench smoke run (same entry points CI uses).
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dead-module and dead-value check =="
sh scripts/check_dead_modules.sh

# the sparse-vs-dense batteries inside the suite solve every instance
# under both LU kinds (traversal and full scan), so one run covers both
echo "== dune runtest =="
dune runtest

echo "== bench smoke (kernels --quick, incl. large rows) =="
dune exec bench/main.exe -- --quick kernels

# the region-scale, tier-1 reactive and LU identity batteries again at the
# full 10^6-server preset (the quick runtest above covers the reduced sweep
# and skips the scale-gated pins); kept separate so a laptop run can
# skip them by exporting RAS_SCALE_TESTS=quick first
if [ "${RAS_SCALE_TESTS:-full}" = "full" ]; then
  echo "== region-scale sweep at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test region_scale
  echo "== tier-1 reactive battery at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test reactive
  echo "== LU identity battery on 10^6-server root bases (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test basis
fi

echo "== check OK =="
