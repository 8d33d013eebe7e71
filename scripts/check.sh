#!/bin/sh
# Repository check: build, dead-code check, full test suite, a quick
# solver-kernel bench smoke run and the multi-round figures with their
# checked claims (same entry points CI uses).
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

# every library module and exported value needs a shipped caller: bin/,
# bench/, benchmark/, examples/ or (for values) lib/ outside its own
# module; a test alone keeps neither alive.  A value counts only where it
# is named qualified (Module.value, or through a module alias or an open),
# every exported optional argument needs a shipped call that passes it,
# and an allow-list entry that is gone or now used fails as stale
echo "== dead-module and dead-value check =="
sh scripts/check_dead_modules.sh

# the kernel batteries inside the suite pin every sparse solve they probe
# against the all-steps dense solve on the same factors, bit for bit, as
# factored and along Forrest-Tomlin update chains; the warm-start battery
# pins every node LP of a tree restarted hot in its parent's solver state
# against the same node solved from its snapshot, bit for bit;
# runtest also runs `ras_bench.exe --smoke` (benchmark/dune), whose
# check_round verifies, through System, that every available server sits
# on its target owner and that capacity plus shortfall covers each request,
# the five examples, and each `ras_sim` subcommand once (bin/dune)
echo "== dune runtest (test suite + ras_bench --smoke + examples + ras_sim) =="
dune runtest

# includes the 10^6-server `large` rows (lp-large-*, the
# reactive-restore-{medium,large} time-to-restore rows and the
# snapshot-{medium,large} demand-change rows), keeping the paper-regime
# perf rows on the artifact trail
echo "== bench smoke (kernels --quick, incl. large rows) =="
dune exec bench/main.exe -- --quick kernels

# every other experiment in quick mode: the multi-round figures, each a
# System loop, with their checked claims as a gate (main.exe exits 1 when
# fewer than 90% of Fig. 9's phase-1 solves are within 200 preemptions of
# their bound or fewer than 99% are proven on the softened constraints,
# or when a server of a reservation not yet enabled changes owner during
# Fig. 12's or Fig. 14's ramp), and table1, figs. 2-5, 8, 10, 11, 16 and
# the ablations, which call Symmetry.build, Formulation.build and
# Phases.run directly
echo "== every experiment and its claims (--quick) =="
dune exec bench/main.exe -- --quick table1 fig2 fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 \
  fig12 fig13 fig14 fig15 fig16 ablations

# the region-scale, tier-1 reactive and LU identity batteries again at the
# full 10^6-server preset (the quick runtest above covers the reduced sweep
# and skips the scale-gated pins); kept separate so a laptop run can
# skip them by exporting RAS_SCALE_TESTS=quick first
if [ "${RAS_SCALE_TESTS:-full}" = "full" ]; then
  # the scale sweep must compile the identical model at servers_per_rack
  # 1 / 5 / 48, the disaggregation round trip at 10^6 servers must pick
  # the oracle's moves (class walk and merge) and leave its target column
  # after the apply, and the compile pin must find the 10^6-server rounds'
  # models and a rack-level model compiled bit for bit as the per-row
  # table-and-sort compile (Oracles.compile_reference) compiles them
  echo "== region-scale sweep at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test region_scale
  # the O(n)->O(classes) event-path pins only bite at this preset:
  # per-event visited servers/classes and grant allocation stay bounded by
  # class structure on the 10^6-server broker
  echo "== tier-1 reactive battery at 10^6 servers (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test reactive
  # adds the crash and optimal root bases of the 10^6-server phase-1 model
  # (bring-up and one post-failure round): the singleton pass and the
  # count-heap elimination must pivot in the rescan oracle's order on
  # them, the crash bases must be all column singletons, and on the root
  # bases every sparse solve probed must equal the dense one bit for bit,
  # with small residuals, as factored and after each update of a
  # Forrest-Tomlin update chain on top of them
  echo "== LU identity battery on 10^6-server root bases (RAS_SCALE_TESTS=full) =="
  RAS_SCALE_TESTS=full dune exec test/test_main.exe -- test basis
fi

echo "== check OK =="
