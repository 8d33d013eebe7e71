#!/bin/sh
# Dead-code check, in two passes.
#
# Modules: every library module (lib/*/*.ml) must be reachable from
# shipped code -- bin/, bench/, benchmark/ or examples/ -- through module
# references.  A module referenced only from its own files, from test/, or
# from other modules that are themselves unreachable fails the check: it
# is code no caller runs, kept alive by its tests alone.
#
# Values: every `val` a library interface (lib/*/*.mli) exports must be
# named by shipped code outside its own module's .ml/.mli -- lib/, bin/,
# bench/, benchmark/ or examples/.  As with modules, test/ does not count:
# an export only tests name is surface kept alive by its tests alone.
#
# References are identifiers in the sources with comments and string
# literals stripped, so a doc comment naming a module or value does not
# keep it alive.  Usage: scripts/check_dead_modules.sh
set -eu
cd "$(dirname "$0")/.."

# Modules with no shipped caller that stay on purpose, one per line with
# the reason after the name.
ALLOW='
'

# Exported values no shipped caller names that stay on purpose, one per
# line as Module.value with the reason after it.  A value qualifies when a
# differential test compares it with an oracle, when many tests build
# fixtures with it, or when it reproduces a paper behaviour no shipped
# path triggers yet.
ALLOW_VALUES='
Async_solver.rack_overflows  test_properties compares it with Oracles.rack_overflow_reference
Basis.pivot_order  test_basis compares it with Oracles.lu_pivot_order_reference
Failure_model.calm_params  failure-free fixture of the failures suite and the system tests
Formulation.encode  oracles.ml reference heuristics and the property tests build solutions with it
Hardware.find_by_code  request and reservation fixtures pick hardware by the paper code
Reactive.available_in_bucket  the index differential compares every bucket with a fresh rebuild
Reactive.grant  the emergency grant of paper section 5.4; compared with Oracles.grant_reference
Reactive.price  compared with the prices re-derived from row names in the tier-1 price test
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

unreasoned=$(printf '%s\n%s\n' "$ALLOW" "$ALLOW_VALUES" | awk 'NF == 1 { print $1 }')
if [ -n "$unreasoned" ]; then
  echo "allow-list entries without a reason:"
  printf '  %s\n' $unreasoned
  status=1
fi

# Drop (nested) comments, string literals and char literals.
strip() {
  awk '
    {
      line = $0; out = ""; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (instr) {
          if (c == "\\") i++
          else if (c == "\"") instr = 0
        } else if (c2 == "(*") { depth++; i++ }
        else if (depth > 0 && c2 == "*)") { depth--; i++ }
        else if (depth > 0) { }
        else if (c == "\"") instr = 1
        else if (c == "\047" && substr(line, i + 2, 1) == "\047") i += 2
        else if (c == "\047" && substr(line, i + 1, 1) == "\\") {
          i += 2
          while (i <= n && substr(line, i, 1) != "\047") i++
        } else out = out c
        i++
      }
      print out
    }' "$@"
}

# Every capitalised identifier left after [strip], one per line.
idents() {
  strip "$@" | tr -c 'A-Za-z0-9_\n' '\n' | grep -E '^[A-Z][A-Za-z0-9_]*$' | sort -u || true
}

modname() {
  b=$(basename "$1" .ml)
  b=$(basename "$b" .mli)
  first=$(printf '%s' "$b" | cut -c1 | tr 'a-z' 'A-Z')
  printf '%s%s\n' "$first" "$(printf '%s' "$b" | cut -c2-)"
}

for f in lib/*/*.ml; do modname "$f"; done | sort -u > "$tmp/modules"

# edges: "<from> <to>" for every library module a source file names;
# shipped code outside lib/ is the single root ROOT
: > "$tmp/edges"
for f in lib/*/*.ml lib/*/*.mli; do
  from=$(modname "$f")
  idents "$f" | grep -Fxf "$tmp/modules" | grep -vFx "$from" |
    sed "s/^/$from /" >> "$tmp/edges" || true
done
find bin bench benchmark examples -name '*.ml' -o -name '*.mli' 2>/dev/null |
  while read -r f; do idents "$f"; done | grep -Fxf "$tmp/modules" |
  sed 's/^/ROOT /' >> "$tmp/edges" || true
sort -u "$tmp/edges" -o "$tmp/edges"

# reachability from ROOT
echo ROOT > "$tmp/reached"
while :; do
  awk 'NR == FNR { r[$1] = 1; next } ($1 in r) && !($2 in r) { print $2 }' \
    "$tmp/reached" "$tmp/edges" | sort -u > "$tmp/new"
  [ -s "$tmp/new" ] || break
  cat "$tmp/new" >> "$tmp/reached"
done

printf '%s\n' "$ALLOW" | awk 'NF { print $1 }' > "$tmp/allowed"
dead=$(grep -vFxf "$tmp/reached" "$tmp/modules" | grep -vFxf "$tmp/allowed" || true)
if [ -n "$dead" ]; then
  echo "dead library modules (no caller in bin/, bench/, benchmark/ or examples/):"
  printf '  %s\n' $dead
  status=1
else
  echo "dead-module check OK ($(wc -l < "$tmp/modules") modules)"
fi

# Value pass.  refs: "<identifier> <file>" for every lowercase identifier a
# shipped source names; vals: "<value> <interface>" for every exported value.
find lib bin bench benchmark examples -name '*.ml' -o -name '*.mli' 2>/dev/null |
  sort | while read -r f; do
    strip "$f" | tr -c 'A-Za-z0-9_\n' '\n' | grep -E '^[a-z_][A-Za-z0-9_]*$' | sort -u |
      sed "s|\$| $f|" || true
  done > "$tmp/refs"
for f in lib/*/*.mli; do
  strip "$f" | sed -n 's/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_]*\).*/\1/p' |
    sed "s|\$| $f|"
done > "$tmp/vals"
awk '
  NR == FNR { files[$1] = files[$1] " " $2; next }
  {
    base = $2; sub(/\.mli$/, "", base)
    n = split(files[$1], fs, " "); used = 0
    for (i = 1; i <= n; i++) if (fs[i] != base ".ml" && fs[i] != base ".mli") used = 1
    if (!used) {
      m = base; sub(/.*\//, "", m)
      print toupper(substr(m, 1, 1)) substr(m, 2) "." $1
    }
  }' "$tmp/refs" "$tmp/vals" | sort -u > "$tmp/unnamed"
printf '%s\n' "$ALLOW_VALUES" | awk 'NF { print $1 }' > "$tmp/allowed_values"
dead=$(grep -vFxf "$tmp/allowed_values" "$tmp/unnamed" || true)
if [ -n "$dead" ]; then
  echo "exported values no shipped code outside their own module names:"
  printf '  %s\n' $dead
  status=1
else
  echo "dead-value check OK ($(wc -l < "$tmp/vals") exported values)"
fi
exit $status
