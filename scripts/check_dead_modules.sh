#!/bin/sh
# Dead-code check, in three passes.
#
# Modules: every library module (lib/*/*.ml) must be reachable from
# shipped code -- bin/, bench/, benchmark/ or examples/ -- through module
# references.  A module referenced only from its own files, from test/, or
# from other modules that are themselves unreachable fails the check: it
# is code no caller runs, kept alive by its tests alone.
#
# Values: every `val` a library interface (lib/*/*.mli) exports must be
# named qualified (rules at the value pass below) by shipped code outside
# its own module's .ml/.mli -- lib/, bin/, bench/, benchmark/ or
# examples/.  As with modules, test/ does not count: an export only tests
# name is surface kept alive by its tests alone.
#
# Optional arguments: every ?label of an exported value must be passed,
# as ~label or ?label, at a call of that value in shipped code -- lib/
# (its own module included), bin/, bench/, benchmark/ or examples/.  An
# option only tests pass is a knob kept alive by its tests alone.
#
# Allow lists: an entry whose module, value or option no longer exists, or
# that shipped code now uses, fails the check as stale.
#
# References are read from the sources with comments and string literals
# stripped, so a doc comment naming a module or value does not keep it
# alive.  Usage: scripts/check_dead_modules.sh
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
Rng.bool  the seeded LP/MIP instance generators of four batteries draw signs and bounds with it
'

# Optional arguments no shipped call passes that stay on purpose, one per
# line as Module.value?label with the behaviour only it reaches after it.
ALLOW_OPTIONS='
Simplex.solve?degen_limit  degen_limit 0 forces the Bland fallback on the cycling fixtures and the golden corpus, which no production solve reaches on them
Simplex.solve?trace  the only view of the Devex weights after each pivot: the property test pins that every weight stays >= 1
'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

unreasoned=$(printf '%s\n%s\n%s\n' "$ALLOW" "$ALLOW_VALUES" "$ALLOW_OPTIONS" |
  awk 'NF == 1 { print $1 }')
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

# Value pass.  An exported value M.v counts as used only where shipped code
# outside M names it qualified: M.v, Lib.M.v, or A.v in a file that binds
# `module A = ....M` (also `let module`).  A value declared in a nested
# signature is qualified by its submodule (Basis.Svec.make).  A file that
# opens M (`open M`, `let open M in`, `M.( ... )`) names every bare
# identifier it holds as M.ident.  A path after a value (r.Region.f) is a
# record field, not a reference.

# library wrapper names (Ras, Ras_mip, ...) a qualified path may start with
sed -n 's/.*(name \([a-z_]*\)).*/\1/p' lib/*/dune |
  awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }' > "$tmp/libs"

# qualified FILE: "<Module.value> FILE" for every qualified value FILE names
# The first of two passes over a stripped source, shared by the value and
# option passes: [resolve] expands an alias at the head of a module path
# and drops library wrappers, and the pass records the file's aliases and
# opens (`open M`, `let open M in`, `M.( ... )`) in file order.
resolve_prelude='
    function resolve(p,   c, n, i, out) {
      n = split(p, c, ".")
      if (c[1] in alias) {
        p = alias[c[1]]
        for (i = 2; i <= n; i++) p = p "." c[i]
        n = split(p, c, ".")
      }
      for (i = 1; i <= n && (c[i] in lib); i++) ;
      out = ""
      for (; i <= n; i++) out = out (out == "" ? "" : ".") c[i]
      return out
    }
    BEGIN { while ((getline l < libs) > 0) lib[l] = 1 }
    FNR == NR {
      line = $0
      while (match(line, /module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_.]*/)) {
        m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        sub(/^module[ \t]+/, "", m)
        a = m; sub(/[ \t]*=.*/, "", a)
        t = m; sub(/.*=[ \t]*/, "", t)
        alias[a] = resolve(t)
      }
      line = $0
      while (match(line, /(^|[^A-Za-z0-9_])open!?[ \t]+[A-Z][A-Za-z0-9_.]*/)) {
        m = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
        sub(/.*open!?[ \t]+/, "", m)
        if ((p = resolve(m)) != "") opened[p] = 1
      }
      line = $0
      while (match(line, /[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)*\.\(/)) {
        m = substr(line, RSTART, RLENGTH - 2); line = substr(line, RSTART + RLENGTH)
        if ((p = resolve(m)) != "") opened[p] = 1
      }
      next
    }'

qualified() {
  strip "$1" > "$tmp/src"
  awk -v file="$1" -v libs="$tmp/libs" "$resolve_prelude"'
    # second pass: qualified paths, and bare names under an open
    {
      gsub(/[^A-Za-z0-9_.]/, " ")
      for (w = 1; w <= NF; w++) {
        k = split($w, c, ".")
        if (c[1] ~ /^[a-z_]/) {
          for (p in opened) print p "." c[1], file
          continue
        }
        if (c[1] !~ /^[A-Z]/) continue
        for (j = 1; j <= k && c[j] ~ /^[A-Z]/; j++) ;
        if (j > k || c[j] !~ /^[a-z_]/) continue
        m = c[1]
        for (i = 2; i < j; i++) m = m "." c[i]
        if ((p = resolve(m)) != "") print p "." c[j], file
      }
    }' "$tmp/src" "$tmp/src" | sort -u
}

# refs: "<Module.value> <file>" for every qualified name a shipped source
# uses; vals: "<Module.value> <interface>" for every exported value
find lib bin bench benchmark examples -name '*.ml' -o -name '*.mli' 2>/dev/null |
  sort | while read -r f; do qualified "$f"; done > "$tmp/refs"
for f in lib/*/*.mli; do
  strip "$f" | awk -v file="$f" -v m="$(modname "$f")" '
    /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/ {
      s = $0; sub(/^[ \t]*module[ \t]+/, "", s); sub(/[ \t:].*/, "", s)
      sub_[++d] = s; next
    }
    /^[ \t]*end([^A-Za-z0-9_]|$)/ && d > 0 { d--; next }
    /^[ \t]*val[ \t]+[a-z_]/ {
      v = $0; sub(/^[ \t]*val[ \t]+/, "", v); sub(/[^A-Za-z0-9_].*/, "", v)
      p = m
      for (i = 1; i <= d; i++) p = p "." sub_[i]
      print p "." v, file
    }'
done > "$tmp/vals"
awk '
  NR == FNR { files[$1] = files[$1] " " $2; next }
  {
    base = $2; sub(/\.mli$/, "", base)
    n = split(files[$1], fs, " "); used = 0
    for (i = 1; i <= n; i++) if (fs[i] != base ".ml" && fs[i] != base ".mli") used = 1
    if (!used) print $1
  }' "$tmp/refs" "$tmp/vals" | sort -u > "$tmp/unnamed"
printf '%s\n' "$ALLOW_VALUES" | awk 'NF { print $1 }' > "$tmp/allowed_values"
dead=$(grep -vFxf "$tmp/allowed_values" "$tmp/unnamed" || true)
if [ -n "$dead" ]; then
  echo "exported values no shipped code outside their own module names qualified:"
  printf '  %s\n' $dead
  status=1
else
  echo "dead-value check OK ($(wc -l < "$tmp/vals") exported values)"
fi

# An allow-list entry must still be needed: a module that no longer exists
# or that shipped code now reaches, a value no interface exports or that
# shipped code now names qualified, fails the check.
awk '{ print $1 }' "$tmp/vals" > "$tmp/exported"
stale=$( (grep -vFxf "$tmp/modules" "$tmp/allowed" || true
          grep -Fxf "$tmp/reached" "$tmp/allowed" || true
          grep -vFxf "$tmp/exported" "$tmp/allowed_values" || true
          grep -vFxf "$tmp/unnamed" "$tmp/allowed_values" || true) | sort -u)
if [ -n "$stale" ]; then
  echo "stale allow-list entries (gone, or now used by shipped code):"
  printf '  %s\n' $stale
  status=1
fi

# Option pass.  options: "<Module.value?label>" for every optional label
# at the top level of an exported value's type.
for f in lib/*/*.mli; do
  strip "$f" | awk -v m="$(modname "$f")" '
    function flush(   i, c, depth, rest, l) {
      if (name == "") return
      depth = 0
      for (i = 1; i <= length(text); i++) {
        c = substr(text, i, 1)
        if (c == "(" || c == "[" || c == "{") depth++
        else if (c == ")" || c == "]" || c == "}") depth--
        else if (c == "?" && depth == 0) {
          rest = substr(text, i + 1)
          if (match(rest, /^[a-z_][A-Za-z0-9_\047]*[ \t]*:/)) {
            l = substr(rest, 1, RLENGTH); sub(/[ \t]*:$/, "", l)
            print name "?" l
          }
        }
      }
      name = ""
    }
    /^[ \t]*(val|type|module|end|exception|external|include|open|and)([^A-Za-z0-9_]|$)/ { flush() }
    /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_]*[ \t]*:[ \t]*sig/ {
      s = $0; sub(/^[ \t]*module[ \t]+/, "", s); sub(/[ \t:].*/, "", s)
      sub_[++d] = s; next
    }
    /^[ \t]*end([^A-Za-z0-9_]|$)/ && d > 0 { d--; next }
    /^[ \t]*val[ \t]+[a-z_]/ {
      v = $0; sub(/^[ \t]*val[ \t]+/, "", v); sub(/[^A-Za-z0-9_].*/, "", v)
      name = m
      for (i = 1; i <= d; i++) name = name "." sub_[i]
      name = name "." v
      text = $0; sub(/^[^:]*:/, "", text)
      next
    }
    name != "" { text = text " " $0 }
    END { flush() }'
done | sort -u > "$tmp/options"
sed 's/?.*//' "$tmp/options" | sort -u > "$tmp/optvals"

# passed FILE: "<Module.value?label>" for every label passed at depth 0 of
# a call of a value with options.  A call starts at the value's name --
# qualified, or bare in its own module's file or under an open of it -- and
# its arguments run to the first token at its bracket depth that cannot
# start an argument: a keyword, an operator or a separator, or the bracket
# that closes around it.  A name right after let, and, rec, val or
# external is a definition, not a call.
passed() {
  strip "$1" > "$tmp/src"
  awk -v self="$(modname "$1")" -v libs="$tmp/libs" -v optvals="$tmp/optvals" "$resolve_prelude"'
    # the value with options a name token calls, or ""
    function callee(tok,   n, c, m, i, p) {
      n = split(tok, c, ".")
      if (c[n] !~ /^[a-z_]/) return ""
      if (n == 1) {
        if ((self "." tok) in opt) return self "." tok
        for (p in opened) if ((p "." tok) in opt) return p "." tok
        return ""
      }
      if (c[1] !~ /^[A-Z]/) return ""
      m = c[1]
      for (i = 2; i < n; i++) m = m "." c[i]
      p = resolve(m) "." c[n]
      return (p in opt) ? p : ""
    }
    BEGIN {
      while ((getline l < optvals) > 0) opt[l] = 1
      split("in then else do done with and let match if fun function try when to downto of val type module open mutable rec struct sig while for external method object exception", kw, " ")
      for (i in kw) keyword[kw[i]] = 1
    }
    {
      line = $0
      while (line != "") {
        if (match(line, /^[ \t]+/)) { line = substr(line, RLENGTH + 1); continue }
        if (match(line, /^[~?][a-z_][A-Za-z0-9_\047]*:?/)) kind = "label"
        else if (match(line, /^[A-Za-z_][A-Za-z0-9_\047]*(\.[A-Za-z_][A-Za-z0-9_\047]*)*/)) kind = "name"
        else if (match(line, /^[0-9][0-9A-Za-z_.]*/)) kind = "arg"
        else if (match(line, /^(\[\||\.\(|\.\[|\.\{|[(\[{])/)) kind = "open"
        else if (match(line, /^(\|\]|[)\]}])/)) kind = "close"
        else if (match(line, /^[!\047]/)) kind = "arg"
        else { match(line, /^[-+*\/<>=@^|&$%:;,.#]+/); if (RLENGTH < 1) RLENGTH = 1; kind = "op" }
        tok = substr(line, 1, RLENGTH); line = substr(line, RLENGTH + 1)
        if (kind == "name" && tok == "begin") kind = "open"
        if (kind == "name" && tok == "end") kind = "close"
        if (kind == "name" && (tok in keyword)) kind = "op"
        if (kind == "open") { depth++; prev = tok; continue }
        if (kind == "close") {
          depth--
          while (nc > 0 && cdepth[nc] > depth) nc--
          prev = tok; continue
        }
        incall = nc > 0 && cdepth[nc] == depth
        if (kind == "op") { if (incall) nc--; prev = tok; continue }
        if (kind == "label") {
          if (incall) { l = substr(tok, 2); sub(/:$/, "", l); print ccallee[nc] "?" l }
          prev = tok; continue
        }
        if (kind == "name" && !incall && prev != "let" && prev != "and" && prev != "rec" \
            && prev != "val" && prev != "external" && (c = callee(tok)) != "") {
          nc++; ccallee[nc] = c; cdepth[nc] = depth
        }
        prev = tok
      }
    }' "$tmp/src" "$tmp/src"
}
find lib bin bench benchmark examples -name '*.ml' 2>/dev/null | sort |
  while read -r f; do passed "$f"; done | sort -u > "$tmp/passed"
grep -vFxf "$tmp/passed" "$tmp/options" > "$tmp/unpassed" || true
printf '%s\n' "$ALLOW_OPTIONS" | awk 'NF { print $1 }' > "$tmp/allowed_options"
dead=$(grep -vFxf "$tmp/allowed_options" "$tmp/unpassed" || true)
if [ -n "$dead" ]; then
  echo "optional arguments no shipped call passes:"
  printf '  %s\n' $dead
  status=1
else
  echo "dead-option check OK ($(wc -l < "$tmp/options") optional arguments)"
fi
stale=$( (grep -vFxf "$tmp/options" "$tmp/allowed_options" || true
          grep -vFxf "$tmp/unpassed" "$tmp/allowed_options" || true) | sort -u)
if [ -n "$stale" ]; then
  echo "stale option allow-list entries (gone, or now passed by shipped code):"
  printf '  %s\n' $stale
  status=1
fi
exit $status
