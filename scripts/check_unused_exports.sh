#!/bin/sh
# Lists every `val` exported by a library interface (lib/*/*.mli) that no
# .ml file outside its own module uses, across lib, bin, bench, test,
# examples and perfbench. A val `v` of module `M` counts as used when
# another file
#   - names it qualified: `M.v`, or `A.v` where some file aliases
#     `module A = ...M` (the facade's `module Engine = Splay_sim.Engine`,
#     a test's `module Ma = Splay_obs.Metrics_analysis`);
#   - or names it bare while opening `M` (or an alias of it): `open M`,
#     `include M`, `let open M in` or a local `M.( ... )`.
# An exported value nobody calls is dead API: delete it, take it out of
# the interface, or cover it with a test. Exits non-zero when any such
# val exists.
#
#   scripts/check_unused_exports.sh
set -u
cd "$(dirname "$0")/.." || exit 2

files=$(find lib bin bench test examples perfbench -name '*.ml' -not -path '*/_build/*' | sort)
ident="[A-Za-z0-9_']"
unused=0
for mli in lib/*/*.mli; do
  own="${mli%.mli}.ml"
  base=$(basename "$mli" .mli)
  m="$(printf '%s' "$base" | cut -c1 | tr a-z A-Z)$(printf '%s' "$base" | cut -c2-)"
  others=$(printf '%s\n' $files | grep -vx "$own")
  # every name the module goes by: itself and each `module A = ...M`
  # shellcheck disable=SC2086
  names=$(printf '%s\n' "$m"; grep -hoE "module +[A-Z]$ident* *= *([A-Z]$ident*\.)*$m\b" $others \
    | sed -E 's/module +([A-Za-z0-9_]+).*/\1/' | sort -u)
  alt=$(printf '%s\n' $names | sort -u | paste -sd '|')
  # files that bring the module's names into scope unqualified
  # shellcheck disable=SC2086
  openers=$(grep -lE "(open!? +|include +)([A-Z]$ident*\.)*($alt)\b|(^|[^A-Za-z0-9_.'])([A-Z]$ident*\.)*($alt)\.\(" $others)
  for v in $(sed -n 's/^val \([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" | sort -u); do
    # shellcheck disable=SC2086
    if grep -qE "(^|[^A-Za-z0-9_'])($alt)\.$v(\$|[^A-Za-z0-9_'])" $others; then continue; fi
    # shellcheck disable=SC2086
    if [ -n "$openers" ] && grep -qw -- "$v" $openers; then continue; fi
    echo "$mli: val $v"
    unused=$((unused + 1))
  done
done
if [ "$unused" -gt 0 ]; then
  echo "check_unused_exports: $unused exported val(s) with no user outside their module" >&2
  exit 1
fi
echo "check_unused_exports: OK"
