#!/bin/sh
# Lists every `val` exported by a library interface (lib/*/*.mli) that no
# .ml file outside its own module mentions, across lib, bin, bench, test,
# examples and perfbench. An exported value nobody calls is dead API:
# delete it, take it out of the interface, or cover it with a test.
# Exits non-zero when any such val exists.
#
#   scripts/check_unused_exports.sh
set -u
cd "$(dirname "$0")/.." || exit 2

files=$(find lib bin bench test examples perfbench -name '*.ml' -not -path '*/_build/*' | sort)
unused=0
for mli in lib/*/*.mli; do
  own="${mli%.mli}.ml"
  others=$(printf '%s\n' $files | grep -vx "$own")
  for v in $(sed -n 's/^val \([a-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$mli" | sort -u); do
    # shellcheck disable=SC2086
    if ! grep -qw -- "$v" $others; then
      echo "$mli: val $v"
      unused=$((unused + 1))
    fi
  done
done
if [ "$unused" -gt 0 ]; then
  echo "check_unused_exports: $unused exported val(s) with no user outside their module" >&2
  exit 1
fi
echo "check_unused_exports: OK"
