#!/bin/sh
# Runs scripts/check_unused_exports.sh on a throwaway tree: it must pass
# the clean tree and exit 1, naming the culprit, on a val only a test
# uses (top-level or nested), on a stale allowlist entry (val gone, or
# val with a user outside test/) and on an entry without a reason.
#   scripts/test_check_unused_exports.sh
set -u
here=$(cd "$(dirname "$0")" && pwd)
t=$(mktemp -d) || exit 2
trap 'rm -rf "$t"' EXIT
fails=0
mkdir -p "$t/scripts" "$t/lib/m" "$t/bin" "$t/bench" "$t/examples" "$t/perfbench" "$t/test"
cp "$here/check_unused_exports.sh" "$t/scripts/"
printf 'val used : int\nval only_test : int\nval listed : int\nmodule Sub : sig\n  val nested_used : int\n  val nested_dead : int\nend\n' > "$t/lib/m/m.mli"
printf 'let used = 1\nlet only_test = 2\nlet listed = 3\nmodule Sub = struct let nested_used = 4 let nested_dead = 5 end\n' > "$t/lib/m/m.ml"
printf 'let () = print_int (M.only_test + M.listed + M.Sub.nested_dead)\n' > "$t/test/t.ml"

# case CODE PATTERN ALLOW BIN WHAT: with allowlist line ALLOW and bin/
# source BIN, the check must exit CODE and print PATTERN
case_() {
  printf '%s\n' "$3" > "$t/scripts/unused_exports.allow"
  printf 'let () = print_int (M.used + M.Sub.nested_used%s)\n' "$4" > "$t/bin/main.ml"
  out=$(sh "$t/scripts/check_unused_exports.sh" 2>&1)
  code=$?
  if [ "$code" -eq "$1" ] && printf '%s\n' "$out" | grep -qF -- "$2"; then
    echo "ok: $5 (exit $code)"
  else
    echo "FAIL: $5: exit $code (want $1), output:"
    printf '%s\n' "$out" | sed 's/^/  /'
    fails=$((fails + 1))
  fi
}

all="lib/m/m.mli only_test listed Sub.nested_dead"
case_ 0 "OK (3 allowlisted)" "$all -- fixture" "" "clean tree passes"
case_ 1 "lib/m/m.mli: val only_test" "lib/m/m.mli listed Sub.nested_dead -- fixture" "" "a val only a test uses"
case_ 1 "lib/m/m.mli: val Sub.nested_dead" "lib/m/m.mli only_test listed -- fixture" "" "a nested val only a test uses"
case_ 1 "stale entry: lib/m/m.mli: val gone is not in the interface" "$all gone -- fixture" "" "an entry for a val that is gone"
case_ 1 "stale entry: lib/m/m.mli: val listed has a user outside test/" "$all -- fixture" " + M.listed" "an entry for a val with a user"
case_ 1 "no '-- <reason>'" "$all" "" "an entry without a reason"

[ "$fails" -eq 0 ] || { echo "test_check_unused_exports: $fails case(s) failed" >&2; exit 1; }
echo "test_check_unused_exports: OK"
