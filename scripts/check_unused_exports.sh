#!/bin/sh
# Lists every `val` of a library interface (lib/*/*.mli) that no .ml file
# outside its own module and outside test/ uses (lib, bin, bench,
# examples, perfbench); a nested signature's val is checked as `Sub.v`.
# A use is `M.v`, or `A.v` through an alias `module A = ...M`, or a bare
# `v` in a file that opens `M` (`open`, `include`, `let open`, `M.( )`);
# a nested `Sub.v` likewise through `M.Sub` or an opened `M` or `M.Sub`.
# Tests do not count: a val only a test calls is dead API. Delete it,
# unexport it, or list it in scripts/unused_exports.allow, one interface
# per line: `<mli> <val> [<val>...] -- <reason>`. The script fails on a
# val with neither a user nor an entry, on a line without a reason, and
# on a stale entry (a val gone, or one that now has a user), so the list
# only shrinks. scripts/test_check_unused_exports.sh checks each case.
#
#   scripts/check_unused_exports.sh
set -u
cd "$(dirname "$0")/.." || exit 2

allow=scripts/unused_exports.allow
files=$(find lib bin bench examples perfbench -name '*.ml' -not -path '*/_build/*' | sort)
ident="[A-Za-z0-9_']"
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
: > "$tmp/unused"
: > "$tmp/vals"

# the vals of an interface, nested ones qualified: `v` or `Sub.v`
vals_of() {
  awk '
    /^module +[A-Z][A-Za-z0-9_]* *: *sig/ { sub(/^module +/, ""); sub(/[ :].*/, ""); sub_ = $0; next }
    /^end/ { sub_ = ""; next }
    /^val [a-z_]/ && sub_ == "" { v = $2; sub(/[^A-Za-z0-9_'"'"'].*/, "", v); print v; next }
    /^ +val [a-z_]/ && sub_ != "" { v = $2; sub(/[^A-Za-z0-9_'"'"'].*/, "", v); print sub_ "." v }
  ' "$1" | sort -u
}

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
  for qv in $(vals_of "$mli"); do
    echo "$mli $qv" >> "$tmp/vals"
    case "$qv" in
      *.*)
        sub=${qv%%.*}
        v=${qv#*.}
        # names of the nested module: M.Sub and each `module X = ...M.Sub`
        # shellcheck disable=SC2086
        salt=$( (printf '(%s)\\.%s\n' "$alt" "$sub"
          grep -hoE "module +[A-Z]$ident* *= *([A-Z]$ident*\.)*($alt)\.$sub\b" $others \
            | sed -E 's/module +([A-Za-z0-9_]+).*/\1/') | sort -u | paste -sd '|')
        # shellcheck disable=SC2086
        if grep -qE "(^|[^A-Za-z0-9_'])($salt)\.$v(\$|[^A-Za-z0-9_'])" $others; then continue; fi
        # shellcheck disable=SC2086
        if [ -n "$openers" ] && grep -qE "(^|[^A-Za-z0-9_'.])$sub\.$v(\$|[^A-Za-z0-9_'])" $openers; then continue; fi
        # shellcheck disable=SC2086
        sopeners=$(grep -lE "(open!? +|include +)([A-Z]$ident*\.)*($salt)\b|(^|[^A-Za-z0-9_.'])([A-Z]$ident*\.)*($salt)\.\(" $others)
        # shellcheck disable=SC2086
        if [ -n "$sopeners" ] && grep -qw -- "$v" $sopeners; then continue; fi
        ;;
      *)
        v=$qv
        # shellcheck disable=SC2086
        if grep -qE "(^|[^A-Za-z0-9_'])($alt)\.$v(\$|[^A-Za-z0-9_'])" $others; then continue; fi
        # shellcheck disable=SC2086
        if [ -n "$openers" ] && grep -qw -- "$v" $openers; then continue; fi
        ;;
    esac
    echo "$mli $qv" >> "$tmp/unused"
  done
done

# the allowlist, one "mli val" pair per line; a line without a reason
# is itself an error
bad=0
: > "$tmp/allowed"
if [ -f "$allow" ]; then
  while IFS= read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    head=${line%% -- *}
    reason=${line#* -- }
    if [ "$head" = "$line" ] || [ -z "$(printf '%s' "$reason" | tr -d ' ')" ]; then
      echo "$allow: no '-- <reason>' in: $line"
      bad=$((bad + 1))
      continue
    fi
    set -- $head
    mli=$1
    shift
    if [ "$#" -eq 0 ]; then
      echo "$allow: no val named in: $line"
      bad=$((bad + 1))
      continue
    fi
    for v in "$@"; do echo "$mli $v" >> "$tmp/allowed"; done
  done < "$allow"
fi
sort -u -o "$tmp/allowed" "$tmp/allowed"
sort -u -o "$tmp/unused" "$tmp/unused"
sort -u -o "$tmp/vals" "$tmp/vals"

# unused and not allowed
comm -23 "$tmp/unused" "$tmp/allowed" | sed 's/ /: val /' > "$tmp/dead"
# allowed but gone from the interface, or allowed but used
comm -23 "$tmp/allowed" "$tmp/vals" | sed 's/ /: val /; s/$/ is not in the interface/' > "$tmp/stale"
comm -12 "$tmp/allowed" "$tmp/vals" | comm -23 - "$tmp/unused" \
  | sed 's/ /: val /; s/$/ has a user outside test\//' >> "$tmp/stale"

cat "$tmp/dead"
sed "s|^|$allow: stale entry: |" "$tmp/stale"
ndead=$(wc -l < "$tmp/dead")
nstale=$(wc -l < "$tmp/stale")
if [ "$ndead" -gt 0 ] || [ "$nstale" -gt 0 ] || [ "$bad" -gt 0 ]; then
  echo "check_unused_exports: $ndead exported val(s) with no user outside their module and test/, $nstale stale allowlist entr(ies), $bad malformed line(s)" >&2
  exit 1
fi
echo "check_unused_exports: OK ($(wc -l < "$tmp/allowed") allowlisted)"
