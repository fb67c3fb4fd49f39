#!/bin/sh
# Checks EXPERIMENTS.md's status line against the figure-suite output, so
# the line is derived from a run, not typed. The line reads
#   **N/N shape checks pass, K miss**: M in the figure suite ...
# and must satisfy: M = the number of "shape OK" lines in the output,
# K = the number of "shape MISS" lines, and N = M + 1 (tab-loc's check
# counts source lines and so stays out of the figure suite).
#
#   scripts/check_experiments_status.sh [EXPERIMENTS.md] [figures output]
#
# The output defaults to test/golden/figures_quick.txt; `make
# figures-smoke` passes the run it has just diffed against that golden.
# Exits 1 on a disagreement, 2 when the line cannot be found.
set -u
doc=${1:-EXPERIMENTS.md}
out=${2:-test/golden/figures_quick.txt}

ok=$(grep -c "shape OK" "$out")
miss=$(grep -c "shape MISS" "$out")
# the line may wrap anywhere: read the document as one line
line=$(tr '\n' ' ' < "$doc" | tr -s ' ' |
  grep -oE '\*\*[0-9]+/[0-9]+ shape checks pass, [0-9]+ miss\*\*: [0-9]+ in the figure suite')
if [ -z "$line" ]; then
  echo "experiments-status: no '**N/N shape checks pass, K miss**: M in the figure suite' line in $doc"
  exit 2
fi
set -- $(printf '%s\n' "$line" | tr -c '0-9' ' ')
passed=$1 total=$2 said_miss=$3 said_ok=$4

status=0
if [ "$said_ok" -ne "$ok" ]; then
  echo "experiments-status: $doc says $said_ok in the figure suite, $out has $ok 'shape OK'"
  status=1
fi
if [ "$said_miss" -ne "$miss" ]; then
  echo "experiments-status: $doc says $said_miss miss, $out has $miss 'shape MISS'"
  status=1
fi
if [ "$passed" -ne $((ok + 1)) ] || [ "$total" -ne $((ok + miss + 1)) ]; then
  echo "experiments-status: $doc says $passed/$total pass, the run gives $((ok + 1))/$((ok + miss + 1))"
  status=1
fi
[ "$status" -eq 0 ] && echo "experiments-status: OK ($passed/$total, $ok in the figure suite)"
exit $status
