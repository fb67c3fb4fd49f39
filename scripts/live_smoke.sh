#!/bin/sh
# Smoke test for the live execution backend: 10 real splayd daemons over
# loopback TCP run the warm-started Chord ring, every lookup must
# resolve, the structural invariants must match the simulated twin
# (zero contract violations), every daemon's heartbeat (the typed
# ctl.heartbeat procedure) must reach the controller, and every forked
# process must be gone when the controller returns. A second phase checks orphan hygiene: SIGKILL
# the controller mid-run and assert no splayd outlives it.
#
# On failure the per-daemon logs and controller output are collected
# into _build/live-logs/ for post-mortem.
#
# Usage: scripts/live_smoke.sh   (from the repo root, after dune build)
set -eu

CLI=_build/default/bin/splay_cli.exe
OUT=_build/live-smoke
LOGDIR=_build/live-logs
DEPLOY_TIMEOUT=120

if [ ! -x "$CLI" ]; then
  echo "live_smoke: $CLI not built (run dune build @all first)" >&2
  exit 2
fi

rm -rf "$OUT"
mkdir -p "$OUT"

collect_logs() {
  mkdir -p "$LOGDIR"
  for f in "$OUT"/run/daemon-*.log "$OUT"/orphan/daemon-*.log \
           "$OUT"/deploy.out "$OUT"/orphan.out; do
    [ -f "$f" ] && cp "$f" "$LOGDIR"/ || true
  done
  echo "live_smoke: logs collected in $LOGDIR" >&2
}

fail() {
  echo "live_smoke: FAIL: $1" >&2
  collect_logs
  exit 1
}

# Live processes named splayd, excluding zombies: an exited daemon the
# container's init has not reaped yet is dead for our purposes.
running_splayds() {
  ps -eo stat=,comm= | awk '$1 !~ /^Z/ && $2 ~ /splayd/' | wc -l
}

[ "$(running_splayds)" -eq 0 ] || fail "stray splayd processes before the test"

# --- Phase 1: 10-daemon Chord deployment, diffed against simulation ---

echo "live_smoke: deploying chord on 10 splayd daemons..."
if ! timeout "$DEPLOY_TIMEOUT" "$CLI" live deploy --app chord -n 10 --daemons 10 \
    --lookups 20 --deadline 100 --out-dir "$OUT/run" --diff-sim \
    >"$OUT/deploy.out" 2>&1; then
  cat "$OUT/deploy.out" >&2
  fail "live deploy exited nonzero (or hit the ${DEPLOY_TIMEOUT}s timeout)"
fi
cat "$OUT/deploy.out"

grep -q "contract: OK" "$OUT/deploy.out" \
  || fail "sim-vs-live contract violations (see above)"
grep -q "10 daemons alive, 0 dead" "$OUT/deploy.out" \
  || fail "not all daemons completed the bootstrap"
grep -q "heartbeats: 10 of 10 daemons" "$OUT/deploy.out" \
  || fail "a daemon's heartbeat never reached the controller"

# The controller reaps its children before returning; nothing may survive.
[ "$(running_splayds)" -eq 0 ] || fail "splayd processes survived the deployment"

# --- Phase 2: orphan hygiene — SIGKILL the controller mid-run ---

echo "live_smoke: orphan check (SIGKILL the controller mid-run)..."
"$CLI" live deploy --app chord -n 4 --daemons 4 --lookups 0 \
  --duration 60 --deadline 90 --out-dir "$OUT/orphan" --no-trace \
  >"$OUT/orphan.out" 2>&1 &

# Wait for the run to be up (daemons.json written, daemons forked).
i=0
while [ ! -f "$OUT/orphan/daemons.json" ] || [ "$(running_splayds)" -lt 4 ]; do
  i=$((i + 1))
  [ "$i" -le 100 ] || fail "orphan-phase deployment never came up"
  sleep 0.2
done

CPID=$(awk -F'[:,]' '/controller_pid/ { print $2 + 0 }' "$OUT/orphan/daemons.json")
[ "$CPID" -gt 0 ] || fail "no controller pid recorded in daemons.json"
kill -9 "$CPID" 2>/dev/null || fail "controller already gone before the SIGKILL"

# Every daemon must notice (control-connection EOF / parent-pid watch)
# and self-terminate; allow a generous grace for slow CI machines.
i=0
while [ "$(running_splayds)" -ne 0 ]; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    ps -eo pid,stat,args | grep splayd | grep -v grep >&2 || true
    fail "splayd processes survived controller SIGKILL"
  fi
  sleep 0.2
done
wait 2>/dev/null || true

echo "live_smoke: OK (contract holds, daemons exit clean, orphans self-terminate)"
