#!/usr/bin/env bash
# Fabric fault-tolerance smoke (CI): a coordinator with 4 forked worker
# processes sweeps a 10^3-shard lazy grid while one worker is SIGKILLed
# mid-run. The pin is the tentpole guarantee from docs/fabric.md — the
# merged digest dump AND the compacted checkpoint must be BYTE-identical to
# a single-process, single-thread reference run, kill or no kill — plus
# loud evidence in the coordinator log that the death was detected and the
# orphaned range re-leased. That run's appends arrive out of order, so it
# pins the compaction rewrite. A second pin runs one forked worker as a
# tick (--max-shards 500) and a resume: its appends stay ascending, so
# neither coordinator rewrites the checkpoint, and the checkpoint and the
# digest dump must still cmp equal to the reference. A third pin serves the
# campaign to one forked worker plus two external joiners on a unix socket
# (`acute_fabric work --socket`), the listener/accept/connect path: both
# joiners must exit cleanly, at least two workers must have joined, and the
# digest dump and checkpoint must cmp equal to the reference. Neither the
# tick + resume log nor the socket run's log may show a lease expiring: a
# worker that keeps a lease queued and sends at least every quarter of the
# lease timeout keeps every lease it holds alive.
#
# Usage: scripts/fabric_smoke.sh [path/to/acute_fabric] [output-dir]
set -euo pipefail

BIN=${1:-build/acute_fabric}
OUT=${2:-build/fabric-smoke}
SHARDS=1000
# Enough simulated probes per shard that the sweep runs long enough for the
# kill below to land while leases are outstanding, even on a fast runner.
PROBES=60

mkdir -p "$OUT"
rm -f "$OUT"/reference.txt "$OUT"/reference.ckpt "$OUT"/fabric.txt \
      "$OUT"/coordinator.ckpt "$OUT"/coordinator.log "$OUT"/coordinator.stdout \
      "$OUT"/tick.txt "$OUT"/tick.ckpt "$OUT"/tick.log "$OUT"/socket.txt \
      "$OUT"/socket.ckpt "$OUT"/socket.log "$OUT"/socket.stdout \
      "$OUT"/joiners.log

echo "== single-process single-thread reference =="
"$BIN" local --shards $SHARDS --probes $PROBES \
  --checkpoint "$OUT/reference.ckpt" --digest-out "$OUT/reference.txt"

echo "== coordinator + 4 forked workers =="
"$BIN" coordinate --spawn 4 --shards $SHARDS --probes $PROBES --batch 8 \
  --checkpoint "$OUT/coordinator.ckpt" --digest-out "$OUT/fabric.txt" \
  >"$OUT/coordinator.stdout" 2>"$OUT/coordinator.log" &
COORD=$!

# The coordinator prints one "worker-pid N" line per forked worker before
# serving; the first one is the victim.
VICTIM=
for _ in $(seq 1 500); do
  VICTIM=$(awk '/^worker-pid /{print $2; exit}' "$OUT/coordinator.stdout" \
           2>/dev/null || true)
  [ -n "$VICTIM" ] && break
  sleep 0.01
done
if [ -z "$VICTIM" ]; then
  echo "FAIL: coordinator never reported a worker pid" >&2
  kill "$COORD" 2>/dev/null || true
  exit 1
fi

# Kill once the run is provably in flight — the coordinator checkpoint
# grows by one record per completed shard, so >= 50 lines means we are
# mid-campaign regardless of how fast this runner is.
while kill -0 "$COORD" 2>/dev/null; do
  DONE=$(wc -l <"$OUT/coordinator.ckpt" 2>/dev/null || echo 0)
  [ "$DONE" -ge 50 ] && break
  sleep 0.01
done
if ! kill -9 "$VICTIM" 2>/dev/null; then
  echo "FAIL: worker $VICTIM was already gone before the kill" >&2
  wait "$COORD" || true
  exit 1
fi
echo "killed worker pid $VICTIM mid-run (checkpoint had ${DONE:-?} records)"
wait "$COORD"

echo "== coordinator log =="
cat "$OUT/coordinator.log"
cat "$OUT/coordinator.stdout"

echo "== assertions =="
cmp "$OUT/reference.txt" "$OUT/fabric.txt"
echo "OK: merged digest dump is byte-identical to the reference"

grep -Eq "re-leasing|closed its connection|torn frame" "$OUT/coordinator.log"
echo "OK: coordinator logged the worker death / re-lease"

grep -Eq "fabric: 4 workers joined, [1-9] died" "$OUT/coordinator.stdout"
echo "OK: stats line confirms a worker died mid-run"

# The compacted coordinator checkpoint must hold exactly one record per
# shard — duplicates from the re-lease race collapse under last-wins.
LINES=$(wc -l <"$OUT/coordinator.ckpt")
if [ "$LINES" -ne "$SHARDS" ]; then
  echo "FAIL: compacted checkpoint has $LINES records, want $SHARDS" >&2
  exit 1
fi
echo "OK: compacted checkpoint holds exactly $SHARDS records"

# The coordinator stores each worker's line as received and compaction
# copies validated lines, so the bytes must equal the reference's, which
# the single-thread campaign rendered in ascending order.
cmp "$OUT/reference.ckpt" "$OUT/coordinator.ckpt"
echo "OK: compacted checkpoint is byte-identical to the reference"

echo "== 1-worker coordinator tick, then resume =="
"$BIN" coordinate --spawn 1 --shards $SHARDS --probes $PROBES --max-shards 500 \
  --checkpoint "$OUT/tick.ckpt" 2>"$OUT/tick.log"
TICK_INODE=$(stat -c %i "$OUT/tick.ckpt")
"$BIN" coordinate --spawn 1 --shards $SHARDS --probes $PROBES \
  --checkpoint "$OUT/tick.ckpt" --digest-out "$OUT/tick.txt" 2>>"$OUT/tick.log"
cat "$OUT/tick.log"
if [ "$(stat -c %i "$OUT/tick.ckpt")" != "$TICK_INODE" ]; then
  echo "FAIL: the resume rewrote an already canonical checkpoint" >&2
  exit 1
fi
echo "OK: the resume appended to the tick's checkpoint without a rewrite"
cmp "$OUT/reference.txt" "$OUT/tick.txt"
echo "OK: tick + resume digest dump is byte-identical to the reference"
cmp "$OUT/reference.ckpt" "$OUT/tick.ckpt"
echo "OK: tick + resume checkpoint is byte-identical to the reference"

echo "== coordinator + 1 forked worker + 2 socket joiners =="
SOCKET="$OUT/coordinator.sock"
"$BIN" coordinate --spawn 1 --socket "$SOCKET" --shards $SHARDS \
  --probes $PROBES --batch 8 --checkpoint "$OUT/socket.ckpt" \
  --digest-out "$OUT/socket.txt" >"$OUT/socket.stdout" 2>"$OUT/socket.log" &
COORD=$!
# unix_connect retries while the coordinator binds its socket.
JOINERS=()
for _ in 1 2; do
  "$BIN" work --socket "$SOCKET" --shards $SHARDS --probes $PROBES \
    >>"$OUT/joiners.log" 2>&1 &
  JOINERS+=($!)
done
wait "$COORD"
JOINER_STATUS=0
for pid in "${JOINERS[@]}"; do wait "$pid" || JOINER_STATUS=1; done
cat "$OUT/socket.log" "$OUT/socket.stdout" "$OUT/joiners.log"
if [ "$JOINER_STATUS" -ne 0 ]; then
  echo "FAIL: a socket joiner exited with an error" >&2
  exit 1
fi
JOINED=$(sed -n 's/^fabric: \([0-9]*\) workers joined.*/\1/p' \
         "$OUT/socket.stdout")
if [ "${JOINED:-0}" -lt 2 ]; then
  echo "FAIL: ${JOINED:-0} workers joined, want at least 2" >&2
  exit 1
fi
echo "OK: $JOINED workers joined, socket joiners included"
cmp "$OUT/reference.txt" "$OUT/socket.txt"
echo "OK: socket-fleet digest dump is byte-identical to the reference"
cmp "$OUT/reference.ckpt" "$OUT/socket.ckpt"
echo "OK: socket-fleet checkpoint is byte-identical to the reference"

# The send cadence: no lease of a live worker may expire.
for log in "$OUT/tick.log" "$OUT/socket.log"; do
  if grep -q "expired without heartbeat" "$log"; then
    echo "FAIL: a lease expired in $log" >&2
    exit 1
  fi
done
echo "OK: no lease expired in the tick + resume or the socket-fleet run"

echo "fabric smoke: PASS"
