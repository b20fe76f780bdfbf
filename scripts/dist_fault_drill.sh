#!/usr/bin/env bash
# Fault drill for the data-parallel trainer: one run with a worker killed AND
# a gradient corrupted mid-epoch, one fault-free control run, both from the
# same seed. The drill passes when the faulty run (a) detects both faults,
# (b) performs a distributed-consistent rollback verified bit-exact, (c)
# degrades to the surviving worker set and finishes, and (d) lands within an
# accuracy tolerance of the control run. See docs/ROBUSTNESS.md for the
# protocol being exercised. A message-fault run (payloads corrupted and
# dropped in flight) must then be repaired by checksum + resend and finish
# with exactly the control run's accuracy.
#
# A final, fully-instrumented postmortem run then proves the observability
# pipeline end-to-end (docs/OBSERVABILITY.md): per-rank Chrome traces with the
# clock-sync handshake, per-rank metrics JSONL, flight-recorder dumps fired by
# the injected kill, a live Prometheus snapshot, and tools/obs/trace_merge
# fusing the rank traces into one aligned timeline that python3 validates
# (balanced JSON, monotone non-negative timestamps, one pid lane per rank).
#
# Usage: scripts/dist_fault_drill.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BIN="$BUILD/examples/mnist_mlp"
[ -x "$BIN" ] || { echo "missing $BIN — build the tree first" >&2; exit 1; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/apamm_dist_drill.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--epochs=2 --train=1536 --test=384 --batch=32 --workers=3)
FAULTS='kill@2:6,corrupt@1:9'

echo "== control run (fault-free) =="
"$BIN" "${ARGS[@]}" --shard-dir="$WORK/clean" | tee "$WORK/clean.log"
echo
echo "== drill run (inject: $FAULTS) =="
"$BIN" "${ARGS[@]}" --shard-dir="$WORK/faulty" --inject-fault="$FAULTS" \
  | tee "$WORK/faulty.log"
echo

fail() { echo "DRILL FAILED: $1" >&2; exit 1; }

grep -q 'injected: 1 kills, 1 corrupt grads' "$WORK/faulty.log" \
  || fail "both faults should have fired (kill + corrupt gradient)"
grep -q 'workers 3->2' "$WORK/faulty.log" \
  || fail "the killed worker should degrade the set to 2 survivors"
grep -Eq 'rollbacks [1-9][0-9]* \(bit-exact yes\)' "$WORK/faulty.log" \
  || fail "the corrupt gradient should force a bit-exact verified rollback"
grep -q 'bit-exact NO' "$WORK/faulty.log" \
  && fail "a rollback restore was not bit-exact across workers"

# Final accuracy within tolerance of the fault-free control: losing a worker
# changes the batch schedule, so expect "close", not equal.
clean_acc="$(grep -oE 'test-acc [0-9.]+' "$WORK/clean.log" | tail -1 | cut -d' ' -f2)"
fault_acc="$(grep -oE 'test-acc [0-9.]+' "$WORK/faulty.log" | tail -1 | cut -d' ' -f2)"
TOLERANCE="${APAMM_DRILL_TOLERANCE:-0.15}"
awk -v c="$clean_acc" -v f="$fault_acc" -v tol="$TOLERANCE" 'BEGIN {
  d = c - f; if (d < 0) d = -d;
  if (d > tol) { exit 1 }
}' || fail "final accuracy $fault_acc strayed more than $TOLERANCE from control $clean_acc"

echo "DRILL PASSED: kill + corrupt detected, rollback bit-exact, degraded to survivors,"
echo "final accuracy $fault_acc vs fault-free $clean_acc (tolerance $TOLERANCE)"
echo

# ---------------------------------------------------------------------------
# Message-fault drill: payloads corrupted and dropped in flight. The transport
# checksum must catch every corruption and the resend protocol must repair
# every loss, so the run lands on exactly the control run's bytes.
# ---------------------------------------------------------------------------
MSG_FAULTS='corrupt-msg@0:3,drop@1:2'
echo "== message-fault drill (inject: $MSG_FAULTS) =="
"$BIN" "${ARGS[@]}" --shard-dir="$WORK/msgfault" --inject-fault="$MSG_FAULTS" \
  | tee "$WORK/msgfault.log"
echo

grep -Eq 'repaired 2 dropped / ([3-9]|[1-9][0-9]+) corrupted messages' \
  "$WORK/msgfault.log" \
  || fail "2 drops and at least 3 checksum-detected corruptions should be repaired"
grep -q 'bit-exact NO' "$WORK/msgfault.log" \
  && fail "a rollback restore was not bit-exact across workers"
msg_acc="$(grep -oE 'test-acc [0-9.]+' "$WORK/msgfault.log" | tail -1 | cut -d' ' -f2)"
[ "$msg_acc" = "$clean_acc" ] \
  || fail "repaired messages changed the result: test-acc $msg_acc vs control $clean_acc"

echo "MESSAGE DRILL PASSED: drops and corruptions repaired, final accuracy"
echo "$msg_acc identical to the fault-free control"
echo

# ---------------------------------------------------------------------------
# Postmortem drill: the same kill, but with every observability output armed.
# ---------------------------------------------------------------------------
OBS="$WORK/obs"
mkdir -p "$OBS"
echo "== postmortem drill (traced + flight recorder, inject: kill@1:6) =="
"$BIN" --epochs=1 --train=1536 --test=384 --batch=32 --workers=2 --guard \
  --shard-dir="$WORK/postmortem" --inject-fault='kill@1:6' \
  --trace-out="$OBS/trace.json" --metrics-out="$OBS/metrics.jsonl" \
  --flight-dir="$OBS" --metrics-snapshot="$OBS/metrics.prom:0.2" \
  | tee "$WORK/postmortem.log"
echo

for f in trace.rank0.json trace.rank1.json metrics.rank0.jsonl \
         metrics.rank1.jsonl metrics.prom flight_0.json; do
  [ -f "$OBS/$f" ] || fail "postmortem run should have written $OBS/$f"
done
grep -q 'apamm_counter_total' "$OBS/metrics.prom" \
  || fail "the Prometheus snapshot should carry the counter registry"
grep -q '"reason":' "$OBS/flight_0.json" \
  || fail "flight dumps should record the trigger reason"
grep -q '"tag":"dist\.' "$OBS"/flight_*.json \
  || fail "flight rings should hold dist.* breadcrumbs from the drill"

echo "== trace_merge =="
"$BUILD/tools/trace_merge" --out="$OBS/merged.json" \
  "$OBS/trace.rank0.json" "$OBS/trace.rank1.json" \
  || fail "trace_merge should fuse the per-rank traces"

python3 - "$OBS/merged.json" <<'EOF' || fail "merged trace failed validation"
import json, sys

doc = json.load(open(sys.argv[1]))
sync = doc["clockSync"]
assert sorted(s["rank"] for s in sync) == [0, 1], sync
assert sum(1 for s in sync if "mark_us" in s) == 2, \
    "both ranks should have published a clock mark at the barrier"
events = doc["traceEvents"]
assert len(events) > 50, f"suspiciously small merged trace: {len(events)}"
prev = 0.0
pids = set()
flows = {"s": 0, "f": 0}
for ev in events:
    if ev.get("ph") == "M":
        continue
    ts = ev["ts"]
    assert ts >= 0.0, f"negative timestamp after rebase: {ev}"
    assert ts >= prev, f"merged timeline is not monotone at {ev}"
    prev = ts
    pids.add(ev["pid"])
    if ev.get("ph") in flows:
        flows[ev["ph"]] += 1
assert pids == {0, 1}, f"expected one pid lane per rank, got {pids}"
assert flows["s"] > 0 and flows["f"] > 0, \
    f"ring sends should appear as flow arrows, got {flows}"
print(f"merged trace OK: {len(events)} events, pids {sorted(pids)}, "
      f"{flows['s']} flow-out / {flows['f']} flow-in")
EOF

echo "== health_report =="
"$BUILD/tools/rule_lint" --bounds-json="$OBS/bounds.json" \
  || fail "rule_lint --bounds-json should export the catalog bounds"
"$BUILD/tools/health_report" --bounds="$OBS/bounds.json" --fail-on-drift \
  "$OBS"/metrics.rank*.jsonl | tee "$WORK/health.log" \
  || fail "a healthy guarded run must not report residual drift"
grep -Eq '[1-9][0-9]* stream\(s\)' "$WORK/health.log" \
  || fail "health_report should fold at least one guarded stream (ObsSession
           flush emits a final health snapshot even for short runs)"

echo
echo "POSTMORTEM DRILL PASSED: per-rank traces merged onto one aligned timeline,"
echo "flight dumps + Prometheus snapshot + drift table all produced and validated"
