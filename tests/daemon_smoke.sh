#!/usr/bin/env bash
# Process-level smoke of the notary daemons, run by ctest (and by
# scripts/tier1.sh through ctest):
#
#   resharding  an unsharded oracle, two --shard-prefix daemons, an
#               --empty successor and sm_notary_router; sm_reshard splits
#               shard 1 onto the successor and merges it back while an
#               oracle-checked --probe hammers the router. Zero failed
#               queries and zero bytes different from the oracle allowed.
#   ingest      --split-segments writes base.smar plus one segment per
#               held-out scan; an --ingest daemon serving the base takes
#               every segment, then --probe --oracle against a daemon
#               serving the whole archive must find zero mismatches. Both
#               sides load with --archive, so neither carries world
#               revocation statuses.
#   --query     exit codes: 0 found, 3 unknown, 2 bad hex, 1 closed port,
#               and 1 within the I/O timeout against a listener that never
#               answers (a SIGSTOPped daemon: the kernel still accepts).
#
# Every daemon binds --port 0 and the script reads the kernel-assigned
# port from its "listening on" line, so parallel ctest runs never collide.
#
# Usage: tests/daemon_smoke.sh TOOLS_DIR
#   TOOLS_DIR holds sm_notaryd, sm_notary_router, sm_reshard, sm_survey.
set -euo pipefail

tools="${1:?usage: daemon_smoke.sh TOOLS_DIR}"
work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill -CONT "$pid" 2>/dev/null || true
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "daemon smoke: $*" >&2
  exit 1
}

SIM=(--seed 7 --devices 300 --websites 120 --scale 0.2)

# start NAME BINARY ARGS... — runs a daemon on port 0 in the background,
# then sets PORT (and records PID) once its "listening on" line appears.
start() {
  local name="$1" bin="$2"
  shift 2
  # Created here, not by the background redirect, so the polls below
  # never race the child's open().
  : >"$work/$name.log"
  "$tools/$bin" "$@" --port 0 >>"$work/$name.log" 2>&1 &
  PID=$!
  pids+=("$PID")
  for _ in $(seq 1 1200); do
    PORT="$(sed -n 's/.* listening on [0-9.]*:\([0-9]*\).*/\1/p' \
      "$work/$name.log")"
    [[ -n "$PORT" ]] && return 0
    if ! kill -0 "$PID" 2>/dev/null; then
      tail -n 5 "$work/$name.log" >&2
      fail "$name exited before listening"
    fi
    sleep 0.1
  done
  fail "$name never started listening"
}

# wait_for_line NAME PATTERN COUNT — waits until NAME's log holds COUNT
# lines matching PATTERN.
wait_for_line() {
  for _ in $(seq 1 1200); do
    if (($(grep -c -- "$2" "$work/$1.log" || true) >= $3)); then
      return 0
    fi
    sleep 0.1
  done
  tail -n 5 "$work/$1.log" >&2
  fail "$1 never logged $3 x '$2'"
}

echo "== resharding: split + merge back under an oracle-checked probe =="
start oracle sm_notaryd "${SIM[@]}"
oracle_port=$PORT oracle_pid=$PID
start shard0 sm_notaryd "${SIM[@]}" --shard-prefix 0/2
shard0_port=$PORT
start shard1 sm_notaryd "${SIM[@]}" --shard-prefix 1/2
shard1_port=$PORT
start succ sm_notaryd "${SIM[@]}" --empty
succ_port=$PORT
start router sm_notary_router --backend "127.0.0.1:$shard0_port" \
  --backend "127.0.0.1:$shard1_port"
router=127.0.0.1:$PORT
: >"$work/probe.log"
"$tools/sm_notaryd" "${SIM[@]}" --probe 20000 --host 127.0.0.1 \
  --port "${router#*:}" --oracle "127.0.0.1:$oracle_port" \
  >>"$work/probe.log" 2>&1 &
probe_pid=$!
pids+=("$probe_pid")
# The prober simulates its own copy of the world first; hand off only
# once it is querying.
wait_for_line probe "world built" 1
"$tools/sm_reshard" --router "$router" --split 1 \
  --to "127.0.0.1:$succ_port"
"$tools/sm_reshard" --router "$router" --merge 1
wait "$probe_pid" || { tail -n 5 "$work/probe.log" >&2; fail "probe failed"; }
tail -n 1 "$work/probe.log"
grep -q " 0 mismatches (oracle-checked)" "$work/probe.log" ||
  fail "probe reported mismatches"
# A final sweep against the post-handoff (map epoch 3) layout.
"$tools/sm_notaryd" "${SIM[@]}" --probe 2000 --host 127.0.0.1 \
  --port "${router#*:}" --oracle "127.0.0.1:$oracle_port" 2>/dev/null |
  tee "$work/final.log" || fail "post-handoff probe failed"
grep -q " 0 mismatches (oracle-checked)" "$work/final.log" ||
  fail "post-handoff probe reported mismatches"

echo "== ingest: base + every segment vs the whole archive =="
"$tools/sm_survey" simulate "${SIM[@]}" --archive "$work/full.smar" \
  --tsv "$work/full.tsv" >/dev/null 2>&1 || fail "simulate failed"
"$tools/sm_notaryd" --archive "$work/full.smar" --split-segments 3 \
  "$work/segments" 2>/dev/null || fail "--split-segments failed"
mkdir "$work/inbox"
start ingest sm_notaryd --archive "$work/segments/base.smar" \
  --ingest "$work/inbox" --ingest-poll-ms 50
ingest_port=$PORT
start whole sm_notaryd --archive "$work/full.smar"
whole_port=$PORT whole_pid=$PID
# rename(2) within one filesystem: the poller never sees a partial file.
mv "$work"/segments/segment-*.smar "$work/inbox/"
wait_for_line ingest "-> epoch" 3
"$tools/sm_notaryd" --archive "$work/full.smar" --probe 4000 \
  --host 127.0.0.1 --port "$ingest_port" \
  --oracle "127.0.0.1:$whole_port" 2>"$work/ingest-probe.err" |
  tee "$work/ingest-probe.log" ||
  { tail -n 5 "$work/ingest-probe.err" >&2; fail "ingest probe failed"; }
grep -q " 0 mismatches (oracle-checked)" "$work/ingest-probe.log" ||
  fail "ingest probe reported mismatches"

echo "== --query exit codes =="
found="$(awk -F'\t' '$1 == "C" { print $2; exit }' "$work/full.tsv")"
[[ ${#found} == 32 ]] || fail "no fingerprint in the TSV export"
query() {
  local rc=0
  timeout 30 "$tools/sm_notaryd" --query "$1" --port "$2" \
    >/dev/null 2>&1 || rc=$?
  echo "$rc"
}
[[ "$(query "$found" "$oracle_port")" == 0 ]] || fail "found: want exit 0"
[[ "$(query 00000000000000000000000000000000 "$oracle_port")" == 3 ]] ||
  fail "unknown fingerprint: want exit 3"
[[ "$(query zz "$oracle_port")" == 2 ]] || fail "bad hex: want exit 2"
kill "$whole_pid"
wait "$whole_pid" 2>/dev/null || true
[[ "$(query "$found" "$whole_port")" == 1 ]] || fail "closed port: want 1"
# A stopped daemon's listen socket still completes handshakes, but no
# reply ever comes: the client must give up after its I/O timeout (5 s).
kill -STOP "$oracle_pid"
began=$SECONDS
rc="$(query "$found" "$oracle_port")"
kill -CONT "$oracle_pid"
[[ "$rc" == 1 ]] || fail "silent listener: want exit 1, got $rc"
((SECONDS - began <= 10)) || fail "silent listener: took $((SECONDS - began))s"

echo "daemon smoke OK"
