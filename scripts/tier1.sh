#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then the
# daemon smoke (tests/daemon_smoke.sh: a real sm_notaryd/sm_notary_router/
# sm_reshard deployment splits a shard and merges it back under
# oracle-checked loopback load — zero failed queries allowed — plus a
# live-ingest run and the --query exit codes), then a
# ThreadSanitizer build exercising the concurrency-bearing tests
# (thread pool, corpus spine, linking pipeline, dataset index, tracker,
# parallel world simulation, batch verifier, notary epoll server +
# loopback traffic, live-ingestion epoch swaps racing loopback queries,
# sharded router deployment with backend kill/restart, online-resharding
# split/merge handoffs under load),
# then an AddressSanitizer build running the archive I/O and notary-frame
# corruption harnesses (exhaustive truncation + bit-flip sweeps over
# hostile input), the world-determinism test, the hashing and
# root-store tests (the SHA-NI kernel's unaligned loads, the one-shot
# padding tail, exact-DER root membership), and the notary, linking,
# analysis and tracking tests, which read the chunked certificate table.
#
# The simworld_parallel_test golden-hash determinism check runs under BOTH
# sanitizer configs: any thread-count divergence in the simulated archive
# bytes fails the pass.
#
# Usage: scripts/tier1.sh [--no-tsan] [--no-asan] [--bench]
#   --bench additionally runs scripts/bench_check.sh (notary/router
#   benchmarks vs the committed bench-results/ baselines) — opt-in
#   because benchmark timings need a quiet machine to mean anything.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=1
run_asan=1
run_bench=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-asan) run_asan=0 ;;
    --bench) run_bench=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: standard build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure -j

echo "== tier 1: strict flag validation (exit 2 + usage on stderr) =="
check_rejects() {
  local out rc=0
  out="$("$@" 2>&1 >/dev/null)" || rc=$?
  if [[ "$rc" != 2 ]] || ! grep -q "usage:" <<<"$out"; then
    echo "expected exit 2 + usage from: $*  (got exit $rc)" >&2
    exit 1
  fi
}
check_rejects ./build/tools/sm_notary_router --backend nonsense
check_rejects ./build/tools/sm_notary_router --backend host:0
check_rejects ./build/tools/sm_notary_router --backend 127.0.0.1:1,
check_rejects ./build/tools/sm_notaryd --shard-prefix 3/2
check_rejects ./build/tools/sm_notaryd --shard-prefix 0/0
check_rejects ./build/tools/sm_notaryd --shard-prefix 9-1
check_rejects ./build/tools/sm_reshard --split 1
check_rejects ./build/tools/sm_reshard --router x:1 --split 0 --merge 0

echo "== tier 1: daemon smoke (resharding, live ingest, --query exit codes) =="
# Also registered with ctest (daemon_smoke); run here for its log.
tests/daemon_smoke.sh build/tools

tsan_tests=(thread_pool_test corpus_test linking_parallel_test linking_test
            analysis_test tracking_test util_test
            simworld_parallel_test batch_verifier_test
            netio_test notary_test notary_loopback_test live_ingest_test
            router_test revocation_test reshard_test)
if [[ "$run_tsan" == 1 ]]; then
  echo "== tier 1: TSan build (thread pool + linking/analysis/tracking + world/verify + notary) =="
  cmake -B build-tsan -S . -DSM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target "${tsan_tests[@]}" >/dev/null
  # Suppressions cover the libstdc++ atomic<shared_ptr> internals (see
  # the file's header); halt_on_error keeps a real report fatal.
  export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan_suppressions.txt halt_on_error=1 ${TSAN_OPTIONS:-}"
  for t in "${tsan_tests[@]}"; do
    echo "-- $t (tsan)"
    ./build-tsan/tests/"$t" --gtest_brief=1
  done
fi

asan_tests=(archive_corruption_test archive_io_test simworld_parallel_test
            corpus_test netio_test notary_loopback_test live_ingest_test
            router_test revocation_test reshard_test util_test pki_test
            notary_test linking_test analysis_test tracking_test)
if [[ "$run_asan" == 1 ]]; then
  echo "== tier 1: ASan build (archive I/O + notary-frame corruption harnesses + world determinism + hashing/root store + certificate-table readers) =="
  cmake -B build-asan -S . -DSM_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target "${asan_tests[@]}" >/dev/null
  for t in "${asan_tests[@]}"; do
    echo "-- $t (asan)"
    ./build-asan/tests/"$t" --gtest_brief=1
  done
fi

if [[ "$run_bench" == 1 ]]; then
  echo "== tier 1: bench regression check (notary/router vs committed baselines) =="
  scripts/bench_check.sh
fi

echo "tier 1 OK"
