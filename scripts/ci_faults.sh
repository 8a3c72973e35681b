#!/usr/bin/env bash
# CI job: run the tier-1 test suite under fixed fault-injection plans
# (OCCLUM_FAULT_PLAN, parsed by src/faultsim on first use). Each plan
# is fully seeded, so a failure here replays exactly from the plan
# string alone. Three axes:
#
#   plan 1: an AEX storm — every SIP instruction stream is interrupted
#           every 4096 instructions, exercising SSA save/scrub/restore
#           (bound registers included) under every existing test,
#   plan 2: flaky block device — 2% transient EAGAIN faults on reads
#           and writes, absorbed by EncFs's bounded retry/backoff,
#   plan 3: lossy network — 5% segment loss, 5% duplicates, frequent
#           short reads, absorbed by netsim's retransmission model,
#   plan 4: lossy network + AEX storm combined — drops and duplicates
#           shift every arrival edge while AEXes shift every quantum
#           boundary, stressing the wait-queue wakeup path under the
#           poll()-driven lighttpd loop (FaultSimAex.StormOverPoll…
#           and the Poll.* suite run under this plan like the rest of
#           tier-1): a wakeup that is lost, early, or aimed at the
#           wrong process shows up as a stall or a short response,
#   plan 5: attested RPC under hostile-network conditions — drops,
#           duplicates, and aggressive short reads combined with an
#           AEX storm, aimed at the src/attest handshake and record
#           layer (the AttestedRpcScenario.* and Handshake.* tests
#           run under this plan like the rest of tier-1). The
#           invariant is all-or-nothing: either the handshake
#           completes and both peers hold identical directional keys,
#           or the endpoint fails *closed* with a named AttestError —
#           never a half-open channel, never mismatched keys.
#   plan 6: the epoll dispatch path under a hostile network + AEX
#           storm — segment drops and duplicates shift and re-fire
#           every readiness edge while AEXes slice every quantum,
#           aimed at the kernel-side interest/ready lists (the
#           Epoll.* battery and the EpollWorkload.* reverse-proxy +
#           backend-pool scenario run under this plan like the rest
#           of tier-1). A duplicated arrival must not double-report
#           an edge-triggered fd, a dropped-then-retransmitted edge
#           must still wake a blocked kEpollWait, and the proxy's
#           spawn + pipes + sockets pipeline must still serve every
#           request.
#   plan 7: a dense AEX storm with the transition-orderliness monitor
#           in strict mode (DESIGN.md §9; plans 2 and 4 also get a
#           strict leg, for their OCALL pairs) — every EENTER, EEXIT, AEX,
#           ERESUME, and per-core TCS rebind is checked online against
#           the legal automaton and the first illegal transition
#           panics with full context. The SmashEx-shaped hazards
#           (nested entry or rebind on an occupied NSSA=1 SSA frame)
#           must surface as refusals, never as serviced transitions.
#
# Plan 1 additionally runs under ASan+UBSan: an injected AEX touches
# the SSA snapshot path on every quantum, the place a lifetime bug
# would hide.
#
# Usage: scripts/ci_faults.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

PLANS=(
    "seed=101;aex_every=4096"
    "seed=202;dev_read_transient=0.02;dev_write_transient=0.02"
    "seed=303;net_drop=0.05;net_dup=0.05;net_short_read=0.25"
    "seed=404;net_drop=0.05;net_dup=0.05;aex_every=2048"
    "seed=505;net_drop=0.08;net_dup=0.08;net_short_read=0.25;aex_every=2048"
    "seed=606;net_drop=0.05;net_dup=0.05;net_short_read=0.25;aex_every=2048"
    "seed=777;aex_every=768"
)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

for plan in "${PLANS[@]}"; do
    echo "=== tier-1 under OCCLUM_FAULT_PLAN='$plan' ==="
    OCCLUM_FAULT_PLAN="$plan" \
        ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
done

# Plans 2, 4 and 7 again with the orderliness monitor in strict mode:
# one illegal enclave transition anywhere in tier-1 aborts the run.
# Every EncFs device attempt and every network op is an OCALL, so
# plan 2 (device retries) and plan 4 (network ops + AEX storm) check
# each of those EEXIT/EENTER pairs; plan 7 is the dense AEX storm.
for plan in "${PLANS[1]}" "${PLANS[3]}" "${PLANS[6]}"; do
    echo "=== tier-1 under OCCLUM_FAULT_PLAN='$plan' + OCCLUM_ORDERLINESS=strict ==="
    OCCLUM_FAULT_PLAN="$plan" OCCLUM_ORDERLINESS=strict \
        ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
done

# The AEX-storm plan again, under the sanitizers.
ASAN_DIR="${BUILD_DIR}-asan-faults"
cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOCCLUM_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

echo "=== tier-1 + ASan under OCCLUM_FAULT_PLAN='${PLANS[0]}' ==="
OCCLUM_FAULT_PLAN="${PLANS[0]}" \
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)"
