#!/usr/bin/env bash
# CI job: build the whole tree with ThreadSanitizer and run the tier-1
# suite, then the OcclumSystem batteries again at OCCLUM_CORES=4.
#
# Since quanta are pre-run on host threads (DESIGN.md §3.4, "host
# execution"), a round's CPU-bound quanta execute concurrently, each
# on its own vm::Cpu over its own pages of one shared AddressSpace,
# while the kernel's walk goes on on the main thread. What keeps them
# apart is a protocol, not memory safety: per-Cpu TLBs, an atomic
# epoch and code generation, accesses confined to the SIP's slot, a
# lock on the page table's structure, and a walk that settles a pid's
# pre-run before it touches that pid. A slip in that protocol is a
# data race — two threads touching the same page, TLB entry, block
# cache or page-table node without a happens-before edge.
# ASan cannot see it: a racy access still lands in live, correctly
# sized memory, so nothing is out of bounds or freed. Only TSan
# checks the ordering between threads.
#
# At OCCLUM_CORES=4 every OcclumSystem scenario runs several SIPs
# per round, so most rounds pre-run two or more quanta at once.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOCCLUM_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: a race report must fail the job, not scroll by.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

for test in oskit_test libos_test property_test; do
    echo "=== $test under OCCLUM_CORES=4 ==="
    OCCLUM_CORES=4 "$BUILD_DIR/tests/$test"
done

# Which pre-runs a 3-worker pool has started, finished or not yet
# touched when the walk reaches them differs from run to run, so one
# pass sees one interleaving: repeat the pre-run and speculation tests.
for test in libos_test vm_test; do
    echo "=== $test PreRun/Speculation x20 ==="
    "$BUILD_DIR/tests/$test" --gtest_filter='PreRun.*:Speculation.*' \
        --gtest_repeat=20 --gtest_brief=1
done

echo "ci_tsan: OK"
