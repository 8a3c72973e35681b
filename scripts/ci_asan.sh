#!/usr/bin/env bash
# CI job: build the whole tree with AddressSanitizer + UBSan and run
# the tier-1 test suite. Catches lifetime bugs the plain build can't —
# e.g. stale Page or Block pointers left behind by the interpreter's
# block cache or the address-space TLB after an unmap. GCC's
# `undefined` group leaves out float-cast-overflow (an out-of-range
# double -> integer conversion), so it is named on its own.
#
# Usage: scripts/ci_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOCCLUM_SANITIZE=address,undefined,float-cast-overflow
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: a sanitizer report must fail the job, not scroll by.
export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1:detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Extra leg: the vm and property tests with the default tier pinned
# to tier 1. The default run above already replays traces (the trace
# translator, peephole fusions, computed-goto loop and host-pointer
# TLB); this leg puts the block interpreter under ASan/UBSan on its
# own, the tier that also finishes every trace's budget tail.
OCCLUM_VM_SUPERBLOCK=0 "$BUILD_DIR/tests/vm_test"
OCCLUM_VM_SUPERBLOCK=0 "$BUILD_DIR/tests/property_test"

# Extra leg: the scalar reference crypto under the sanitizers. On a
# host whose CPU has AES-NI and SHA-NI the default run encrypts and
# hashes with the hardware kernels, so the byte-wise AES and the
# scalar SHA-256 compression would otherwise go unsanitized outside
# crypto_test. sgx_test drives SHA-256 through EEXTEND measurement
# and report MACs; encfs_test drives AES-CTR and HMAC through EncFs
# blocks; attest_test drives both through RecordCodec seal/open;
# toolchain_test and libos_test sign OELF images and check their
# signatures on every Occlum spawn (the streamed content digest).
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/crypto_test"
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/sgx_test"
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/encfs_test"
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/attest_test"
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/toolchain_test"
OCCLUM_CRYPTO_REFERENCE=1 "$BUILD_DIR/tests/libos_test"

# Extra leg: the SMP scheduler under the sanitizers. OCCLUM_CORES=2
# and 4 rerun every OcclumSystem scenario over per-core run queues,
# and the targeted batteries exercise stealing, cross-core wakeups,
# and the dup2/epoll fd-lifecycle paths (the roster use-after-free
# class only ASan can see).
for cores in 2 4; do
    OCCLUM_CORES="$cores" "$BUILD_DIR/tests/libos_test"
    OCCLUM_CORES="$cores" "$BUILD_DIR/tests/epoll_test"
done
"$BUILD_DIR/tests/oskit_test" --gtest_filter='Smp.*:Regression.*:Timers.*'

# Extra leg: the transition-orderliness battery (DESIGN.md §9) under
# the sanitizers with the monitor in strict mode — the AEX storms and
# SmashEx-shaped refusal paths walk the SSA snapshot, scrub, and TCS
# rebind code where a lifetime bug would hide, and any illegal
# enclave transition panics instead of being counted.
OCCLUM_ORDERLINESS=strict "$BUILD_DIR/tests/orderliness_test"
