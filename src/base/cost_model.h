/**
 * @file
 * Calibrated cycle-cost model for everything the simulation cannot run
 * natively: host syscalls, SGX instructions, crypto throughput, disk
 * and network bandwidth.
 *
 * Every constant is documented with its source. The paper (§9) ran on a
 * 3.5 GHz two-core Intel Core i7 (Kaby Lake), 32 GB RAM, 1 TB SSD,
 * 1 Gbps Ethernet, Linux 4.15, SGX 1.0 — the constants below are chosen
 * to match that platform so the reproduced figures land in the paper's
 * regime. The *claims* we reproduce are orderings/ratios/crossovers,
 * which are insensitive to modest miscalibration (see DESIGN.md §4).
 */
#ifndef OCCLUM_BASE_COST_MODEL_H
#define OCCLUM_BASE_COST_MODEL_H

#include <cstdint>

namespace occlum {

/** All calibrated cycle costs, grouped by subsystem. */
struct CostModel {
    // ---- Native Linux host costs -------------------------------------
    /** One round trip through a trivial Linux syscall (~150 ns). */
    static constexpr uint64_t kLinuxSyscallCycles = 500;
    /**
     * Linux posix_spawn (vfork+execve): ~170 us regardless of binary
     * size because Linux only builds page tables and demand-loads
     * (paper §9.2, Fig. 6a).
     */
    static constexpr uint64_t kLinuxSpawnCycles = 595'000;
    /** Copying memory, cycles per byte (cached memcpy, ~7 GB/s). */
    static constexpr double kMemcpyCyclesPerByte = 0.5;
    /** Pipe transfer: user->kernel->user, two copies plus bookkeeping. */
    static constexpr double kPipeCopyCyclesPerByte = 1.0;

    // ---- SGX instruction costs ---------------------------------------
    /**
     * EADD + 16x EEXTEND (256-byte chunks) per 4 KiB page. Dominates
     * enclave creation; calibrated so that a Graphene-style minimal
     * 256 MiB enclave takes ~0.64 s to create (paper Fig. 6a).
     */
    static constexpr uint64_t kEaddEextendCyclesPerPage = 34'000;
    /** ECREATE + EINIT + launch-token fixed cost. */
    static constexpr uint64_t kEnclaveCreateFixedCycles = 2'000'000;
    /** EENTER (world switch into enclave, TLB flush etc., ~2 us). */
    static constexpr uint64_t kEenterCycles = 7'000;
    /** EEXIT (world switch out of enclave). */
    static constexpr uint64_t kEexitCycles = 4'500;
    /** Asynchronous enclave exit: save SSA, exit, later ERESUME. */
    static constexpr uint64_t kAexCycles = 7'000;
    /** EREPORT + MAC check for one local-attestation handshake leg. */
    static constexpr uint64_t kLocalAttestCycles = 100'000;
    /** EGETKEY: derive a platform-bound key inside the enclave. */
    static constexpr uint64_t kEgetkeyCycles = 3'000;

    // ---- Attested channels (src/attest) --------------------------------
    /**
     * Fixed per-record cost of the attested channel's record layer:
     * framing, sequence bookkeeping, and the constant part of the
     * encrypt-then-MAC pass (per-byte AES/HMAC costs are charged
     * separately via kAesCyclesPerByte / kHmacCyclesPerByte).
     */
    static constexpr uint64_t kAttestRecordFixedCycles = 400;

    // ---- Occlum LibOS costs (paper §9.2) -------------------------------
    /**
     * Fixed part of Occlum spawn: allocate a domain, set up the SIP,
     * rewrite auxv, start the SGX thread. Calibrated with
     * kOcclumLoadCyclesPerPage so spawn(14 KiB) ~ 97 us,
     * spawn(400 KiB) ~ 1.7 ms, spawn(14 MiB) ~ 63 ms (Fig. 6a).
     */
    static constexpr uint64_t kOcclumSpawnFixedCycles = 100'000;
    /**
     * Per-4KiB-page cost of loading a binary into the enclave: copy
     * into EPC, rewrite cfi_labels, zero BSS/heap. Occlum lacks
     * on-demand loading inside the enclave (paper §9.1), so the whole
     * binary is loaded eagerly.
     */
    static constexpr uint64_t kOcclumLoadCyclesPerPage = 61'000;
    /** A LibOS syscall is a function call through the trampoline. */
    static constexpr uint64_t kLibosSyscallCycles = 120;

    // ---- Crypto throughput ---------------------------------------------
    /** AES-128-CTR with AES-NI, cycles per byte. */
    static constexpr double kAesCyclesPerByte = 2.0;
    /** HMAC-SHA-256 (hardware SHA ext not assumed), cycles per byte. */
    static constexpr double kHmacCyclesPerByte = 1.2;
    /** SHA-256 measurement during EEXTEND is inside
     *  kEaddEextendCyclesPerPage; this constant is for ad-hoc hashing. */
    static constexpr double kSha256CyclesPerByte = 6.0;
    /**
     * Fixed per-read/write cost inside the encrypted FS: integrity
     * metadata lookup and bookkeeping (the Intel Protected FS keeps a
     * Merkle structure; ours keeps the MAC table). Calibrated with the
     * crypto per-byte costs so Fig. 6c/6d land near the paper's -39%
     * read / -18% write averages.
     */
    static constexpr uint64_t kEncFsOpCycles = 500;

    // ---- Storage (1 TB SATA SSD, ext4; paper §9) ------------------------
    /** Sequential read bandwidth ~500 MB/s. */
    static constexpr double kDiskReadCyclesPerByte = 7.0;
    /** Sequential write bandwidth ~110 MB/s (journaled ext4). */
    static constexpr double kDiskWriteCyclesPerByte = 32.0;
    /** Per-request overhead for a block I/O submission. */
    static constexpr uint64_t kDiskRequestCycles = 4'000;

    // ---- Network (1 Gbps Ethernet, same LAN; paper §9) ------------------
    /** 1 Gbps = 125 MB/s => 28 cycles per byte at 3.5 GHz. */
    static constexpr double kNetCyclesPerByte = 28.0;
    /** One round-trip latency in the LAN (~120 us). */
    static constexpr uint64_t kNetRttCycles = 420'000;
    /** TCP connection accept + setup cost on the host. */
    static constexpr uint64_t kNetAcceptCycles = 20'000;
    /**
     * Client retransmission timer for a handshake flight: generous
     * (several RTTs) because NetSim models loss as delay, so a resend
     * signals a *badly* delayed flight, not a lost one.
     */
    static constexpr uint64_t kAttestRetryCycles = 8 * kNetRttCycles;
    /**
     * Fail-closed deadline for a whole attestation handshake: an
     * endpoint that cannot finish by then reports kTimeout and closes
     * — it never stays half-open holding partially-derived keys.
     */
    static constexpr uint64_t kAttestHandshakeDeadlineCycles =
        64 * kNetRttCycles;

    // ---- Graphene-like EIP baseline -------------------------------------
    /**
     * Minimal enclave size for a Graphene-style process. The paper
     * configures "the minimal enclave size that is able to run the
     * benchmark"; a Graphene manifest below 256 MiB rarely boots a
     * LibOS + libc + heap, so that is our floor.
     */
    static constexpr uint64_t kEipMinEnclaveBytes = 256ull << 20;
    /**
     * Extra enclave headroom per byte of application binary (code,
     * relocation, heap scaled with binary size). Calibrated so a
     * 14 MiB binary lands near the paper's 0.89 s Graphene spawn.
     */
    static constexpr double kEipEnclaveBytesPerBinaryByte = 4.0;
    /** Serializing + transferring process state at checkpoint/restore. */
    static constexpr double kEipStateTransferCyclesPerByte = 4.0;
    /**
     * Per pipe operation: half an EEXIT + EENTER pair (5750 cycles).
     * This models exitless batching of EIP pipe traffic through
     * untrusted memory, not an OCALL, so no transition is counted.
     */
    static constexpr uint64_t kEipPipeOpCycles =
        (kEexitCycles + kEenterCycles) / 2;

    // ---- Fault handling (src/faultsim; DESIGN.md "Fault model") ---------
    /**
     * Bounded retries after a transient (EAGAIN-shaped) host I/O
     * fault: the first attempt plus up to this many retries, then the
     * error is surfaced as EIO. Small because each retry re-pays the
     * OCALL round trip.
     */
    static constexpr uint32_t kIoRetryLimit = 3;
    /** Backoff charged before the first retry; doubles per retry. */
    static constexpr uint64_t kIoRetryBackoffCycles = 8'000;
    /**
     * Extra delay when the network drops a segment: the sender's
     * retransmission timer, ~2 RTTs (an RTT-estimator's floor on a
     * quiet LAN). Only charged under injected loss.
     */
    static constexpr uint64_t kNetRetransmitCycles = 2 * kNetRttCycles;

    /** Convert a byte count to whole 4 KiB pages (rounding up). */
    static constexpr uint64_t
    pages_for(uint64_t bytes)
    {
        return (bytes + 4095) / 4096;
    }
};

} // namespace occlum

#endif // OCCLUM_BASE_COST_MODEL_H
