/**
 * @file
 * MiniC workload programs for every benchmark in the paper's
 * evaluation (§9), plus helpers that compile them for each OS
 * personality (instrumented + verifier-signed for Occlum; plain for
 * the Linux model and the EIP baseline).
 *
 * Substitutions (documented in DESIGN.md §1): the real applications
 * (fish/GNU coreutils, GCC, Lighttpd, SPECint2006, RIPE) are replaced
 * by synthetic MiniC programs that preserve what the figures measure
 * — process counts, binary sizes, pipe traffic, request concurrency,
 * and instruction mix — not application semantics.
 */
#ifndef OCCLUM_WORKLOADS_WORKLOADS_H
#define OCCLUM_WORKLOADS_WORKLOADS_H

#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "oelf/oelf.h"
#include "toolchain/minic.h"

namespace occlum::workloads {

/** The well-known verifier signing key used across benches/examples. */
crypto::Key128 bench_verifier_key();

/** Build variants of one program for the three systems. */
struct ProgramBuild {
    /** Instrumented (+optimizations), verified, signed; carries the
     *  digest the verifier signed, for HostFileStore::put to memoize. */
    oelf::SignedBinary occlum;
    Bytes plain; // uninstrumented (Linux model, EIP baseline)
    uint64_t occlum_size = 0;
    uint64_t plain_size = 0;
};

/**
 * Compile `source` both ways. `pad_to` synthesizes a larger binary
 * (static musl-linked real-world utilities are ~1 MiB; cc1 is 14 MiB
 * in Fig. 6a). Panics on compile/verify errors: workloads are fixed
 * inputs, not user data.
 */
ProgramBuild build_program(const std::string &source, uint64_t pad_to = 0,
                           uint64_t heap_size = 1 << 20,
                           uint64_t code_reserve = 1 << 20);

// ---- application workloads (Fig. 5) ----------------------------------

/** Fish-like shell driver: runs `pipeline_count` pipelines of
 *  utilities connected by pipes over an input file. */
std::string fish_driver_source();
/** The utilities the driver spawns. name in {gen, sort, grep, od, wc}. */
std::string fish_utility_source(const std::string &name);

/** GCC-like 4-stage compile pipeline (cpp | cc1 | as | ld). */
std::string gcc_driver_source();
std::string gcc_stage_source(const std::string &stage);

/** Lighttpd-like HTTP server: master + N workers accept/serve. */
std::string httpd_master_source();
std::string httpd_worker_source();
/**
 * Single-process poll()-driven event loop (Lighttpd's actual shape):
 * one pollfd set holds the listener plus every accepted connection,
 * so thousands of idle keep-alive connections cost nothing until
 * their readiness edge fires. argv: [count, backlog].
 */
std::string httpd_poll_source();
/**
 * Single-process epoll()-driven event loop: the kernel holds the
 * interest list, so each wait costs O(ready) instead of O(watched).
 * The listener is level-triggered; accepted connections are
 * edge-triggered (EPOLLET). This is the loop the C10K→C1M sweep in
 * bench_fig5c_lighttpd drives. argv: [count, backlog].
 */
std::string httpd_epoll_source();
/**
 * Reverse proxy + backend pool: the frontend owns the listener and an
 * epoll set (listener LT, connections ET, per-backend result pipes
 * LT); requests are forwarded as 8-byte jobs over pipes to 4 spawned
 * backend SIPs, which stream {conn-id, page} responses back. Exercises
 * spawn + pipes + sockets through one epoll loop. argv: [count,
 * backlog].
 */
std::string proxy_frontend_source();
std::string proxy_backend_source();

// ---- microbenchmark workloads (Fig. 6) ---------------------------------

std::string spawn_noop_source();
std::string pipe_writer_source();
std::string pipe_reader_source();
std::string file_write_bench_source();
std::string file_read_bench_source();

// ---- SPECint-like kernels (Fig. 7) ---------------------------------------

/** The 12 kernel names, in the paper's Fig. 7a order. */
const std::vector<std::string> &spec_kernel_names();
/** MiniC source of one kernel (panics on unknown name). */
std::string spec_kernel_source(const std::string &name);

} // namespace occlum::workloads

#endif // OCCLUM_WORKLOADS_WORKLOADS_H
