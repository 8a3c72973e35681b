/**
 * @file
 * The domain loader shared by all OS personalities.
 *
 * Performs the loader duties of paper §6: copy segments, write the
 * PCB (trampoline address, heap bounds, argv — the auxiliary-vector
 * stand-in), inject the trampoline page (the only way out of the
 * MMDSFI sandbox), stamp the domain ID into every cfi_label in place,
 * and initialize the CPU state including the MPX bound registers.
 */
#ifndef OCCLUM_OSKIT_LOADER_H
#define OCCLUM_OSKIT_LOADER_H

#include <string>
#include <vector>

#include "base/result.h"
#include "oelf/oelf.h"
#include "vm/cpu.h"

namespace occlum::oskit {

/** Resolved addresses of a loaded domain. */
struct LoadedDomain {
    uint64_t base = 0;       // trampoline page
    uint64_t c_begin = 0;    // user code
    uint64_t d_begin = 0;    // data region (PCB at the start)
    uint64_t d_end = 0;      // exclusive
    uint64_t heap_begin = 0; // malloc area (exposed via PCB)
    uint64_t heap_end = 0;
    uint64_t mmap_begin = 0; // kernel-managed mapping area
    uint64_t mmap_end = 0;
    uint64_t stack_top = 0;
    uint64_t entry = 0;
    uint32_t domain_id = 0;
};

struct LoadOptions {
    uint32_t domain_id = 0;
    /** Rewrite the last 4 bytes of every cfi_label to domain_id. */
    bool rewrite_cfi = true;
    /**
     * Map the pages (Linux/EIP). When false the pages must already
     * exist (Occlum's preallocated SGX 1.0 domain slots) and the
     * caller owns the wipe: the loader writes only the trampoline
     * gate, the code bytes, the PCB, argv and the initialized data,
     * so every other byte of the domain must already be zero — the
     * rest of the trampoline page, the code region past
     * `image.code.size()`, and the data region. The code bytes
     * themselves need no wipe; the load overwrites them.
     */
    bool map_pages = true;
    /**
     * Map the data region RWX instead of RW: the Graphene-era "RWX
     * page pool" pitfall of SGX 1.0 LibOSes (paper §7) that makes
     * code-injection attacks land. Occlum never sets this.
     */
    bool data_rwx = false;
};

/**
 * Place `image` at `base` in `space` and return the layout. Does not
 * charge simulated time: cost policy belongs to the personality.
 */
Result<LoadedDomain> load_image(vm::AddressSpace &space,
                                const oelf::Image &image, uint64_t base,
                                const std::vector<std::string> &argv,
                                const LoadOptions &options);

/** Set up a CPU at the domain's entry (registers, sp, bnd0/bnd1). */
void init_cpu(vm::Cpu &cpu, const LoadedDomain &domain);

} // namespace occlum::oskit

#endif // OCCLUM_OSKIT_LOADER_H
