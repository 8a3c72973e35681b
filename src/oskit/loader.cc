#include "oskit/loader.h"

#include "base/log.h"
#include "isa/assembler.h"
#include "oelf/abi.h"

namespace occlum::oskit {

namespace {

/**
 * Stamp `domain_id` into the domain-ID field of every cfi_label of
 * `code`, which has just been copied to `c_begin`. Labels are found in
 * the (read-only) image and patched in the slot: a scan resumes after
 * a label's 8 bytes, and no label starts in the last 7 bytes.
 */
void
stamp_cfi_labels(vm::AddressSpace &space, uint64_t c_begin,
                 const Bytes &code, uint32_t domain_id)
{
    uint8_t id[4];
    set_le<uint32_t>(id, domain_id);
    const uint8_t *bytes = code.data();
    const size_t size = code.size();
    for (size_t i = isa::find_cfi_label(bytes, size, 0); i < size;
         i = isa::find_cfi_label(bytes, size, i + isa::kCfiLabelSize)) {
        OCC_CHECK(space.write_raw(c_begin + i + 4, id, sizeof(id)) ==
                  vm::AccessFault::kNone);
    }
}

} // namespace

Result<LoadedDomain>
load_image(vm::AddressSpace &space, const oelf::Image &image,
           uint64_t base, const std::vector<std::string> &argv,
           const LoadOptions &options)
{
    if (base & vm::kPageMask) {
        return Error(ErrorCode::kInval, "unaligned domain base");
    }
    if (image.code.size() > image.code_region_size()) {
        return Error(ErrorCode::kNoExec, "code exceeds its reservation");
    }

    LoadedDomain domain;
    domain.base = base;
    domain.domain_id = options.domain_id;
    domain.c_begin = base + oelf::kTrampSize;
    domain.d_begin = base + image.data_offset();
    domain.d_end = domain.d_begin + image.data_region_size();
    domain.entry = domain.c_begin + image.entry_offset;

    uint64_t code_pages = oelf::kTrampSize + image.code_region_size();
    if (options.map_pages) {
        // Trampoline + code: RX; data: RW; guards left unmapped.
        OCC_RETURN_IF_ERROR(space.map(base, code_pages, vm::kPermRX));
        OCC_RETURN_IF_ERROR(space.map(
            domain.d_begin, image.data_region_size(),
            options.data_rwx ? vm::kPermRWX : vm::kPermRW));
    } else {
        // The caller has wiped the slot (see LoadOptions::map_pages).
        if (!space.is_mapped(base, code_pages) ||
            !space.is_mapped(domain.d_begin, image.data_region_size())) {
            return Error(ErrorCode::kNoMem, "domain slot not mapped");
        }
    }

    // Trampoline: cfi_label(domain_id); ltrap. The cfi_label makes the
    // gate a legal target for the user's cfi_guard + call_reg.
    isa::Assembler gate(base);
    gate.cfi_label(options.domain_id);
    gate.ltrap();
    Bytes gate_code = gate.finish();
    OCC_CHECK(space.write_raw(base, gate_code.data(), gate_code.size()) ==
              vm::AccessFault::kNone);

    // User code, then the domain ID stamped into every cfi_label.
    if (!image.code.empty()) {
        OCC_CHECK(space.write_raw(domain.c_begin, image.code.data(),
                                  image.code.size()) ==
                  vm::AccessFault::kNone);
    }
    if (options.rewrite_cfi) {
        stamp_cfi_labels(space, domain.c_begin, image.code,
                         options.domain_id);
    }

    // Initialized data after the PCB.
    if (!image.data.empty()) {
        OCC_CHECK(space.write_raw(domain.d_begin + abi::kPcbSize,
                                  image.data.data(), image.data.size()) ==
                  vm::AccessFault::kNone);
    }

    // Heap split: low 3/4 to the user bump allocator (via the PCB),
    // high 1/4 to kernel-managed mmap.
    uint64_t heap_lo = domain.d_begin + image.heap_offset_in_data();
    uint64_t heap_hi = heap_lo + image.heap_size;
    uint64_t heap_mid =
        (heap_lo + image.heap_size * 3 / 4 + 7) & ~7ull;
    domain.heap_begin = heap_lo;
    domain.heap_end = heap_mid;
    domain.mmap_begin = heap_mid;
    domain.mmap_end = heap_hi;
    domain.stack_top = domain.d_end - 16;

    // PCB (paper §6's auxv stand-in).
    auto put64 = [&](uint64_t off, uint64_t value) {
        OCC_CHECK(space.write_raw(domain.d_begin + off, &value, 8) ==
                  vm::AccessFault::kNone);
    };
    put64(abi::kPcbTrampoline, base);
    put64(abi::kPcbDomainId, options.domain_id);
    put64(abi::kPcbHeapBegin, domain.heap_begin);
    put64(abi::kPcbHeapEnd, domain.heap_end);
    put64(abi::kPcbArgc, argv.size());

    // argv blob: pointer array then string bytes.
    uint64_t blob_base = domain.d_begin + abi::kPcbArgBlob;
    uint64_t ptr_area = blob_base;
    uint64_t str_area = blob_base + 8 * argv.size();
    uint64_t blob_end = domain.d_begin + abi::kPcbSize;
    put64(abi::kPcbArgv, ptr_area);
    for (size_t i = 0; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        if (str_area + arg.size() + 1 > blob_end) {
            return Error(ErrorCode::kInval, "argv too large for the PCB");
        }
        put64(abi::kPcbArgBlob + 8 * i, str_area);
        OCC_CHECK(space.write_raw(str_area, arg.c_str(),
                                  arg.size() + 1) ==
                  vm::AccessFault::kNone);
        str_area += arg.size() + 1;
    }
    return domain;
}

void
init_cpu(vm::Cpu &cpu, const LoadedDomain &domain)
{
    vm::CpuState state;
    state.rip = domain.entry;
    state.regs[isa::kSp] = domain.stack_top;
    state.bnds[isa::kBndData] = {domain.d_begin, domain.d_end - 1};
    uint64_t label = isa::cfi_label_value(domain.domain_id);
    state.bnds[isa::kBndCfi] = {label, label};
    cpu.set_state(state);
}

} // namespace occlum::oskit
