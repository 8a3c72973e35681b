#include "baseline/eip_system.h"

#include "oelf/abi.h"
#include "oskit/loader.h"

namespace occlum::baseline {

using oskit::IoResult;

// ---------------------------------------------------------------------
// ProtectedFile
// ---------------------------------------------------------------------

IoResult
ProtectedFile::read(oskit::Kernel &kernel, uint8_t *buf, uint64_t len)
{
    auto content = store_->get(path_);
    if (!content.ok()) {
        return IoResult::err(content.error().code);
    }
    const Bytes &bytes = *content.value();
    if (offset_ >= bytes.size()) {
        return IoResult::ok(0);
    }
    uint64_t n = std::min<uint64_t>(len, bytes.size() - offset_);
    std::copy(bytes.begin() + offset_, bytes.begin() + offset_ + n, buf);
    offset_ += n;
    // OCALL out for the host read, then decrypt + MAC-check in-enclave.
    kernel.ocall();
    kernel.charge(static_cast<uint64_t>(
        n * (CostModel::kDiskReadCyclesPerByte +
             CostModel::kAesCyclesPerByte + CostModel::kHmacCyclesPerByte +
             CostModel::kMemcpyCyclesPerByte)));
    return IoResult::ok(static_cast<int64_t>(n));
}

Result<int64_t>
ProtectedFile::seek(int64_t offset, int whence)
{
    auto content = store_->get(path_);
    if (!content.ok()) {
        return content.error();
    }
    auto pos = oskit::resolve_seek(offset_, content.value()->size(), offset,
                                   whence);
    if (pos.ok()) {
        offset_ = static_cast<uint64_t>(pos.value());
    }
    return pos;
}

int64_t
ProtectedFile::size() const
{
    auto content = store_->get(path_);
    return content.ok() ? static_cast<int64_t>(content.value()->size())
                        : -1;
}

// ---------------------------------------------------------------------
// EipSystem
// ---------------------------------------------------------------------

EipSystem::EipSystem(sgx::Platform &platform,
                     host::HostFileStore &binaries, Config config,
                     host::NetSim *net)
    : Kernel(platform.clock(), binaries, net), platform_(&platform),
      config_(config)
{}

EipSystem::~EipSystem()
{
    // Each process's memory and Cpu state live in its enclave.
    drop_preruns();
}

Result<std::unique_ptr<oskit::Process>>
EipSystem::create_process(const std::string &path,
                          const std::vector<std::string> &argv)
{
    auto raw = binaries().get(path);
    if (!raw.ok()) {
        return raw.error();
    }
    auto parsed = oelf::Image::parse(*raw.value());
    if (!parsed.ok()) {
        return parsed.error();
    }
    oelf::Image image = parsed.take();

    // Step 1 of EIP spawn (paper §3.2): create a brand-new enclave
    // sized to the configured minimum, measuring every page.
    constexpr uint64_t kBase = 0x100000000ull;
    uint64_t domain_bytes =
        (image.domain_size() + vm::kPageMask) & ~vm::kPageMask;
    // Enclave size: the configured floor plus headroom that scales
    // with the application (relocation, heap, mmap arena) — this is
    // why the paper's Graphene spawn grows from 0.64 s to 0.89 s as
    // the binary grows (Fig. 6a).
    uint64_t enclave_bytes =
        config_.min_enclave_bytes +
        static_cast<uint64_t>(
            domain_bytes * CostModel::kEipEnclaveBytesPerBinaryByte);
    enclave_bytes = (enclave_bytes + vm::kPageMask) & ~vm::kPageMask;
    auto enclave = std::make_unique<sgx::Enclave>(*platform_, kBase,
                                                  enclave_bytes);
    // Reserve (and measure) everything beyond the loaded image.
    OCC_RETURN_IF_ERROR(
        enclave->measure_reserved(enclave_bytes - domain_bytes));

    auto proc = std::make_unique<oskit::Process>();
    proc->space = &enclave->mem();
    proc->owned_cpu = std::make_unique<vm::Cpu>(enclave->mem());
    proc->cpu = proc->owned_cpu.get();

    oskit::LoadOptions options;
    options.domain_id = 1;
    options.rewrite_cfi = true;
    options.map_pages = true; // this enclave belongs to one process
    // SGX 1.0 LibOSes reserve an RWX page pool for dynamic loading —
    // the common pitfall paper SS7 notes makes them susceptible to
    // code injection. Occlum does not have this.
    options.data_rwx = true;
    auto domain = oskit::load_image(enclave->mem(), image, kBase, argv,
                                    options);
    if (!domain.ok()) {
        return domain.error();
    }
    // Charge the measurement of the loaded image pages (the loader
    // mapped them directly; EADD accounting happens here).
    charge(CostModel::pages_for(domain_bytes) *
           CostModel::kEaddEextendCyclesPerPage);
    OCC_RETURN_IF_ERROR(enclave->init());

    // Step 2: local attestation with the parent's enclave (both legs).
    enclave->create_report({});
    charge(CostModel::kLocalAttestCycles);

    // Step 3: vfork+execve-style state hand-off over an encrypted
    // stream (fd table, environment; no address-space copy).
    constexpr uint64_t kStateBytes = 16 << 10;
    enclave->charge_ocall();
    charge(static_cast<uint64_t>(
        kStateBytes * (CostModel::kEipStateTransferCyclesPerByte +
                       2 * CostModel::kAesCyclesPerByte)));

    oskit::init_cpu(*proc->cpu, domain.value());
    proc->domain_base = domain.value().base;
    proc->d_begin = domain.value().d_begin;
    proc->d_end = domain.value().d_end;
    proc->mmap_cursor = domain.value().mmap_begin;
    proc->mmap_end = domain.value().mmap_end;

    enclaves_[reinterpret_cast<uint64_t>(proc.get())] =
        std::move(enclave);
    return proc;
}

void
EipSystem::ocall()
{
    oskit::Process *caller = syscall_process();
    OCC_CHECK_MSG(caller != nullptr, "EIP OCALL outside a syscall");
    enclaves_.at(reinterpret_cast<uint64_t>(caller))->charge_ocall();
}

void
EipSystem::destroy_process(oskit::Process &proc)
{
    enclaves_.erase(reinterpret_cast<uint64_t>(&proc));
}

Result<oskit::FilePtr>
EipSystem::fs_open(oskit::Process &proc, const std::string &path,
                   uint64_t flags)
{
    (void)proc;
    if (flags & (abi::kOpenWrite | abi::kOpenRdWr | abi::kOpenCreate |
                 abi::kOpenTrunc | abi::kOpenAppend)) {
        return Error(ErrorCode::kRoFs,
                     "EIP shared FS is read-only (paper Table 1)");
    }
    if (!binaries().exists(path)) {
        return Error(ErrorCode::kNoEnt, path);
    }
    return oskit::FilePtr(
        std::make_shared<ProtectedFile>(&binaries(), path));
}

} // namespace occlum::baseline
