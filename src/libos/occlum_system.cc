#include "libos/occlum_system.h"

#include <cstdlib>

#include "base/log.h"
#include "faultsim/faultsim.h"
#include "isa/isa.h"
#include "oskit/loader.h"
#include "sgx/monitor.h"
#include "trace/trace.h"

namespace occlum::libos {

using oskit::IoResult;

// ---------------------------------------------------------------------
// EncFile
// ---------------------------------------------------------------------

IoResult
EncFile::read(oskit::Kernel &kernel, uint8_t *buf, uint64_t len)
{
    (void)kernel; // EncFs charges the clock directly
    auto n = fs_->read(inode_, offset_, buf, len);
    if (!n.ok()) {
        return IoResult::err(n.error().code);
    }
    offset_ += static_cast<uint64_t>(n.value());
    return IoResult::ok(n.value());
}

IoResult
EncFile::write(oskit::Kernel &kernel, const uint8_t *buf, uint64_t len)
{
    (void)kernel;
    if ((flags_ & (abi::kOpenWrite | abi::kOpenRdWr)) == 0) {
        return IoResult::err(ErrorCode::kBadF);
    }
    auto n = fs_->write(inode_, offset_, buf, len);
    if (!n.ok()) {
        return IoResult::err(n.error().code);
    }
    offset_ += static_cast<uint64_t>(n.value());
    return IoResult::ok(n.value());
}

Result<int64_t>
EncFile::seek(int64_t offset, int whence)
{
    auto size = fs_->file_size(inode_);
    if (!size.ok()) {
        return size.error();
    }
    auto pos = oskit::resolve_seek(offset_, size.value(), offset, whence);
    if (pos.ok()) {
        offset_ = static_cast<uint64_t>(pos.value());
    }
    return pos;
}

int64_t
EncFile::size() const
{
    auto size = fs_->file_size(inode_);
    return size.ok() ? static_cast<int64_t>(size.value()) : -1;
}

Status
EncFile::fsync(oskit::Kernel &kernel)
{
    (void)kernel;
    return fs_->sync();
}

// ---------------------------------------------------------------------
// DevFile
// ---------------------------------------------------------------------

IoResult
DevFile::read(oskit::Kernel &kernel, uint8_t *buf, uint64_t len)
{
    (void)kernel;
    switch (kind_) {
      case Kind::kNull:
        return IoResult::ok(0);
      case Kind::kZero:
        std::fill(buf, buf + len, 0);
        return IoResult::ok(static_cast<int64_t>(len));
      case Kind::kProcText: {
        if (offset_ >= text_.size()) {
            return IoResult::ok(0);
        }
        uint64_t n = std::min<uint64_t>(len, text_.size() - offset_);
        std::copy(text_.begin() + offset_, text_.begin() + offset_ + n,
                  buf);
        offset_ += n;
        return IoResult::ok(static_cast<int64_t>(n));
      }
    }
    return IoResult::err(ErrorCode::kInval);
}

IoResult
DevFile::write(oskit::Kernel &kernel, const uint8_t *buf, uint64_t len)
{
    (void)kernel;
    (void)buf;
    if (kind_ == Kind::kProcText) {
        return IoResult::err(ErrorCode::kAccess);
    }
    return IoResult::ok(static_cast<int64_t>(len)); // bit bucket
}

// ---------------------------------------------------------------------
// OcclumSystem
// ---------------------------------------------------------------------

uint64_t
OcclumSystem::slot_span() const
{
    return oelf::kTrampSize + config_.slot_code_size + oelf::kGuardSize +
           config_.slot_data_size + oelf::kGuardSize;
}

OcclumSystem::OcclumSystem(sgx::Platform &platform,
                           host::HostFileStore &binaries, Config config,
                           host::NetSim *net)
    : Kernel(platform.clock(), binaries, net), platform_(&platform),
      config_(config)
{
    // Core topology first (it must precede the first spawn): the
    // config pins it explicitly, else OCCLUM_CORES selects it, else
    // one core.
    int cores = config_.cores;
    if (cores <= 0) {
        cores = 1;
        const char *env = std::getenv("OCCLUM_CORES");
        if (env != nullptr && *env != '\0') {
            // A typo read as one core would make an SMP CI leg test
            // the unicore walk; fail loudly instead.
            auto parsed = oskit::parse_core_count(env);
            OCC_CHECK_MSG(parsed.ok(),
                          "OCCLUM_CORES: " << parsed.error().message);
            cores = parsed.value();
        }
    }
    set_cores(cores);
    // The monitor parses OCCLUM_ORDERLINESS on first use; touch it now
    // so a bad value fails at boot, not at the first injected AEX.
    sgx::TransitionMonitor::instance();

    // One enclave for the whole system (paper Fig. 1a).
    uint64_t span = slot_span();
    uint64_t enclave_size = span * config_.num_slots;
    enclave_ = std::make_unique<sgx::Enclave>(
        platform, config_.enclave_base, enclave_size);
    // Each slot its own code generation: a spawn into one (rewriting
    // code an exited SIP fetched) leaves the other SIPs' blocks valid.
    enclave_->mem().set_code_regions(config_.enclave_base, span,
                                     config_.num_slots);

    // Preallocate every domain slot before EINIT (SGX 1.0, paper §6):
    // trampoline+code executable, data writable, guards unmapped.
    // EPC exhaustion (the real machine's or faultsim's) degrades the
    // slot count instead of aborting: a partially-added slot is never
    // pushed (an unmapped hole inside a SIP region would fault the
    // loader much later, far from the cause).
    for (int s = 0; s < config_.num_slots; ++s) {
        Slot slot;
        slot.base = config_.enclave_base + s * span;
        uint64_t code_len = oelf::kTrampSize + config_.slot_code_size;
        Status added =
            enclave_->add_pages(slot.base, code_len, vm::kPermRX);
        if (added.ok()) {
            uint64_t data_base =
                slot.base + code_len + oelf::kGuardSize;
            added = enclave_->add_pages(
                data_base, config_.slot_data_size, vm::kPermRW);
        }
        if (!added.ok()) {
            OCC_WARN("EPC exhausted after "
                     << slots_.size() << "/" << config_.num_slots
                     << " domain slots: " << added.error().message);
            break;
        }
        slots_.push_back(slot);
    }
    OCC_CHECK_MSG(!slots_.empty(),
                  "EPC cannot hold even one domain slot");

    // Stamp the SIGSTRUCT identity before EINIT. The signer digest is
    // the hash of the verifier's signing key — the same key that
    // authenticates OELF binaries — mirroring oesign's MRSIGNER.
    sgx::EnclaveIdentity identity;
    identity.signer = crypto::Sha256::digest(
        config_.verifier_key.data(), config_.verifier_key.size());
    identity.isv_prod_id = config_.isv_prod_id;
    identity.isv_svn = config_.isv_svn;
    if (config_.debug_enclave) {
        identity.attributes |= sgx::EnclaveIdentity::kAttrDebug;
    }
    OCC_CHECK(enclave_->set_identity(identity).ok());
    OCC_CHECK(enclave_->init().ok());
    for (int c = 0; c < this->cores(); ++c) {
        core_threads_.push_back(std::make_unique<sgx::SgxThread>(*enclave_));
    }

    // The encrypted FS over an untrusted host block device. A
    // restarted system mounts the predecessor's external device
    // instead of formatting a fresh one.
    if (config_.external_device != nullptr) {
        active_device_ = config_.external_device;
    } else {
        device_ = std::make_unique<host::BlockDevice>(
            platform.clock(), config_.fs_blocks);
        active_device_ = device_.get();
    }
    EncFs::Config fs_config;
    fs_config.key = config_.fs_key;
    fs_config.cache_blocks = config_.fs_cache_blocks;
    fs_config.ocall = [this] { ocall(); };
    encfs_ = std::make_unique<EncFs>(*active_device_, platform.clock(),
                                     fs_config);
    fs_status_ =
        config_.format_device ? encfs_->mkfs() : encfs_->mount();
    if (!fs_status_.ok()) {
        // A torn superblock write must not abort the whole enclave;
        // the system comes up with the FS unusable and fs_status()
        // says why.
        OCC_WARN("EncFs " << (config_.format_device ? "mkfs" : "mount")
                          << " failed: " << fs_status_.error().message);
    }
}

OcclumSystem::~OcclumSystem()
{
    // A pool thread may be running a pre-run in the enclave's memory.
    drop_preruns();
}

int
OcclumSystem::free_slots() const
{
    int free_count = 0;
    for (const auto &slot : slots_) {
        if (!slot.used) {
            ++free_count;
        }
    }
    return free_count;
}

Result<std::unique_ptr<oskit::Process>>
OcclumSystem::create_process(const std::string &path,
                             const std::vector<std::string> &argv)
{
    OCC_TRACE_SPAN(kLibos, "libos.spawn");
    host::HostFileStore &store = binaries();
    auto raw = store.get(path);
    if (!raw.ok()) {
        return raw.error();
    }
    const uint64_t version = store.version(path);
    auto parsed = oelf::Image::parse(*raw.value());
    if (!parsed.ok()) {
        return parsed.error();
    }
    oelf::Image image = parsed.take();

    // The loader only accepts binaries verified and signed by the
    // Occlum verifier (paper §6). The digest of unchanged host bytes
    // may come from the store's memo, seeded by the build's put or
    // filled by an earlier spawn; the HMAC under this system's key and
    // the compare run on every spawn (DESIGN.md §3.5).
    if (config_.check_signatures) {
        if (!(image.flags & oelf::kFlagInstrumented) ||
            !image.check_signature(
                config_.verifier_key,
                store.memoized_digest(path, version, [&image] {
                    return image.content_digest();
                }))) {
            return Error(ErrorCode::kNoExec,
                         "binary is not verifier-signed: " + path);
        }
    }
    if (image.code_region_size() != config_.slot_code_size) {
        return Error(ErrorCode::kNoExec,
                     "binary linked for a different slot geometry");
    }
    if (image.data_region_size() > config_.slot_data_size) {
        return Error(ErrorCode::kNoMem,
                     "data region exceeds the slot size");
    }

    int slot_index = -1;
    for (size_t s = 0; s < slots_.size(); ++s) {
        if (!slots_[s].used) {
            slot_index = static_cast<int>(s);
            break;
        }
    }
    if (slot_index < 0) {
        return Error(ErrorCode::kAgain, "no free domain slots");
    }
    Slot &slot = slots_[slot_index];

    // Wipe the slot (a reused slot must not leak the previous SIP's
    // memory), then load. The loader leaves the wipe to us
    // (LoadOptions::map_pages): zero everything but the code bytes,
    // which the load overwrites.
    vm::AddressSpace &mem = enclave_->mem();
    uint64_t code_end = slot.base + oelf::kTrampSize + image.code.size();
    mem.zero_raw(slot.base, oelf::kTrampSize);
    mem.zero_raw(code_end, config_.slot_code_size - image.code.size());
    uint64_t data_base = slot.base + oelf::kTrampSize +
                         config_.slot_code_size + oelf::kGuardSize;
    mem.zero_raw(data_base, config_.slot_data_size);

    oskit::LoadOptions options;
    options.domain_id = next_domain_id_++;
    options.rewrite_cfi = true;
    options.map_pages = false; // slots were EADDed before EINIT
    auto domain =
        oskit::load_image(mem, image, slot.base, argv, options);
    if (!domain.ok()) {
        return domain.error();
    }

    auto proc = std::make_unique<oskit::Process>();
    proc->space = &enclave_->mem();
    proc->owned_cpu = std::make_unique<vm::Cpu>(enclave_->mem());
    proc->cpu = proc->owned_cpu.get();
    // The slot is the SIP's own memory: its quanta may run on another
    // host thread, which must touch nothing beyond it.
    proc->cpu->confine_to(slot.base, slot.base + slot_span());
    oskit::init_cpu(*proc->cpu, domain.value());
    proc->domain_base = domain.value().base;
    proc->d_begin = domain.value().d_begin;
    proc->d_end = domain.value().d_end;
    proc->domain_id = domain.value().domain_id;
    proc->mmap_cursor = domain.value().mmap_begin;
    proc->mmap_end = domain.value().mmap_end;
    slot.used = true;

    // Spawn cost: fixed LibOS work plus copying the binary into the
    // enclave (no on-demand loading inside an enclave, paper §9.2).
    charge(CostModel::kOcclumSpawnFixedCycles +
           CostModel::pages_for(image.load_bytes()) *
               CostModel::kOcclumLoadCyclesPerPage);
    return proc;
}

void
OcclumSystem::destroy_process(oskit::Process &proc)
{
    uint64_t span = slot_span();
    uint64_t index = (proc.domain_base - config_.enclave_base) / span;
    OCC_CHECK(index < slots_.size());
    slots_[index].used = false;
}

Status
OcclumSystem::validate_user_range(oskit::Process &proc, uint64_t addr,
                                  uint64_t len)
{
    // A SIP may only hand the LibOS pointers into its own data region
    // — otherwise syscalls become a confused deputy for reading other
    // SIPs' memory (inter-process isolation, paper §3.1).
    if (len == 0) {
        return Status();
    }
    if (addr < proc.d_begin || addr + len > proc.d_end ||
        addr + len < addr) {
        return Status(ErrorCode::kFault,
                      "user pointer outside the SIP's data region");
    }
    return Status();
}

Status
OcclumSystem::validate_syscall_return(oskit::Process &proc,
                                      uint64_t target)
{
    // Paper §6: "LibOS will ensure that the return address target is
    // a cfi_label of corresponding SIP."
    uint64_t c_begin = proc.domain_base + oelf::kTrampSize;
    uint64_t c_end = proc.d_begin - oelf::kGuardSize;
    if (target < c_begin || target + 8 > c_end) {
        return Status(ErrorCode::kFault,
                      "syscall return target outside the SIP's code");
    }
    uint64_t value = 0;
    if (proc.space->read_raw(target, &value, 8) !=
        vm::AccessFault::kNone) {
        return Status(ErrorCode::kFault, "unreadable return target");
    }
    // The id the loader stamped, not the PCB's copy: the SIP can
    // overwrite that word.
    if (value != isa::cfi_label_value(proc.domain_id)) {
        return Status(ErrorCode::kFault,
                      "syscall return target is not this SIP's "
                      "cfi_label");
    }
    return Status();
}

Result<oskit::FilePtr>
OcclumSystem::fs_open(oskit::Process &proc, const std::string &path,
                      uint64_t flags)
{
    (void)proc;
    // Special in-enclave file systems (paper §6): /dev and /proc.
    if (path == "/dev/null") {
        return oskit::FilePtr(
            std::make_shared<DevFile>(DevFile::Kind::kNull));
    }
    if (path == "/dev/zero") {
        return oskit::FilePtr(
            std::make_shared<DevFile>(DevFile::Kind::kZero));
    }
    if (path.rfind("/proc/", 0) == 0) {
        std::string text;
        if (path == "/proc/meminfo") {
            text = "EnclaveTotal: " +
                   std::to_string(enclave_->size() / 1024) + " kB\n";
        } else if (path == "/proc/self/status") {
            text = "Name: sip\nThreads: 1\n";
        } else {
            return Error(ErrorCode::kNoEnt, path);
        }
        return oskit::FilePtr(std::make_shared<DevFile>(
            DevFile::Kind::kProcText, std::move(text)));
    }
    bool create = flags & abi::kOpenCreate;
    bool trunc = flags & abi::kOpenTrunc;
    auto inode = encfs_->open_inode(path, create, trunc);
    if (!inode.ok()) {
        return inode.error();
    }
    return oskit::FilePtr(
        std::make_shared<EncFile>(encfs_.get(), inode.value(), flags));
}

void
OcclumSystem::on_injected_aex(oskit::Process &proc)
{
    OCC_TRACE_SPAN(kSgx, "sgx.injected_aex",
                   static_cast<uint64_t>(proc.pid));
    // Bind the interrupted core's TCS to the SIP's CPU: try_aex()
    // snapshots the state into the SSA and clobbers the live
    // registers (as the hardware scrubs them on an exit), resume()
    // restores the snapshot. If the SSA round trip dropped anything —
    // a bound register, flags — the SIP resumes corrupted and the
    // AEX-storm transparency tests catch it. One TCS (one SSA frame)
    // exists per simulated core; an AEX storm hits each core's
    // stream independently.
    // Stamp the pid/core context so the orderliness monitor's records
    // (and any violation it flags) carry the scheduling context of
    // the injection, not just the raw transition.
    sgx::ScopedMonitorContext ctx(proc.pid, current_core());
    sgx::SgxThread &thread = core_tcs(current_core());
    if (!thread.try_bind(*proc.cpu)) {
        // SSA frame occupied: the monitor recorded the refused rebind.
        // Unreachable in the current round-trip discipline (every
        // serviced AEX resumes before the hook returns), but an
        // adversarial schedule must degrade to a skipped injection,
        // not a kernel crash.
        return;
    }
    if (!thread.try_aex()) {
        return; // already in an AEX (NSSA=1) — cannot nest
    }
    thread.resume();
    faultsim::FaultSim::instance().count_injected_aex();
}

void
OcclumSystem::ocall()
{
    // An OCALL is issued by code running inside the enclave, so the
    // TCS is kInside: a refused EEXIT here is a kernel bug.
    OCC_CHECK_MSG(core_tcs(current_core()).ocall().ok(),
                  "OCALL from a TCS not inside");
}

Status
OcclumSystem::fs_unlink(const std::string &path)
{
    return encfs_->unlink(path);
}

Status
OcclumSystem::fs_mkdir(const std::string &path)
{
    return encfs_->mkdir(path);
}

} // namespace occlum::libos
