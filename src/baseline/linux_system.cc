#include "baseline/linux_system.h"

#include "oelf/abi.h"
#include "oskit/loader.h"

namespace occlum::baseline {

using oskit::IoResult;

// ---------------------------------------------------------------------
// ExtFile
// ---------------------------------------------------------------------

ExtFile::ExtFile(host::HostFileStore *store, std::string path,
                 uint64_t flags)
    : store_(store), path_(std::move(path)),
      identity_(store->identity(path_)), flags_(flags)
{
    // fs_open made sure the entry exists.
    if (flags_ & abi::kOpenTrunc) {
        store_->get_mutable(path_).value()->clear();
    }
    if (flags_ & abi::kOpenAppend) {
        offset_ = store_->get(path_).value()->size();
    }
}

IoResult
ExtFile::read(oskit::Kernel &kernel, uint8_t *buf, uint64_t len)
{
    if (gone()) {
        return IoResult::err(ErrorCode::kNoEnt);
    }
    const Bytes &bytes = *store_->get(path_).value();
    if (offset_ >= bytes.size()) {
        return IoResult::ok(0);
    }
    uint64_t n = std::min<uint64_t>(len, bytes.size() - offset_);
    std::copy(bytes.begin() + offset_, bytes.begin() + offset_ + n, buf);
    offset_ += n;
    kernel.charge(static_cast<uint64_t>(
        n * (CostModel::kDiskReadCyclesPerByte +
             CostModel::kMemcpyCyclesPerByte)));
    return IoResult::ok(static_cast<int64_t>(n));
}

IoResult
ExtFile::write(oskit::Kernel &kernel, const uint8_t *buf, uint64_t len)
{
    if ((flags_ & (abi::kOpenWrite | abi::kOpenRdWr)) == 0) {
        return IoResult::err(ErrorCode::kBadF);
    }
    if (gone()) {
        return IoResult::err(ErrorCode::kNoEnt);
    }
    Bytes &bytes = *store_->get_mutable(path_).value();
    if (offset_ + len > bytes.size()) {
        bytes.resize(offset_ + len);
    }
    std::copy(buf, buf + len, bytes.begin() + offset_);
    offset_ += len;
    kernel.charge(static_cast<uint64_t>(
        len * (CostModel::kDiskWriteCyclesPerByte +
               CostModel::kMemcpyCyclesPerByte)));
    return IoResult::ok(static_cast<int64_t>(len));
}

Result<int64_t>
ExtFile::seek(int64_t offset, int whence)
{
    if (gone()) {
        return Error(ErrorCode::kNoEnt, "unlinked: " + path_);
    }
    auto pos = oskit::resolve_seek(
        offset_, store_->get(path_).value()->size(), offset, whence);
    if (pos.ok()) {
        offset_ = static_cast<uint64_t>(pos.value());
    }
    return pos;
}

int64_t
ExtFile::size() const
{
    return gone() ? -1
                  : static_cast<int64_t>(store_->get(path_).value()->size());
}

// ---------------------------------------------------------------------
// LinuxSystem
// ---------------------------------------------------------------------

Result<std::unique_ptr<oskit::Process>>
LinuxSystem::create_process(const std::string &path,
                            const std::vector<std::string> &argv)
{
    auto raw = binaries().get(path);
    if (!raw.ok()) {
        return raw.error();
    }
    auto image = oelf::Image::parse(*raw.value());
    if (!image.ok()) {
        return image.error();
    }

    auto proc = std::make_unique<oskit::Process>();
    proc->owned_space = std::make_unique<vm::AddressSpace>();
    proc->space = proc->owned_space.get();
    proc->owned_cpu = std::make_unique<vm::Cpu>(*proc->space);
    proc->cpu = proc->owned_cpu.get();

    oskit::LoadOptions options;
    options.domain_id = 1; // single domain per process
    options.rewrite_cfi = true;
    options.map_pages = true;
    uint64_t base = next_base_;
    // Each process has its own address space; the base only needs to
    // be clear of low guard pages.
    auto domain = oskit::load_image(*proc->space, image.value(), base,
                                    argv, options);
    if (!domain.ok()) {
        return domain.error();
    }
    oskit::init_cpu(*proc->cpu, domain.value());
    proc->domain_base = domain.value().base;
    proc->d_begin = domain.value().d_begin;
    proc->d_end = domain.value().d_end;
    proc->mmap_cursor = domain.value().mmap_begin;
    proc->mmap_end = domain.value().mmap_end;

    // Native spawn cost: flat, binary-size independent (Fig. 6a).
    charge(CostModel::kLinuxSpawnCycles);
    return proc;
}

Result<oskit::FilePtr>
LinuxSystem::fs_open(oskit::Process &proc, const std::string &path,
                     uint64_t flags)
{
    (void)proc;
    if (!binaries().exists(path)) {
        if (!(flags & abi::kOpenCreate)) {
            return Error(ErrorCode::kNoEnt, "no such file: " + path);
        }
        binaries().put(path, Bytes{});
    }
    return oskit::FilePtr(
        std::make_shared<ExtFile>(&binaries(), path, flags));
}

Status
LinuxSystem::fs_unlink(const std::string &path)
{
    if (!binaries().exists(path)) {
        return Status(ErrorCode::kNoEnt, "no such file");
    }
    binaries().remove(path);
    return Status();
}

Status
LinuxSystem::fs_mkdir(const std::string &path)
{
    (void)path; // the flat host store has no real directories
    return Status();
}

} // namespace occlum::baseline
