/**
 * @file
 * The Linux baseline: the reference line in the paper's Figures 5
 * and 6. Runs the same OELF binaries (uninstrumented builds) with
 * native-Linux cost characteristics:
 *  - spawn is a flat ~170 us (page tables only, demand loading —
 *    paper §9.2), independent of binary size;
 *  - a syscall is a ~500-cycle trap;
 *  - files live on an ext4-model host store charged at SSD costs;
 *  - pipes are plain double-copy kernel buffers.
 */
#ifndef OCCLUM_BASELINE_LINUX_SYSTEM_H
#define OCCLUM_BASELINE_LINUX_SYSTEM_H

#include "oskit/kernel.h"

namespace occlum::baseline {

/**
 * A plain host file opened through the ext4 model. The store is
 * path-keyed and keeps no orphan inode: once the path is unlinked,
 * read, write and lseek on a still-open fd fail with kNoEnt (fstat
 * with kInval) and never bring the path back, nor reach a file
 * created at the same path later.
 */
class ExtFile : public oskit::FileObject
{
  public:
    ExtFile(host::HostFileStore *store, std::string path, uint64_t flags);

    oskit::IoResult read(oskit::Kernel &kernel, uint8_t *buf,
                         uint64_t len) override;
    oskit::IoResult write(oskit::Kernel &kernel, const uint8_t *buf,
                          uint64_t len) override;
    Result<int64_t> seek(int64_t offset, int whence) override;
    int64_t size() const override;

  private:
    /** The path no longer names the file this fd opened. */
    bool
    gone() const
    {
        return store_->identity(path_) != identity_;
    }

    host::HostFileStore *store_;
    std::string path_;
    uint64_t identity_;
    uint64_t flags_;
    uint64_t offset_ = 0;
};

/** The Linux-model kernel. */
class LinuxSystem : public oskit::Kernel
{
  public:
    LinuxSystem(SimClock &clock, host::HostFileStore &files,
                host::NetSim *net = nullptr)
        : Kernel(clock, files, net)
    {}

  protected:
    Result<std::unique_ptr<oskit::Process>>
    create_process(const std::string &path,
                   const std::vector<std::string> &argv) override;

    void destroy_process(oskit::Process &proc) override { (void)proc; }

    uint64_t
    syscall_cost() const override
    {
        return CostModel::kLinuxSyscallCycles;
    }

    Result<oskit::FilePtr> fs_open(oskit::Process &proc,
                                   const std::string &path,
                                   uint64_t flags) override;
    Status fs_unlink(const std::string &path) override;
    Status fs_mkdir(const std::string &path) override;

  private:
    uint64_t next_base_ = 0x10000000;
};

} // namespace occlum::baseline

#endif // OCCLUM_BASELINE_LINUX_SYSTEM_H
