/**
 * @file
 * The EIP baseline: a Graphene-SGX-like LibOS where every process is
 * an Enclave-Isolated Process (paper §3.2, Table 1):
 *  - spawn creates a *new enclave* (measured page by page), performs
 *    local attestation with the parent, and transfers the initial
 *    process state over an encrypted stream — the three steps that
 *    make EIP process creation ~10,000x slower than Linux;
 *  - IPC moves through untrusted memory, paying AES encryption +
 *    decryption per byte and an amortized world switch per operation;
 *  - the shared file system is read-only protected files (Graphene
 *    lacks a writable encrypted FS); reads decrypt per chunk and exit
 *    the enclave per operation.
 */
#ifndef OCCLUM_BASELINE_EIP_SYSTEM_H
#define OCCLUM_BASELINE_EIP_SYSTEM_H

#include <list>

#include "oskit/kernel.h"
#include "sgx/sgx.h"

namespace occlum::baseline {

/** A read-only protected file (contents verified+decrypted on read). */
class ProtectedFile : public oskit::FileObject
{
  public:
    ProtectedFile(host::HostFileStore *store, std::string path)
        : store_(store), path_(std::move(path))
    {}

    oskit::IoResult read(oskit::Kernel &kernel, uint8_t *buf,
                         uint64_t len) override;
    oskit::IoResult
    write(oskit::Kernel &, const uint8_t *, uint64_t) override
    {
        return oskit::IoResult::err(ErrorCode::kRoFs);
    }
    Result<int64_t> seek(int64_t offset, int whence) override;
    int64_t size() const override;

  private:
    host::HostFileStore *store_;
    std::string path_;
    uint64_t offset_ = 0;
};

/** The EIP kernel personality. */
class EipSystem : public oskit::Kernel
{
  public:
    struct Config {
        /** Extra enclave headroom: LibOS + libc + heap. The paper
         *  benchmarks Graphene with "the minimal enclave size that is
         *  able to run the benchmark"; this is that floor. */
        uint64_t min_enclave_bytes = CostModel::kEipMinEnclaveBytes;
    };

    EipSystem(sgx::Platform &platform, host::HostFileStore &binaries,
              Config config, host::NetSim *net = nullptr);

    EipSystem(sgx::Platform &platform, host::HostFileStore &binaries)
        : EipSystem(platform, binaries, Config{}, nullptr)
    {}
    /** Settles outstanding pre-runs while the enclaves are still there. */
    ~EipSystem() override;

    /** The OCALL gate: EEXIT + EENTER on the caller's own enclave. */
    void ocall() override;

    /**
     * Pipes cross enclave boundaries through untrusted memory: the
     * writer encrypts on its side, the reader decrypts on its own —
     * one AES pass per side on top of the copy.
     */
    double
    pipe_byte_cost() const override
    {
        return CostModel::kPipeCopyCyclesPerByte +
               CostModel::kAesCyclesPerByte;
    }

    /** ...plus an amortized, exitless-batched world switch per op. */
    uint64_t
    pipe_op_cost() const override
    {
        return CostModel::kEipPipeOpCycles;
    }

  protected:
    Result<std::unique_ptr<oskit::Process>>
    create_process(const std::string &path,
                   const std::vector<std::string> &argv) override;
    void destroy_process(oskit::Process &proc) override;

    uint64_t
    syscall_cost() const override
    {
        // Handled by the in-enclave LibOS like Occlum's.
        return CostModel::kLibosSyscallCycles;
    }

    Result<oskit::FilePtr> fs_open(oskit::Process &proc,
                                   const std::string &path,
                                   uint64_t flags) override;
    Status
    fs_unlink(const std::string &path) override
    {
        (void)path;
        return Status(ErrorCode::kRoFs, "EIP shared FS is read-only");
    }
    Status
    fs_mkdir(const std::string &path) override
    {
        (void)path;
        return Status(ErrorCode::kRoFs, "EIP shared FS is read-only");
    }

  private:
    sgx::Platform *platform_;
    Config config_;
    /** One enclave per live process. */
    std::map<uint64_t, std::unique_ptr<sgx::Enclave>> enclaves_;
};

} // namespace occlum::baseline

#endif // OCCLUM_BASELINE_EIP_SYSTEM_H
