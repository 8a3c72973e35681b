/**
 * @file
 * OELF: the ELF-like container for OVM binaries.
 *
 * An OELF image is position-independent by construction: the linker
 * fixes the layout *within* the image (code region, then the 4 KiB
 * guard gap the paper's modified LLD reserves (§8), then the data
 * region), so code reaches its globals with RIP-relative addressing
 * whose displacement is a link-time constant. The loader may place
 * the image base anywhere — MMDSFI domains have no address
 * constraints (paper §4).
 *
 * Domain layout when an image is loaded at `domain_base`:
 *
 *   T  [domain_base, +4096)                        RX  LibOS trampoline
 *   C  [T.end, +code_region_size)                  RX  user code
 *   G1 [C.end, +4096)                              unmapped guard
 *   D  [G1.end, +data_region_size)                 RW  PCB|globals|heap|stack
 *   G2 [D.end, +4096)                              unmapped guard
 *
 * The trampoline page is written by the loader, not the linker; it is
 * the only way out of the MMDSFI sandbox (paper §6). It starts with a
 * cfi_label so that user code can legally `call_reg` into it.
 *
 * The verifier signs approved images with an HMAC over the image
 * digest; the LibOS loader refuses unsigned images (paper §6).
 */
#ifndef OCCLUM_OELF_OELF_H
#define OCCLUM_OELF_OELF_H

#include <string>
#include <vector>

#include "base/bytes.h"
#include "base/result.h"
#include "crypto/hmac.h"
#include "vm/address_space.h"

namespace occlum::verifier {
class Verifier;
} // namespace occlum::verifier

namespace occlum::oelf {

/** Size of the guard regions G1/G2 (paper §6 sets them to 4 KiB). */
constexpr uint64_t kGuardSize = 4096;

/** Size of the loader-injected trampoline page at the domain base. */
constexpr uint64_t kTrampSize = 4096;

/** Bytes reserved for the PCB at D.begin (mirrors abi::kPcbSize). */
constexpr uint64_t kPcbReserve = 1024;

/** Image flag: the binary claims MMDSFI instrumentation. */
constexpr uint32_t kFlagInstrumented = 1u << 0;

/** A named offset into the code segment. */
struct Symbol {
    std::string name;
    uint64_t offset = 0;
};

/** An in-memory OELF image. */
struct Image {
    uint64_t entry_offset = 0; // code offset of _start (a cfi_label)
    Bytes code;                // instruction bytes
    Bytes data;                // initialized globals
    uint64_t bss_size = 0;     // zero-initialized globals
    uint64_t heap_size = 1 << 20;
    uint64_t stack_size = 64 << 10;
    uint32_t flags = 0;
    /**
     * Link-time code-region reservation. The RIP-relative data
     * displacements are computed against this (not the actual code
     * size), so the LibOS can preallocate fixed-geometry domain slots
     * at enclave initialization — the SGX 1.0 workaround of paper §6.
     * 0 means "exactly the code size, page aligned".
     */
    uint64_t code_reserve = 0;
    std::vector<Symbol> symbols;

    bool has_signature = false;
    crypto::Sha256Digest signature{};

    // ---- derived layout --------------------------------------------
    /** Code region size (page aligned, >= code bytes). */
    uint64_t
    code_region_size() const
    {
        uint64_t min_size = (code.size() + vm::kPageMask) & ~vm::kPageMask;
        return code_reserve > min_size ? code_reserve : min_size;
    }

    /** Offset of C.begin (user code) from the domain base. */
    static constexpr uint64_t
    code_offset()
    {
        return kTrampSize;
    }

    /** Offset of D.begin from the image/domain base. */
    uint64_t
    data_offset() const
    {
        return kTrampSize + code_region_size() + kGuardSize;
    }

    /** Data region size: PCB + globals + bss + heap + stack (paged). */
    uint64_t
    data_region_size() const
    {
        uint64_t raw = kPcbReserve + data.size() + bss_size + heap_size +
                       stack_size;
        return (raw + vm::kPageMask) & ~vm::kPageMask;
    }

    /** Offset of the heap start within the data region. */
    uint64_t
    heap_offset_in_data() const
    {
        return (kPcbReserve + data.size() + bss_size + 7) & ~7ull;
    }

    /** Total footprint of a loaded domain, guards included. */
    uint64_t
    domain_size() const
    {
        return kTrampSize + code_region_size() + kGuardSize +
               data_region_size() + kGuardSize;
    }

    /** Total bytes that must be copied into the enclave at load time. */
    uint64_t
    load_bytes() const
    {
        return code.size() + data.size();
    }

    /** Look up a symbol; returns ~0ull when absent. */
    uint64_t find_symbol(const std::string &name) const;

    // ---- serialization ------------------------------------------------
    Bytes serialize() const;
    static Result<Image> parse(const Bytes &raw);

    /**
     * SHA-256 of the unsigned serialization (signature flag 0, no
     * signature bytes), streamed: header, then code, then data, with
     * no image-sized copy. Hash the enclave-side Image parse()
     * produced, never the host bytes it came from.
     */
    crypto::Sha256Digest content_digest() const;

    /**
     * Sign with the given verifier key (HMAC over content digest).
     * Returns the content digest it signed.
     */
    crypto::Sha256Digest sign(const crypto::Key128 &key);

    /** Check the signature against `key`. */
    bool check_signature(const crypto::Key128 &key) const;

    /**
     * Check the signature against `key`, given `digest`, this Image's
     * content_digest() (a spawn may take it from a memo of the host
     * bytes the Image was parsed from). The HMAC and compare always run.
     */
    bool check_signature(const crypto::Key128 &key,
                         const crypto::Sha256Digest &digest) const;
};

/**
 * The serialized bytes of a verifier-signed image and the content
 * digest its signature covers, which is the content_digest() of the
 * Image those bytes parse to. Only SignedImage::serialize() makes one
 * with bytes, so the two always agree and a host store may take the
 * digest as its memo (host::HostFileStore::put). A default-constructed
 * one holds no bytes, which no spawn parses.
 */
class SignedBinary
{
  public:
    SignedBinary() = default;

    const Bytes &bytes() const { return bytes_; }
    const crypto::Sha256Digest &digest() const { return digest_; }
    size_t size() const { return bytes_.size(); }

  private:
    friend class SignedImage;
    SignedBinary(Bytes bytes, const crypto::Sha256Digest &digest)
        : bytes_(std::move(bytes)), digest_(digest)
    {}

    Bytes bytes_;
    crypto::Sha256Digest digest_{};
};

/**
 * An Image the verifier approved and signed, with the content digest
 * the signature covers. Only verifier::Verifier makes one, and the
 * Image stays read-only, so the digest stays its content_digest().
 */
class SignedImage
{
  public:
    const Image &image() const { return image_; }
    const crypto::Sha256Digest &digest() const { return digest_; }

    /** serialize() of the image, carrying its digest. */
    SignedBinary serialize() const
    {
        return SignedBinary(image_.serialize(), digest_);
    }

  private:
    friend class verifier::Verifier;
    SignedImage(Image image, const crypto::Sha256Digest &digest)
        : image_(std::move(image)), digest_(digest)
    {}

    Image image_;
    crypto::Sha256Digest digest_{};
};

} // namespace occlum::oelf

#endif // OCCLUM_OELF_OELF_H
