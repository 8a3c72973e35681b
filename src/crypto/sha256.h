/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used for enclave measurement (EEXTEND), OELF content digests, and as
 * the compression function under HMAC. Tested against the FIPS/NIST
 * vectors in tests/crypto_test.cc.
 *
 * Compression is dispatched once per update: on CPUs whose CPUID
 * reports the SHA extensions (SHA-NI) a sha256rnds2/msg1/msg2 kernel
 * hashes every full block of the call with the state in registers;
 * otherwise, or when the crypto-wide reference mode is on
 * (crypto/reference.h, env OCCLUM_CRYPTO_REFERENCE=1), the scalar
 * loop runs. The scalar loop is the reference: unrolled 8 rounds per
 * step, no register rotation chain. Both produce the same digests
 * (differentially tested). The hasher also exposes a resumable
 * *midstate*: the 8-word chaining value at a 64-byte block boundary.
 * HmacKey caches the post-pad midstates so each MAC skips two
 * compressions, and sgx::Enclave resumes one persistent page hasher
 * from the initial midstate instead of constructing a hasher per
 * measured page. same_state() compares two full hashers, buffered
 * bytes included; sgx::Platform keys its reserve-measurement memo on
 * it.
 */
#ifndef OCCLUM_CRYPTO_SHA256_H
#define OCCLUM_CRYPTO_SHA256_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "base/bytes.h"

namespace occlum::crypto {

/** A 32-byte SHA-256 digest. */
using Sha256Digest = std::array<uint8_t, 32>;

/**
 * A resumable SHA-256 state captured at a 64-byte block boundary:
 * the chaining value plus the number of bytes absorbed so far.
 * Capturing costs nothing; resuming replaces init + re-absorbing
 * `total_len` bytes with a 40-byte copy.
 */
struct Sha256Midstate {
    std::array<uint32_t, 8> state{};
    uint64_t total_len = 0;
};

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb `len` bytes. */
    void update(const uint8_t *data, size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finalize and return the digest; the hasher must be reset after. */
    Sha256Digest finish();

    /**
     * Capture the current state as a midstate. Only valid on a block
     * boundary (no bytes buffered) — checked.
     */
    Sha256Midstate midstate() const;

    /** Restore a previously captured midstate (discards current state). */
    void resume(const Sha256Midstate &m);

    /** The midstate of a fresh hasher (total_len = 0). */
    static const Sha256Midstate &initial_midstate();

    /**
     * True if both hashers would produce the same digest from here on:
     * same chaining value, total length and buffered bytes. Only the
     * buffered prefix of the block buffer is compared; the rest is
     * stale. Works off a block boundary, unlike midstate().
     */
    bool same_state(const Sha256 &other) const;

    /** True if this CPU has the SHA extensions, i.e. the SHA-NI
     *  kernel runs whenever reference mode is off. */
    static bool has_sha_ni();

    /** One-shot convenience. */
    static Sha256Digest
    digest(const uint8_t *data, size_t len)
    {
        Sha256 h;
        h.update(data, len);
        return h.finish();
    }

    static Sha256Digest
    digest(const Bytes &data)
    {
        return digest(data.data(), data.size());
    }

  private:
    /** Compress `n` consecutive 64-byte blocks into state_. */
    void compress(const uint8_t *blocks, size_t n);

    uint32_t state_[8];
    uint8_t buffer_[64];
    size_t buffered_ = 0;
    uint64_t total_len_ = 0;
};

} // namespace occlum::crypto

#endif // OCCLUM_CRYPTO_SHA256_H
