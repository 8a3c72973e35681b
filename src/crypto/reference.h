/**
 * @file
 * The crypto-wide switch between fast and reference implementations.
 *
 * Each primitive with an optimized kernel keeps its straightforward
 * scalar implementation as a reference: byte-wise AES-128 beside the
 * AES-NI kernel, and the scalar SHA-256 compression beside the SHA-NI
 * one. One flag selects the reference for all of them. Outputs are
 * bit-identical either way; only wall-clock differs.
 */
#ifndef OCCLUM_CRYPTO_REFERENCE_H
#define OCCLUM_CRYPTO_REFERENCE_H

namespace occlum::crypto {

/**
 * Select the reference implementations (true) or the fast ones
 * (false, default). The initial value honours the
 * OCCLUM_CRYPTO_REFERENCE environment variable ("1" selects the
 * reference, "0" or unset the fast path, anything else panics).
 */
void set_reference_mode(bool reference);
bool reference_mode();

} // namespace occlum::crypto

#endif // OCCLUM_CRYPTO_REFERENCE_H
