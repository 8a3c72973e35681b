/**
 * @file
 * Strict parsing of the boolean OCCLUM_* environment toggles
 * (OCCLUM_VM_SUPERBLOCK, OCCLUM_CRYPTO_REFERENCE).
 */
#ifndef OCCLUM_BASE_ENV_H
#define OCCLUM_BASE_ENV_H

#include "base/result.h"

namespace occlum {

/**
 * Parse a toggle value: exactly "0" or "1". Null or empty text means
 * `fallback`; anything else is an error naming the text, never a
 * silent default (a CI leg setting "off" must not run the "on" mode).
 */
Result<bool> parse_env_flag(const char *text, bool fallback);

/** Read toggle `name` through parse_env_flag; a bad value panics,
 *  naming the variable and its value. */
bool env_flag(const char *name, bool fallback);

} // namespace occlum

#endif // OCCLUM_BASE_ENV_H
