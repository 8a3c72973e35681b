#include "crypto/reference.h"

#include "base/env.h"

namespace occlum::crypto {

namespace {

bool g_reference_mode = env_flag("OCCLUM_CRYPTO_REFERENCE", false);

} // namespace

void
set_reference_mode(bool reference)
{
    g_reference_mode = reference;
}

bool
reference_mode()
{
    return g_reference_mode;
}

} // namespace occlum::crypto
