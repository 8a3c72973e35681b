#include "base/env.h"

#include <cstdlib>
#include <string>

namespace occlum {

Result<bool>
parse_env_flag(const char *text, bool fallback)
{
    if (text == nullptr || text[0] == '\0') {
        return fallback;
    }
    std::string value(text);
    if (value == "0" || value == "1") {
        return value == "1";
    }
    return Error(ErrorCode::kInval, "expected 0 or 1, got '" + value + "'");
}

bool
env_flag(const char *name, bool fallback)
{
    auto flag = parse_env_flag(std::getenv(name), fallback);
    OCC_CHECK_MSG(flag.ok(), name << ": " << flag.error().message);
    return flag.value();
}

} // namespace occlum
