/**
 * @file
 * Lightweight Result<T> / Status error-handling types.
 *
 * The substrate avoids exceptions on hot paths (Google style); fallible
 * operations return Result<T> carrying either a value or an ErrorCode
 * plus message. Errno-like codes mirror the subset of POSIX errors the
 * LibOS syscall layer reports to user programs.
 */
#ifndef OCCLUM_BASE_RESULT_H
#define OCCLUM_BASE_RESULT_H

#include <string>
#include <utility>
#include <variant>

#include "base/log.h"

namespace occlum {

/** Errno-like error codes shared across the LibOS and substrates. */
enum class ErrorCode : int {
    kOk = 0,
    kPerm = 1,        // EPERM
    kNoEnt = 2,       // ENOENT
    kSrch = 3,        // ESRCH
    kIntr = 4,        // EINTR
    kIo = 5,          // EIO
    kBadF = 9,        // EBADF
    kChild = 10,      // ECHILD
    kAgain = 11,      // EAGAIN
    kNoMem = 12,      // ENOMEM
    kAccess = 13,     // EACCES
    kFault = 14,      // EFAULT
    kBusy = 16,       // EBUSY
    kExist = 17,      // EEXIST
    kNotDir = 20,     // ENOTDIR
    kIsDir = 21,      // EISDIR
    kInval = 22,      // EINVAL
    kMFile = 24,      // EMFILE
    kNoSpc = 28,      // ENOSPC
    kSPipe = 29,      // ESPIPE
    kRoFs = 30,       // EROFS
    kPipe = 32,       // EPIPE
    kNameTooLong = 36,// ENAMETOOLONG
    kNoSys = 38,      // ENOSYS
    kNotEmpty = 39,   // ENOTEMPTY
    kLoop = 40,       // ELOOP (epoll watch cycles)
    kNoExec = 8,      // ENOEXEC (rejected by verifier / bad format)
    kTimedOut = 110,  // ETIMEDOUT
    kWouldBlock = 140,// distinct from kAgain for clarity in tests
};

/** Human-readable name of an ErrorCode. */
const char *error_name(ErrorCode code);

/** An error: code plus a context message. */
struct Error {
    ErrorCode code = ErrorCode::kOk;
    std::string message;

    Error() = default;
    Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}
};

/**
 * Result of a fallible operation: either a T or an Error.
 *
 * Use value() only after checking ok(); it panics otherwise so that
 * substrate bugs fail loudly rather than propagating garbage.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : data_(std::move(value)) {}
    Result(Error error) : data_(std::move(error)) {}
    Result(ErrorCode code, std::string msg)
        : data_(Error(code, std::move(msg))) {}

    bool ok() const { return std::holds_alternative<T>(data_); }

    const T &
    value() const
    {
        OCC_CHECK_MSG(ok(), "Result::value on error: " << error().message);
        return std::get<T>(data_);
    }

    T &
    value()
    {
        OCC_CHECK_MSG(ok(), "Result::value on error: " << error().message);
        return std::get<T>(data_);
    }

    T
    take()
    {
        OCC_CHECK_MSG(ok(), "Result::take on error: " << error().message);
        return std::move(std::get<T>(data_));
    }

    const Error &
    error() const
    {
        OCC_CHECK(!ok());
        return std::get<Error>(data_);
    }

    ErrorCode code() const { return ok() ? ErrorCode::kOk : error().code; }

  private:
    std::variant<T, Error> data_;
};

/** Result specialization for operations with no payload. */
class Status
{
  public:
    Status() = default;
    Status(Error error) : error_(std::move(error)) {}
    Status(ErrorCode code, std::string msg)
        : error_(Error(code, std::move(msg))) {}

    bool ok() const { return error_.code == ErrorCode::kOk; }
    const Error &error() const { return error_; }
    ErrorCode code() const { return error_.code; }

  private:
    Error error_;
};

} // namespace occlum

/** Propagate an error from a Status-returning expression. */
#define OCC_RETURN_IF_ERROR(expr)                                         \
    do {                                                                  \
        auto occ_status_ = (expr);                                        \
        if (!occ_status_.ok()) {                                          \
            return occ_status_.error();                                   \
        }                                                                 \
    } while (0)

#endif // OCCLUM_BASE_RESULT_H
