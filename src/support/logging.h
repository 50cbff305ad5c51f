/**
 * @file
 * Status-message and error helpers in the gem5 style.
 *
 * `fatal` terminates because of a user error (bad configuration, invalid
 * argument); `panic` terminates because of an internal invariant violation
 * (a FlexTensor bug). `inform` and `warn` report status without stopping.
 */
#ifndef FLEXTENSOR_SUPPORT_LOGGING_H
#define FLEXTENSOR_SUPPORT_LOGGING_H

#include <sstream>
#include <string>

namespace ft {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent = 0, Warning = 1, Info = 2, Debug = 3 };

/** Set the global verbosity. Messages above this level are dropped. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Fold a parameter pack into one string via ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Report a user-facing error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl("", 0, detail::concat(std::forward<Args>(args)...));
}

/** Report an internal invariant violation and abort(). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl("", 0, detail::concat(std::forward<Args>(args)...));
}

/**
 * Informative status message (LogLevel::Info). Like warn() and debug(),
 * it formats its arguments only when the message will be printed.
 */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Info)
        detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Something is suspicious but execution can continue. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warning)
        detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Debug-level trace message. */
template <typename... Args>
void
debug(Args &&...args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::debugImpl(detail::concat(std::forward<Args>(args)...));
}

/** Panic when a condition that must hold does not. */
#define FT_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::ft::detail::panicImpl(__FILE__, __LINE__,                   \
                ::ft::detail::concat("assertion failed: " #cond " ",      \
                                     ##__VA_ARGS__));                     \
        }                                                                 \
    } while (0)

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_LOGGING_H
