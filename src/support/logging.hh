/**
 * @file
 * Error and status reporting helpers, in the spirit of gem5's
 * logging.hh: panic() for internal invariant violations, fatal() for
 * user/configuration errors, warn()/inform() for status messages.
 *
 * All helpers use a tiny "{}" placeholder formatter (strfmt) so the
 * library has no dependency on std::format availability.
 */

#ifndef STM_SUPPORT_LOGGING_HH
#define STM_SUPPORT_LOGGING_HH

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace stm
{

namespace detail
{

inline void
formatInto(std::ostringstream &os, std::string_view fmt)
{
    os << fmt;
}

template <typename First, typename... Rest>
void
formatInto(std::ostringstream &os, std::string_view fmt,
           const First &first, const Rest &...rest)
{
    auto pos = fmt.find("{}");
    if (pos == std::string_view::npos) {
        os << fmt;
        return;
    }
    os << fmt.substr(0, pos) << first;
    formatInto(os, fmt.substr(pos + 2), rest...);
}

} // namespace detail

/** Format @p fmt, substituting each "{}" with the next argument. */
template <typename... Args>
std::string
strfmt(std::string_view fmt, const Args &...args)
{
    std::ostringstream os;
    detail::formatInto(os, fmt, args...);
    return os.str();
}

/** Thrown by panic(): an internal bug in this library. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Thrown by fatal(): a user error (bad configuration or input). */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Report an internal invariant violation: something that should never
 * happen regardless of user input. Throws PanicError.
 */
template <typename... Args>
[[noreturn]] void
panic(std::string_view fmt, const Args &...args)
{
    throw PanicError("panic: " + strfmt(fmt, args...));
}

/**
 * Report a condition that prevents continuing and is the user's fault
 * (bad configuration, invalid arguments). Throws FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(std::string_view fmt, const Args &...args)
{
    throw FatalError("fatal: " + strfmt(fmt, args...));
}

/**
 * Parse a numeric command-line value: decimal digits only (no sign,
 * no whitespace, no trailing text), no overflow, and within
 * [@p min, @p max]. Returns nullopt for anything else, so a caller
 * can reject it as a usage error.
 */
std::optional<std::uint64_t> parseDecimal(std::string_view text,
                                          std::uint64_t min,
                                          std::uint64_t max);

/**
 * Status-message verbosity. Each level prints itself and everything
 * more severe: Info (the default) prints warnings and informational
 * messages, Warn suppresses inform(), Silent suppresses both.
 * panic()/fatal() throw regardless — errors are never filterable.
 */
enum class LogLevel {
    Silent,
    Warn,
    Info,
};

/** Set the status-message verbosity; returns the previous level. */
LogLevel setLogLevel(LogLevel level);

/** Current status-message verbosity. */
LogLevel logLevel();

/** Print a warning to stderr. Never stops execution. */
void warnMessage(const std::string &message);

/** Print an informational message to stderr. Never stops execution. */
void informMessage(const std::string &message);

/** Formatted warning. */
template <typename... Args>
void
warn(std::string_view fmt, const Args &...args)
{
    warnMessage(strfmt(fmt, args...));
}

/** Formatted informational message. */
template <typename... Args>
void
inform(std::string_view fmt, const Args &...args)
{
    informMessage(strfmt(fmt, args...));
}

} // namespace stm

#endif // STM_SUPPORT_LOGGING_HH
