#include "support/logging.hh"

#include <iostream>
#include <limits>

namespace stm
{

namespace
{

LogLevel currentLevel = LogLevel::Info;

} // namespace

LogLevel
setLogLevel(LogLevel level)
{
    LogLevel previous = currentLevel;
    currentLevel = level;
    return previous;
}

LogLevel
logLevel()
{
    return currentLevel;
}

std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t min, std::uint64_t max)
{
    if (text.empty())
        return std::nullopt;
    constexpr std::uint64_t kLimit =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (kLimit - digit) / 10)
            return std::nullopt;
        value = value * 10 + digit;
    }
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

void
warnMessage(const std::string &message)
{
    if (currentLevel < LogLevel::Warn)
        return;
    std::cerr << "warn: " << message << std::endl;
}

void
informMessage(const std::string &message)
{
    if (currentLevel < LogLevel::Info)
        return;
    std::cerr << "info: " << message << std::endl;
}

} // namespace stm
