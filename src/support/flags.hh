/**
 * @file
 * The one command-line flag table every tool and bench parses with.
 *
 * A program lists its flags — name, kind, target, help line and, for
 * numbers, a range — and gets back its positional arguments in order.
 * The table generates the usage text (first line `usage: ...`), and
 * every malformed command line fails the same way: an unknown flag, a
 * missing value, a malformed or out-of-range number, or a value
 * outside the choices prints one error line on stderr and the usage
 * on stdout, and exits 2.
 */

#ifndef STM_SUPPORT_FLAGS_HH
#define STM_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stm
{

/** One row of a FlagTable. Build it with the factories below. */
struct Flag
{
    enum class Kind {
        Switch, //!< no value; sets its target to true
        Number, //!< unsigned decimal within [min, max] (parseDecimal)
        Text,   //!< any value
        Choice, //!< one of `choices`
    };

    std::string name; //!< with its dashes: "--jobs"
    Kind kind = Kind::Switch;
    std::string metavar; //!< the value's name in the usage ("N", "FILE")
    std::string help;
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::string> choices;
    /** Store a validated value: its text, and its number for Number. */
    std::function<void(const std::string &, std::uint64_t)> set;
};

/** A flag without a value that sets @p target to true. */
Flag switchFlag(std::string name, bool *target, std::string help);

/** A flag taking any value, stored in @p target. */
Flag textFlag(std::string name, std::string *target, std::string metavar,
              std::string help);

/** A flag taking one of @p choices, stored in @p target. */
Flag choiceFlag(std::string name, std::string *target,
                std::vector<std::string> choices, std::string help);

/** A flag taking an unsigned number in [@p min, @p max]. */
Flag numberFlag(std::string name, std::string help, std::uint64_t min,
                std::uint64_t max, std::function<void(std::uint64_t)> set);

/**
 * A flag taking an unsigned number stored in @p target, within
 * [@p min, @p max] and the range of @p target's type.
 */
template <typename T>
Flag
numberFlag(std::string name, T *target, std::string help,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<T>::max())
{
    if (max > std::numeric_limits<T>::max())
        max = std::numeric_limits<T>::max();
    return numberFlag(std::move(name), std::move(help), min, max,
                      [target](std::uint64_t n) {
                          *target = static_cast<T>(n);
                      });
}

/**
 * A program's flags and its synopsis lines. Flags may come in any
 * order and mix with positional arguments; `--help`/`-h` prints the
 * usage and exits 2, like any other malformed command line.
 */
class FlagTable
{
  public:
    /**
     * @param synopsis one usage line per form, without the program
     *        name: {"--list", "<bug-id> [options]"}
     */
    FlagTable(std::vector<std::string> synopsis, std::vector<Flag> flags);

    /**
     * Apply every flag in argv[1..] to its target and return the
     * positional arguments in order; nullopt with *error set on the
     * first malformed argument, or cleared for --help (targets applied
     * before it keep their values).
     */
    std::optional<std::vector<std::string>>
    parse(int argc, const char *const *argv, std::string *error) const;

    /**
     * parse(), or the error and the usage and exit 2. Remembers the
     * program name for usageError().
     */
    std::vector<std::string> parseOrExit(int argc, char **argv);

    /** The generated usage text for program @p program. */
    std::string usage(std::string_view program) const;

    /**
     * Reject a command line that parsed but is not valid (a missing
     * or extra positional argument): print @p message (when not
     * empty), the usage, and exit 2.
     */
    [[noreturn]] void usageError(const std::string &message) const;

  private:
    std::vector<std::string> synopsis_;
    std::vector<Flag> flags_;
    std::string program_ = "program";
};

} // namespace stm

#endif // STM_SUPPORT_FLAGS_HH
