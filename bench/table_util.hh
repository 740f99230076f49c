/**
 * @file
 * Small helpers shared by the benches: the command-line flags,
 * fixed-width cells and the paper's "-" / "inf" / "N/A" renderings.
 */

#ifndef STM_BENCH_TABLE_UTIL_HH
#define STM_BENCH_TABLE_UTIL_HH

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "exec/run_pool.hh"
#include "support/flags.hh"

namespace stm::bench
{

/**
 * Parse a bench's command line: `--jobs N` (jobsFlag) and @p flags.
 * The run-execution engine guarantees identical measured values for
 * any worker count, so --jobs only changes how long the bench takes.
 * A bench takes no positional argument; a malformed command line
 * prints usage and exits 2.
 */
inline void
parseFlags(int argc, char **argv, std::vector<Flag> flags = {})
{
    flags.insert(flags.begin(), jobsFlag());
    FlagTable table({"[options]"}, std::move(flags));
    std::vector<std::string> positional = table.parseOrExit(argc, argv);
    if (!positional.empty())
        table.usageError("unexpected argument: " + positional.front());
}

/** Fixed-width left-aligned cell. */
inline std::string
cell(const std::string &text, int width)
{
    std::ostringstream os;
    os << std::left << std::setw(width) << text;
    return os.str();
}

/** Render a 1-based position: 0 => "-", negative => "N/A". */
inline std::string
position(long p, bool related = false)
{
    if (p < 0)
        return "N/A";
    if (p == 0)
        return "-";
    return std::to_string(p) + (related ? "*" : "");
}

/** Render a patch distance: negative => "inf". */
inline std::string
distance(int d)
{
    if (d < 0)
        return "inf";
    return std::to_string(d);
}

/** Render a percentage with two decimals. */
inline std::string
percent(double fraction)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << fraction * 100.0;
    return os.str();
}

} // namespace stm::bench

#endif // STM_BENCH_TABLE_UTIL_HH
