/**
 * @file
 * Small helpers shared by the table-reproduction benches: fixed-width
 * cells and the paper's "-" / "inf" / "N/A" renderings.
 */

#ifndef STM_BENCH_TABLE_UTIL_HH
#define STM_BENCH_TABLE_UTIL_HH

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "support/logging.hh"

namespace stm::bench
{

/**
 * Install the worker count for this bench process from a `--jobs N`
 * argument (else hardware concurrency). Every table driver calls this
 * first; the run-execution engine guarantees identical measured
 * values for any worker count, so --jobs only changes how long the
 * bench takes. An N that is missing or outside 1..kMaxJobs prints
 * usage and exits 2.
 */
inline void
applyJobsFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--jobs")
            continue;
        const char *value = i + 1 < argc ? argv[i + 1] : "";
        std::optional<std::uint64_t> n = parseDecimal(value, 1, kMaxJobs);
        if (!n) {
            std::cerr << "invalid numeric option value\n";
            std::cout << "usage: " << argv[0] << " [--jobs N]\n"
                      << "  --jobs N  worker threads for run execution, 1.."
                      << kMaxJobs << "\n"
                      << "            (default: hardware concurrency)\n";
            std::exit(2);
        }
        setDefaultJobs(static_cast<unsigned>(*n));
    }
}

/**
 * Install the process-wide run cache from `--run-cache off|on|verify`
 * and `--run-cache-mb N` arguments (off unless --run-cache is given).
 * Cached replay is bit-identical to execution, so the flags only
 * change how long a bench with repeated configurations takes —
 * `verify` re-executes every hit and asserts exactly that.
 */
inline void
applyRunCacheFlag(int argc, char **argv)
{
    bool configure = false;
    RunCacheMode mode = RunCacheMode::Off;
    std::size_t maxBytes = 0;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--run-cache") {
            mode = parseRunCacheMode(argv[i + 1]);
            configure = true;
        } else if (std::string(argv[i]) == "--run-cache-mb") {
            long mb = std::strtol(argv[i + 1], nullptr, 10);
            if (mb >= 1)
                maxBytes = static_cast<std::size_t>(mb) * 1024 * 1024;
        }
    }
    if (configure)
        configureRunCache(mode, maxBytes);
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
