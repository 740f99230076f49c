/**
 * @file
 * Run-cache cold/warm campaign benchmark.
 *
 * Diagnosis campaigns repeat themselves: LBRA's reactive loop replays
 * the same failure seeds after every re-instrumentation, the table
 * benches replay whole campaigns across configurations, and FleetSim
 * replays the auto-diag workload per simulated machine. The run cache
 * (exec/run_cache.hh) memoizes those replays under a content-addressed
 * key. This bench quantifies the win on a representative campaign mix:
 *
 *   - LBRA (10+10 profiles) on cp, sort, and tac
 *   - LCRA (10+10 profiles) on mozilla-js3
 *   - CBI 200+200 runs on cp
 *
 * Three timed passes over that mix:
 *   off   — caching disabled (the pre-cache baseline)
 *   cold  — fresh cache; misses populate it (intra-campaign reuse
 *           already helps: the reactive phases replay cached seeds)
 *   warm  — same cache; every run is a hit (inter-campaign reuse, the
 *           table-bench / FleetSim steady state)
 *
 * Output: human-readable table on stdout plus machine-readable
 * BENCH_run_cache.json (override with --out FILE). For CI perf smoke,
 * --check-floor N exits non-zero when warm_speedup (= cold / warm
 * wall time) drops below N. --verify adds a fourth pass in verify
 * mode, re-executing every hit and asserting bit-identical results.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "baseline/cbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_cache.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

/** One timed traversal of the campaign mix. */
double
runMix()
{
    auto start = std::chrono::steady_clock::now();
    for (const char *id : {"cp", "sort", "tac"}) {
        BugSpec bug = corpus::bugById(id);
        AutoDiagOptions opts;
        opts.failureProfiles = 10;
        opts.successProfiles = 10;
        runLbra(bug.program, bug.failing, bug.succeeding, opts);
    }
    {
        BugSpec bug = corpus::bugById("mozilla-js3");
        AutoDiagOptions opts;
        opts.failureProfiles = 10;
        opts.successProfiles = 10;
        opts.absencePredicates = true;
        runLcra(bug.program, bug.failing, bug.succeeding, opts);
    }
    {
        BugSpec bug = corpus::bugById("cp");
        CbiOptions opts;
        opts.failureRuns = 200;
        opts.successRuns = 200;
        runCbi(bug.program, bug.failing, bug.succeeding, opts);
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

void
printPass(const char *label, double sec)
{
    std::ostringstream ws;
    ws << std::fixed << std::setprecision(3) << sec;
    std::cout << "  " << cell(label, 8) << ws.str() << " s\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_run_cache.json";
    double floor = 0.0;
    bool verifyPass = false;
    bench::parseFlags(
        argc, argv,
        {textFlag("--out", &outPath, "FILE",
                  "JSON report (default BENCH_run_cache.json)"),
         numberFlag("--check-floor",
                    "exit 1 when the warm speedup is below N", 0,
                    UINT64_MAX,
                    [&floor](std::uint64_t n) {
                        floor = static_cast<double>(n);
                    }),
         switchFlag("--verify", &verifyPass,
                    "add a verify-mode pass")});

    std::cout << "Run-cache cold/warm campaign latency\n"
              << "(mix: LBRA cp/sort/tac, LCRA mozilla-js3, "
                 "CBI 200+200 cp)\n\n";

    configureRunCache(RunCacheMode::Off);
    double offSec = runMix();
    printPass("off", offSec);

    configureRunCache(RunCacheMode::On);
    double coldSec = runMix();
    printPass("cold", coldSec);

    double warmSec = runMix();
    printPass("warm", warmSec);

    RunCache *cache = globalRunCache();
    StatGroup stats = cache->statsSnapshot();
    std::uint64_t hits = stats.value("hits");
    std::uint64_t misses = stats.value("misses");
    double hitRate = cache->hitRate();
    std::size_t entries = cache->size();
    std::size_t bytes = cache->bytes();

    double warmSpeedup = warmSec > 0.0 ? coldSec / warmSec : 0.0;
    double vsOff = warmSec > 0.0 ? offSec / warmSec : 0.0;
    std::cout << "\n  warm speedup (cold/warm): " << std::fixed
              << std::setprecision(2) << warmSpeedup << "x  ("
              << vsOff << "x vs caching off)\n"
              << "  cache: " << hits << " hits, " << misses
              << " misses (" << std::setprecision(3) << hitRate
              << " hit rate), " << entries << " entries, "
              << bytes / 1024 << " KiB retained\n";

    double verifySec = 0.0;
    if (verifyPass) {
        // Fresh verify-mode cache: the first traversal populates it,
        // the second replays every hit and asserts bit-identity.
        configureRunCache(RunCacheMode::Verify);
        runMix();
        verifySec = runMix();
        printPass("verify", verifySec);
        std::cout << "  (every warm hit re-executed and compared "
                     "bit-for-bit)\n";
    }

    std::ofstream os(outPath);
    os << std::fixed << std::setprecision(6);
    os << "{\n"
       << "  \"mix\": \"lbra-cp+sort+tac lcra-mozilla-js3 "
          "cbi-cp-200+200\",\n"
       << "  \"off_sec\": " << offSec << ",\n"
       << "  \"cold_sec\": " << coldSec << ",\n"
       << "  \"warm_sec\": " << warmSec << ",\n"
       << "  \"warm_speedup\": " << warmSpeedup << ",\n"
       << "  \"warm_speedup_vs_off\": " << vsOff << ",\n"
       << "  \"hits\": " << hits << ",\n"
       << "  \"misses\": " << misses << ",\n"
       << "  \"hit_rate\": " << hitRate << ",\n"
       << "  \"entries\": " << entries << ",\n"
       << "  \"bytes\": " << bytes;
    if (verifyPass)
        os << ",\n  \"verify_sec\": " << verifySec;
    os << "\n}\n";
    std::cout << "  (written to " << outPath << ")\n";

    if (floor > 0.0) {
        std::cout << "  floor check: warm speedup " << std::fixed
                  << std::setprecision(2) << warmSpeedup
                  << "x (fail below " << floor << "x)\n";
        if (warmSpeedup < floor) {
            std::cerr << "FAIL: warm-over-cold speedup below the "
                         "required floor\n";
            return 1;
        }
    }
    return 0;
}
