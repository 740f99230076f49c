/**
 * @file
 * Fleet collector ingest throughput microbenchmark.
 *
 * The collection service (src/fleet) is the chokepoint of the paper's
 * deployment story: every profile a production machine reports
 * crosses validation -> fingerprint -> dedup -> fold before the
 * streaming ranker sees it. This bench measures that in-order intake
 * on one thread: the submit() path (encode into the collector's
 * reused buffer, then the full ingest path) at a payload-size sweep
 * (LBR ring depth 0/8/32/128), and one wire-path reference row
 * (pre-serialized frames through ingest()). The fold keeps a set of
 * prints, as an in-memory pipeline's does.
 *
 * Output: human-readable table on stdout plus machine-readable
 * BENCH_fleet_ingest.json (override with --out FILE), embedding the
 * collector's own StatGroup::toJson() accounting so the numbers are
 * cross-checkable against what the service believes happened.
 *
 * With --check-floor, the submit row at the default payload is
 * checked against a 1M reports/sec floor: one intake must absorb a
 * fleet's worth of reports with fingerprint dedup on, or the
 * service, not the fleet, is the bottleneck.
 *
 * Flags: --reports N frames per configuration (default 40000);
 * --repeat N best-of-N per configuration (default 3).
 */

#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "fleet/collector.hh"
#include "fleet/wire_format.hh"
#include "support/random.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

/** A realistic report: LBR kind, @p lbr_entries -deep ring. */
fleet::RunProfile
syntheticProfile(Pcg32 &rng, std::uint64_t serial,
                 unsigned lbr_entries)
{
    fleet::RunProfile p;
    p.machineId = serial % 64;
    p.runSeed = serial; // distinct per frame -> distinct fingerprint
    p.bugId = "bench";
    p.failure = (serial & 1) == 0;
    p.kind = ProfileKind::Lbr;
    p.site = 1;
    p.thread = 0;
    p.step = serial;
    for (unsigned i = 0; i < lbr_entries; ++i) {
        BranchRecord b;
        b.fromIp = layout::codeAddr(rng.nextBounded(400));
        b.toIp = layout::codeAddr(rng.nextBounded(400));
        b.kind = BranchKind::Conditional;
        b.srcBranch = rng.nextBounded(48);
        b.outcome = rng.nextBool(0.5);
        p.lbr.push_back(b);
    }
    return p;
}

struct ConfigResult
{
    std::string path; //!< "submit" (encode + ingest) or "wire"
    unsigned lbrEntries = 0;
    std::uint64_t reports = 0;
    std::uint64_t wireBytes = 0;
    double wallSec = 0.0;
    std::string statsJson;

    double
    rate() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(reports) / wallSec
                   : 0.0;
    }
};

/**
 * One timed pass: every report through a fresh collector, in order,
 * on this thread. The clock covers ingest and fold.
 */
ConfigResult
timeConfigOnce(const std::vector<fleet::RunProfile> &profiles,
               const std::vector<std::vector<std::uint8_t>> &frames)
{
    bool wirePath = !frames.empty();
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(profiles.size());
    fleet::Collector collector(
        [&](const fleet::RunProfileView &, std::uint64_t print) {
            return seen.insert(print).second;
        });

    ConfigResult out;
    out.path = wirePath ? "wire" : "submit";
    out.reports = profiles.size();

    auto start = std::chrono::steady_clock::now();
    if (wirePath) {
        for (const auto &frame : frames)
            collector.ingest(frame);
    } else {
        for (const auto &profile : profiles)
            collector.submit(profile);
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    out.wallSec = elapsed.count();
    for (const auto &p : profiles)
        out.wireBytes += fleet::encodedFrameSize(p);
    out.statsJson = collector.stats().toJson();
    return out;
}

ConfigResult
timeConfig(const std::vector<fleet::RunProfile> &profiles,
           const std::vector<std::vector<std::uint8_t>> &frames,
           std::uint64_t repeats)
{
    ConfigResult best;
    for (std::uint64_t rep = 0; rep < repeats; ++rep) {
        ConfigResult r = timeConfigOnce(profiles, frames);
        if (rep == 0 || r.wallSec < best.wallSec)
            best = r;
    }
    return best;
}

void
printRow(const ConfigResult &r, unsigned payload_bytes)
{
    std::ostringstream ws, rate, mbs;
    ws << std::fixed << std::setprecision(3) << r.wallSec;
    rate << std::fixed << std::setprecision(0) << r.rate() / 1e3;
    mbs << std::fixed << std::setprecision(1)
        << (r.wallSec > 0.0
                ? static_cast<double>(r.wireBytes) / 1e6 / r.wallSec
                : 0.0);
    std::cout << cell(r.path, 8)
              << cell(std::to_string(payload_bytes), 10)
              << cell(ws.str(), 9) << cell(rate.str(), 12)
              << cell(mbs.str(), 8) << '\n';
}

void
writeJson(const std::string &path,
          const std::vector<ConfigResult> &results,
          double floorRate)
{
    std::ofstream os(path);
    os << std::fixed;
    os << "{\n  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ConfigResult &r = results[i];
        os.precision(6);
        os << "    {\"path\": \"" << r.path
           << "\", \"lbr_entries\": " << r.lbrEntries
           << ", \"reports\": " << r.reports
           << ", \"wire_bytes\": " << r.wireBytes
           << ", \"wall_sec\": " << r.wallSec
           << ", \"reports_per_sec\": ";
        os.precision(0);
        os << r.rate()
           << ",\n     \"collector\": " << r.statsJson << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os.precision(0);
    os << "  ],\n  \"floor_reports_per_sec\": " << floorRate
       << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t reports = 40000;
    std::uint64_t repeats = 3;
    bool checkFloor = false;
    std::string outPath = "BENCH_fleet_ingest.json";
    FlagTable flags(
        {"[options]"},
        {switchFlag("--check-floor", &checkFloor,
                    "fail below the 1M reports/sec floor"),
         numberFlag("--reports", &reports,
                    "frames per configuration (default 40000)", 1),
         numberFlag("--repeat", &repeats,
                    "best-of-N per configuration (default 3)", 1),
         textFlag("--out", &outPath, "FILE",
                  "JSON report (default BENCH_fleet_ingest.json)")});
    std::vector<std::string> positional = flags.parseOrExit(argc, argv);
    if (!positional.empty())
        flags.usageError("unexpected argument: " + positional.front());

    constexpr unsigned kDefaultLbrEntries = 8;
    constexpr double kFloorRate = 1000000.0;

    // Pre-build reports (and, for the wire reference row,
    // pre-serialize them) outside the timed region: the bench
    // measures the service, not the agents.
    auto buildProfiles = [&](unsigned lbrEntries) {
        Pcg32 rng(2014);
        std::vector<fleet::RunProfile> profiles;
        profiles.reserve(reports);
        for (std::uint64_t i = 0; i < reports; ++i)
            profiles.push_back(
                syntheticProfile(rng, i, lbrEntries));
        return profiles;
    };
    std::vector<fleet::RunProfile> profiles =
        buildProfiles(kDefaultLbrEntries);
    unsigned defaultPayload = static_cast<unsigned>(
        fleet::encodedFrameSize(profiles.front()));

    std::cout << "Fleet collector ingest throughput (" << reports
              << " reports per config, best of " << repeats
              << ", one thread)\n\n"
              << cell("path", 8) << cell("frame B", 10)
              << cell("wall s", 9) << cell("Kreports/s", 12)
              << cell("MB/s", 8) << '\n';

    std::vector<ConfigResult> results;
    std::vector<std::vector<std::uint8_t>> noFrames;

    // 1. The submit path at the default payload (the floor row).
    {
        ConfigResult r = timeConfig(profiles, noFrames, repeats);
        r.lbrEntries = kDefaultLbrEntries;
        printRow(r, defaultPayload);
        results.push_back(std::move(r));
    }

    // 2. Payload-size sweep on the submit path.
    for (unsigned lbrEntries : {0u, 32u, 128u}) {
        std::vector<fleet::RunProfile> sized =
            buildProfiles(lbrEntries);
        unsigned payload = static_cast<unsigned>(
            fleet::encodedFrameSize(sized.front()));
        ConfigResult r = timeConfig(sized, noFrames, repeats);
        r.lbrEntries = lbrEntries;
        printRow(r, payload);
        results.push_back(std::move(r));
    }

    // 3. Wire-path reference: pre-serialized frames through ingest().
    {
        std::vector<std::vector<std::uint8_t>> frames;
        frames.reserve(profiles.size());
        for (const auto &p : profiles)
            frames.push_back(fleet::serialize(p));
        ConfigResult r = timeConfig(profiles, frames, repeats);
        r.lbrEntries = kDefaultLbrEntries;
        printRow(r, defaultPayload);
        results.push_back(std::move(r));
    }

    writeJson(outPath, results, kFloorRate);
    std::cout << "\n(written to " << outPath << ")\n";

    if (checkFloor) {
        // results[0] is the submit path at the default payload.
        double single = results.front().rate();
        std::cout << "floor check: " << std::fixed
                  << std::setprecision(2) << single / kFloorRate
                  << "x of the 1M reports/sec intake floor\n";
        if (single < kFloorRate) {
            std::cerr << "FAIL: intake below 1M reports/sec\n";
            return 1;
        }
    }
    return 0;
}
