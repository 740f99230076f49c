/**
 * @file
 * Durable fleet campaign bench: time-to-correct-diagnosis vs fleet
 * size (the paper's Figure 8 trade-off, reproduced over the durable
 * collection path).
 *
 * One bug's fleet reports are captured once into failure/success
 * pools (buildCampaignPools), then a simulated fleet of N machines
 * runs rounds of a reactive or proactive sampling campaign: failures
 * always report, successes are sampled only while machines are
 * instrumented (always for Proactive, after the first pin for
 * Reactive). Reports flow through durable epoched collectors — WAL
 * spill, per-round epoch rolls, snapshot compaction — and each round
 * ends with the coordinator merging the collectors' snapshots and
 * asking whether the known-golden predictor ranks first. The
 * "rounds" column is the diagnosis clock.
 *
 * Sweep: machines {1k, 10k, 100k, 1M} × {Reactive, Proactive}, two
 * collectors each. Bigger fleets see their first failure sooner and
 * accumulate discriminating success context faster, so the clock
 * must fall as the fleet grows; Proactive can never be later than
 * Reactive (its success context predates the first failure).
 *
 * A separate 1M-machine wave runs the identical campaign through 1
 * and through 4 collectors and asserts the merged snapshot is
 * *byte-identical* to the single collector's — the multi-collector
 * merge contract at fleet scale.
 *
 * Output: table on stdout plus BENCH_fleet_campaign.json (--out
 * FILE). --check-floor fails the bench if any configuration misses
 * diagnosis, the clock does not shrink monotonically with fleet
 * size, or the wave's merge is not bit-identical.
 *
 * Flags: --max-machines N caps the sweep (default 1000000; at least
 * 1000, the smallest fleet, so the checks never pass on no rows);
 * --jobs N for the one-time pool capture.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/registry.hh"
#include "fleet/durable/campaign.hh"
#include "fleet/durable/durable_collector.hh"
#include "table_util.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

struct SweepRow
{
    std::uint64_t machines = 0;
    std::string scheme;
    unsigned collectors = 0;
    fleet::CampaignResult result;
    double wallSec = 0.0;
};

std::string
workDir(const std::string &tag)
{
    std::string dir = "bench_fleet_campaign_work/" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

fleet::CampaignResult
timedCampaign(const fleet::CampaignPools &pools,
              fleet::CampaignOptions opts, double *wall_sec)
{
    auto start = std::chrono::steady_clock::now();
    fleet::CampaignResult result =
        fleet::runDurableCampaign(pools, opts);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    *wall_sec = elapsed.count();
    return result;
}

std::string
withCommas(std::uint64_t n)
{
    std::string digits = std::to_string(n);
    std::string s;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (digits.size() - i) % 3 == 0)
            s += ',';
        s += digits[i];
    }
    return s;
}

void
printRow(const SweepRow &row)
{
    const fleet::CampaignResult &r = row.result;
    std::ostringstream ws;
    ws << std::fixed << std::setprecision(2) << row.wallSec;
    std::cout << cell(withCommas(row.machines), 11)
              << cell(row.scheme, 11)
              << cell(r.diagnosed ? std::to_string(r.rounds) : "-",
                      8)
              << cell(std::to_string(r.pinRound), 5)
              << cell(withCommas(r.failureReports), 10)
              << cell(withCommas(r.successReports), 11)
              << cell(withCommas(r.mergedReports), 9)
              << cell(withCommas(r.walBytes), 13)
              << cell(ws.str(), 8) << '\n';
}

void
writeJson(const std::string &path,
          const std::vector<SweepRow> &rows, bool wave_identical,
          std::uint64_t wave_reports, std::uint64_t wave_machines)
{
    std::ofstream os(path);
    os << "{\n  \"bug\": \"cp\",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &row = rows[i];
        const fleet::CampaignResult &r = row.result;
        os << "    {\"machines\": " << row.machines
           << ", \"scheme\": \"" << row.scheme
           << "\", \"collectors\": " << row.collectors
           << ", \"diagnosed\": "
           << (r.diagnosed ? "true" : "false")
           << ", \"rounds\": " << r.rounds
           << ", \"pin_round\": " << r.pinRound << ",\n     "
           << "\"frames_sent\": " << r.framesSent
           << ", \"failure_reports\": " << r.failureReports
           << ", \"success_reports\": " << r.successReports
           << ", \"duplicates\": " << r.duplicates << ",\n     "
           << "\"merged_reports\": " << r.mergedReports
           << ", \"snapshots_merged\": " << r.snapshotsMerged
           << ", \"wal_bytes\": " << r.walBytes
           << ", \"snapshot_bytes\": " << r.snapshotBytes
           << ", \"wall_sec\": " << std::fixed
           << std::setprecision(3) << row.wallSec << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"wave\": {\"machines\": " << wave_machines
       << ", \"collectors\": [1, 4], \"merged_reports\": "
       << wave_reports << ", \"bit_identical\": "
       << (wave_identical ? "true" : "false") << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool checkFloor = false;
    std::uint64_t maxMachines = 1000000;
    std::string outPath = "BENCH_fleet_campaign.json";
    parseFlags(argc, argv,
               {switchFlag("--check-floor", &checkFloor,
                           "fail if a check misses"),
                textFlag("--out", &outPath, "FILE",
                         "JSON report (default BENCH_fleet_campaign.json)"),
                numberFlag("--max-machines", &maxMachines,
                           "cap the fleet-size sweep, >= 1000 (the\n"
                           "smallest fleet; default 1000000)",
                           1000)});

    std::cout << "Capturing campaign report pools (bug cp)...\n";
    fleet::FleetOptions fleetOpts;
    fleet::CampaignPools pools =
        fleet::buildCampaignPools(corpus::bugById("cp"), fleetOpts);
    if (!pools.valid) {
        std::cerr << "FAIL: could not build campaign pools\n";
        return 1;
    }
    std::cout << "  " << pools.failures.size() << " failure / "
              << pools.successes.size()
              << " success prototypes, golden predictor pinned\n\n";

    std::cout << "Time to correct diagnosis vs fleet size "
              << "(2 durable collectors, per-round epochs)\n\n"
              << cell("machines", 11) << cell("scheme", 11)
              << cell("rounds", 8) << cell("pin", 5)
              << cell("failures", 10) << cell("successes", 11)
              << cell("reports", 9) << cell("WAL bytes", 13)
              << cell("wall s", 8) << '\n';

    std::vector<SweepRow> rows;
    for (std::uint64_t machines : {std::uint64_t{1000},
                                   std::uint64_t{10000},
                                   std::uint64_t{100000},
                                   std::uint64_t{1000000}}) {
        if (machines > maxMachines)
            continue;
        for (auto scheme : {transform::SuccessSiteScheme::Reactive,
                            transform::SuccessSiteScheme::Proactive}) {
            bool reactive =
                scheme == transform::SuccessSiteScheme::Reactive;
            SweepRow row;
            row.machines = machines;
            row.scheme = reactive ? "reactive" : "proactive";
            row.collectors = 2;

            fleet::CampaignOptions opts;
            opts.machines = machines;
            opts.collectors = row.collectors;
            opts.scheme = scheme;
            opts.dir = workDir(row.scheme + "_" +
                               std::to_string(machines));
            // Fixed per-machine failure odds: the fleet-size axis is
            // the experiment. ~0.2 expected failures per round per
            // 1k machines keeps the smallest fleet's clock well
            // inside maxRounds while the largest pins in round one.
            opts.failureProbability = 2e-4;
            opts.successSampleEvery = 200;
            opts.maxRounds = 64;
            opts.seed = 2014;
            row.result = timedCampaign(pools, opts, &row.wallSec);
            printRow(row);
            rows.push_back(std::move(row));
            std::filesystem::remove_all(opts.dir);
        }
    }

    // The 1M full-fleet wave: same schedule through 1 and through 4
    // collectors; the merged snapshot must be byte-identical.
    std::uint64_t waveMachines =
        maxMachines < 1000000 ? maxMachines : 1000000;
    std::cout << "\n1M-machine wave merge identity ("
              << withCommas(waveMachines) << " machines, 1 vs 4 "
              << "collectors)...\n";
    auto waveCampaign = [&](unsigned collectors,
                            const std::string &dir) {
        fleet::CampaignOptions opts;
        opts.machines = waveMachines;
        opts.collectors = collectors;
        opts.scheme = transform::SuccessSiteScheme::Proactive;
        opts.dir = dir;
        opts.failureProbability = 1e-3;
        opts.successSampleEvery = 100;
        opts.maxRounds = 2;
        opts.seed = 77;
        double wall = 0.0;
        return std::pair<fleet::CampaignResult, std::string>(
            timedCampaign(pools, opts, &wall), dir);
    };
    auto [one, dirOne] = waveCampaign(1, workDir("wave_one"));
    auto [four, dirFour] = waveCampaign(4, workDir("wave_four"));
    std::vector<std::uint8_t> bytesOne =
        fleet::mergeSnapshotDir(dirOne).merged.serialize();
    std::vector<std::uint8_t> bytesFour =
        fleet::mergeSnapshotDir(dirFour).merged.serialize();
    bool identical = bytesOne == bytesFour &&
                     one.mergedReports == four.mergedReports;
    std::cout << "  " << withCommas(one.mergedReports)
              << " deduplicated reports, "
              << withCommas(bytesOne.size())
              << " snapshot bytes: "
              << (identical ? "bit-identical" : "MISMATCH") << '\n';
    std::filesystem::remove_all(dirOne);
    std::filesystem::remove_all(dirFour);
    std::filesystem::remove_all("bench_fleet_campaign_work");

    writeJson(outPath, rows, identical, one.mergedReports,
              waveMachines);
    std::cout << "\n(written to " << outPath << ")\n";

    if (checkFloor) {
        bool ok = identical;
        if (!identical)
            std::cerr << "FAIL: wave merge is not bit-identical\n";
        // Every configuration must reach a correct diagnosis, and
        // the clock must not grow with fleet size within a scheme.
        std::uint64_t lastReactive = ~std::uint64_t{0};
        std::uint64_t lastProactive = ~std::uint64_t{0};
        for (const SweepRow &row : rows) {
            if (!row.result.diagnosed) {
                std::cerr << "FAIL: " << row.scheme << " @ "
                          << row.machines
                          << " machines missed diagnosis\n";
                ok = false;
                continue;
            }
            std::uint64_t &last = row.scheme == "reactive"
                                      ? lastReactive
                                      : lastProactive;
            if (row.result.rounds > last) {
                std::cerr << "FAIL: " << row.scheme
                          << " diagnosis clock grew from " << last
                          << " to " << row.result.rounds << " @ "
                          << row.machines << " machines\n";
                ok = false;
            }
            last = row.result.rounds;
        }
        if (!ok)
            return 1;
        std::cout << "floor check: all configurations diagnosed, "
                     "clock monotone in fleet size, wave merge "
                     "bit-identical\n";
    }
    return 0;
}
