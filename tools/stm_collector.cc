/**
 * @file
 * stm_collector — the fleet collection service front end.
 *
 *   stm_collector <bug-id> [options]
 *   stm_collector --merge DIR [--ranking-out FILE]
 *
 * Emulates a fleet of N machines running the monitored program,
 * shipping wire-format LBR/LCR reports through the collector, and
 * ranking failure predictors incrementally as reports arrive
 * (Section 5.2's deployment story, Figure 8). Prints the diagnosis,
 * the transport accounting, and — with --stats-json — the collector's
 * metrics as JSON.
 *
 * With --durable DIR the transport runs through the epoched durable
 * collector: accepted frames spill to a write-ahead log, the epoch
 * rolls every --epoch-every accepted reports (compacting the state
 * into a mergeable on-disk RankerSnapshot), and a restarted process
 * recovers the directory state before ingesting — re-running the
 * same command after a crash (--crash-after simulates one) converges
 * to the identical ranking. --partition i/N makes this process
 * handle only machines with id ≡ i (mod N), so N collector processes
 * sharding one fleet each snapshot their slice; the --merge
 * coordinator folds every snapshot in the directory into one ranking
 * that is bit-identical to a single-collector run over the union.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <unistd.h>

#include "corpus/registry.hh"
#include "exec/run_pool.hh"
#include "fleet/durable/campaign.hh"
#include "fleet/durable/durable_collector.hh"
#include "fleet/fleet_sim.hh"
#include "hw/msr.hh"
#include "support/flags.hh"
#include "support/logging.hh"
#include "trace_cli.hh"

using namespace stm;

namespace
{

struct CliOptions
{
    std::string bugId;
    std::uint64_t machines = 16;
    std::uint32_t profiles = 10;
    std::size_t entries = 16;
    bool conf1 = false;
    std::uint32_t duplicateEvery = 3;
    std::uint32_t corruptEvery = 5;
    std::size_t top = 5;
    std::string statsJsonPath;
    std::string tracePath;

    /** Durable / multi-collector mode. */
    std::string durableDir;
    std::uint64_t collectorId = 1;
    std::uint64_t epochEvery = 0; //!< 0 = one epoch for the whole run
    std::string partition;        //!< "I/N", parsed into the two below
    std::uint64_t partIndex = 0;
    std::uint64_t partCount = 1;
    std::uint64_t crashAfter = 0; //!< _exit after N accepts (0 = off)
    std::string mergeDir;
    std::string rankingOutPath;
};

void
dumpStatsJson(std::ostream &os, const StatGroup &collector,
              const fleet::DurableCollector *durable)
{
    os << "{\n  \"aggregate\": " << collector.toJson();
    if (durable)
        os << ",\n  \"durable\": " << durable->stats().toJson();
    os << "\n}\n";
}

/**
 * The deterministic ranking dump two runs are diffed by: every
 * predictor, full double precision (%.17g survives a round trip),
 * one line each. Equal rankings produce equal files, byte for byte.
 */
void
writeRanking(const std::string &path,
             const std::vector<RankedEvent> &ranking)
{
    std::ofstream os(path, std::ios::trunc);
    for (const RankedEvent &r : ranking) {
        char line[160];
        std::snprintf(
            line, sizeof line,
            "%u %llu %llu %d %.17g %.17g %.17g %llu %llu\n",
            static_cast<unsigned>(r.event.type),
            static_cast<unsigned long long>(r.event.a),
            static_cast<unsigned long long>(r.event.b),
            r.absence ? 1 : 0, r.score, r.precision, r.recall,
            static_cast<unsigned long long>(r.failureRuns),
            static_cast<unsigned long long>(r.successRuns));
        os << line;
    }
}

int
mergeMain(const CliOptions &cli)
{
    fleet::MergeResult merged = fleet::mergeSnapshotDir(cli.mergeDir);
    if (merged.filesMerged == 0) {
        std::cerr << "no decodable snapshots in " << cli.mergeDir
                  << '\n';
        return 1;
    }
    std::cout << "merged " << merged.filesMerged << " snapshots ("
              << merged.filesSkipped << " skipped): "
              << merged.merged.reportCount() << " distinct reports, "
              << merged.merged.failureReports() << " failures, "
              << merged.merged.successReports()
              << " successes, epoch " << merged.merged.epoch()
              << '\n';
    std::vector<RankedEvent> ranking = merged.merged.rank();
    for (std::size_t i = 0; i < ranking.size() && i < cli.top; ++i) {
        const RankedEvent &r = ranking[i];
        // The coordinator has no Program to symbolize against;
        // print the raw event identity.
        std::cout << "  #" << i + 1 << " event(type "
                  << static_cast<unsigned>(r.event.type) << ", a "
                  << r.event.a << ", b " << r.event.b
                  << ")  (precision " << r.precision << ", recall "
                  << r.recall << ", score " << r.score << ")\n";
    }
    if (!cli.rankingOutPath.empty()) {
        writeRanking(cli.rankingOutPath, ranking);
        std::cout << "(ranking written to " << cli.rankingOutPath
                  << ")\n";
    }
    return 0;
}

/**
 * The durable ingest path: capture the fleet's reports (identical in
 * every partition — the capture pipeline is deterministic), ship this
 * partition's slice through a DurableCollector with periodic epoch
 * rolls, and leave the final snapshot on disk for the coordinator.
 * A directory it cannot create or write is a user error: it prints
 * the reason and exits 1.
 */
int
durableMain(const CliOptions &cli, const BugSpec &bug,
            const fleet::FleetOptions &opts)
try {
    fleet::DurableOptions durable;
    durable.dir = cli.durableDir;
    durable.collectorId = cli.collectorId;
    fleet::DurableCollector collector(durable);

    const fleet::RecoveryReport &rec = collector.recovery();
    if (rec.recovered) {
        std::cout << "recovered: snapshot epoch "
                  << rec.snapshotEpoch << " (" << rec.snapshotReports
                  << " reports), " << rec.walRecordsReplayed
                  << " WAL records replayed (tail "
                  << frameStatusName(rec.walTail)
                  << "), resuming at epoch " << rec.resumedEpoch
                  << '\n';
    }

    fleet::FleetCapture capture =
        fleet::captureFleetReports(bug, opts);
    if (!capture.pinned) {
        std::cerr << "fleet capture could not pin a failure site\n";
        return 1;
    }

    std::uint64_t accepted = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t sent = 0;
    for (const fleet::RunProfile &report : capture.reports) {
        if (report.machineId % cli.partCount != cli.partIndex)
            continue;
        std::vector<std::uint8_t> frame = fleet::serialize(report);
        fleet::IngestStatus status = collector.ingest(frame);
        ++sent;
        if (status == fleet::IngestStatus::Duplicate)
            ++duplicates;
        if (status != fleet::IngestStatus::Accepted)
            continue;
        ++accepted;
        if (cli.crashAfter != 0 && accepted >= cli.crashAfter) {
            // The crash: no epoch roll, no WAL flush, no snapshot —
            // whatever the OS has is what recovery gets.
            std::cout << "simulating crash after " << accepted
                      << " accepts\n"
                      << std::flush;
            _exit(42);
        }
        if (cli.epochEvery != 0 && accepted % cli.epochEvery == 0)
            collector.rollEpoch();
    }
    fleet::RankerSnapshot snap = collector.rollEpoch();

    std::cout << "durable collector " << cli.collectorId
              << ": partition " << cli.partIndex << "/"
              << cli.partCount << ", " << sent << " frames sent, "
              << accepted << " accepted, " << duplicates
              << " duplicates, " << snap.reportCount()
              << " reports in snapshot, epoch " << snap.epoch()
              << '\n';

    if (!cli.rankingOutPath.empty()) {
        writeRanking(cli.rankingOutPath,
                     snap.rank(opts.absencePredicates));
        std::cout << "(ranking written to " << cli.rankingOutPath
                  << ")\n";
    }
    if (!cli.statsJsonPath.empty()) {
        std::ofstream os(cli.statsJsonPath);
        dumpStatsJson(os, collector.inner().stats(), &collector);
        std::cout << "(collector metrics written to "
                  << cli.statsJsonPath << ")\n";
    }
    return 0;
} catch (const FatalError &e) {
    std::cerr << e.what() << '\n';
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    FlagTable flags(
        {"<bug-id> [options]", "--merge DIR [--ranking-out FILE]"},
        {numberFlag("--machines", &cli.machines,
                    "simulated fleet size (default 16)", 1),
         numberFlag("--profiles", &cli.profiles,
                    "failure/success reports to aggregate (default 10)",
                    1),
         numberFlag("--entries", &cli.entries,
                    "LBR/LCR record depth (default 16)", 1,
                    msr::kMaxRecordEntries),
         switchFlag("--conf1", &cli.conf1,
                    "space-saving LCR configuration"),
         numberFlag("--dup-every", &cli.duplicateEvery,
                    "retransmit every N-th frame (default 3, 0 = off)"),
         numberFlag("--corrupt-every", &cli.corruptEvery,
                    "corrupt every N-th frame (default 5, 0 = off)"),
         numberFlag("--top", &cli.top, "predictors to print (default 5)"),
         jobsFlag(),
         textFlag("--stats-json", &cli.statsJsonPath, "FILE",
                  "dump collector metrics as JSON"),
         textFlag("--trace", &cli.tracePath, "FILE",
                  "record trace events for the run and dump them\n"
                  "to FILE (.json = Chrome trace_event, else\n"
                  "binary STMT)"),
         textFlag("--durable", &cli.durableDir, "DIR",
                  "epoched collector: WAL spill + snapshot\n"
                  "compaction in DIR (recovers on restart)"),
         numberFlag("--id", &cli.collectorId,
                    "this collector's id, >= 1 (default 1)", 1),
         numberFlag("--epoch-every", &cli.epochEvery,
                    "roll the epoch every N accepted reports\n"
                    "(default: once, at the end)"),
         textFlag("--partition", &cli.partition, "I/N",
                  "handle only machines with id mod N == I"),
         numberFlag("--crash-after", &cli.crashAfter,
                    "simulate a crash (_exit) after N accepts"),
         textFlag("--merge", &cli.mergeDir, "DIR",
                  "coordinator: merge every snapshot in DIR"),
         textFlag("--ranking-out", &cli.rankingOutPath, "FILE",
                  "write the deterministic ranking to FILE")});
    std::vector<std::string> positional = flags.parseOrExit(argc, argv);
    if (positional.size() > 1 ||
        (positional.empty() && cli.mergeDir.empty()))
        flags.usageError("want one <bug-id> or --merge DIR");
    if (!positional.empty())
        cli.bugId = positional.front();
    if (!cli.partition.empty()) {
        std::string_view v = cli.partition;
        std::size_t slash = v.find('/');
        std::optional<std::uint64_t> index =
            parseDecimal(v.substr(0, slash), 0, UINT64_MAX);
        std::optional<std::uint64_t> count =
            slash == std::string_view::npos
                ? std::nullopt
                : parseDecimal(v.substr(slash + 1), 1, UINT64_MAX);
        if (!index || !count || *index >= *count)
            flags.usageError("--partition wants I/N with I < N");
        cli.partIndex = *index;
        cli.partCount = *count;
    }

    if (!cli.mergeDir.empty())
        return mergeMain(cli);

    BugSpec bug;
    try {
        bug = corpus::bugById(cli.bugId);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n(use stm_diagnose --list)\n";
        return 1;
    }

    fleet::FleetOptions opts;
    opts.machines = cli.machines;
    opts.failureProfiles = cli.profiles;
    opts.successProfiles = cli.profiles;
    opts.log.lbrEntries = cli.entries;
    opts.log.lcrEntries = cli.entries;
    opts.log.lcrConfig = cli.conf1 ? lcrConfSpaceSaving()
                                   : lcrConfSpaceConsuming();
    opts.absencePredicates = bug.isConcurrent;
    opts.duplicateEvery = cli.duplicateEvery;
    opts.corruptEvery = cli.corruptEvery;

    // Records the ingest/rank pipeline; dumps on return.
    tools::TraceCliGuard traceGuard(cli.tracePath);

    if (!cli.durableDir.empty())
        return durableMain(cli, bug, opts);

    StatGroup collectorStats("fleet.collector");

    std::cout << "fleet collection: " << cli.machines
              << " machines, target " << cli.profiles << "+"
              << cli.profiles << " reports (" << bug.id << ")\n";
    fleet::FleetResult result =
        fleet::runFleetDiagnosis(bug, opts, &collectorStats);

    std::cout << "transport: " << result.framesSent << " frames, "
              << result.wireBytes << " payload bytes; "
              << result.duplicates << " duplicates suppressed, "
              << result.decodeErrors << " corrupt frames rejected\n";

    if (!result.diagnosed) {
        std::cout << "fleet diagnosis: could not collect enough "
                     "reports\n";
        if (!cli.statsJsonPath.empty()) {
            std::ofstream os(cli.statsJsonPath);
            dumpStatsJson(os, collectorStats, nullptr);
        }
        return 1;
    }

    std::cout << "fleet diagnosis: " << result.failureReports
              << " failure reports (from " << result.failureAttempts
              << " attempts), " << result.successReports
              << " success reports\n";
    for (std::size_t i = 0;
         i < result.ranking.size() && i < cli.top; ++i) {
        const RankedEvent &r = result.ranking[i];
        std::cout << "  #" << i + 1 << ' '
                  << (r.absence ? "[absent] " : "")
                  << r.event.describe(*bug.program)
                  << "  (precision " << r.precision << ", recall "
                  << r.recall << ", score " << r.score << ")\n";
    }

    if (!cli.statsJsonPath.empty()) {
        std::ofstream os(cli.statsJsonPath);
        dumpStatsJson(os, collectorStats, nullptr);
        std::cout << "(collector metrics written to "
                  << cli.statsJsonPath << ")\n";
    }
    return 0;
}
