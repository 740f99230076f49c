/**
 * @file
 * stm_trace — record, inspect, and export trace-event dumps.
 *
 *   stm_trace record <bug-id> [options] --out FILE
 *       run one LBRA/LCRA diagnosis with tracing enabled and dump the
 *       per-thread trace rings (binary .stmt, or Chrome JSON when the
 *       output path ends in .json)
 *   stm_trace dump FILE [--json] [--limit N]
 *       decode a binary dump and print the events (or re-export as
 *       Chrome trace_event JSON with --json)
 *   stm_trace stats FILE
 *       aggregate a binary dump into the per-seam table: counts,
 *       matched-span wall time, orphaned span ends
 *
 * The recorder mirrors the paper's hardware rings: each thread keeps
 * only the most recent events, so a dump is the "short-term memory"
 * of the diagnosis run itself. See src/obs/trace.hh.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "exec/run_pool.hh"
#include "fleet/fleet_sim.hh"
#include "obs/trace.hh"
#include "obs/trace_io.hh"
#include "support/logging.hh"

using namespace stm;

namespace
{

struct CliOptions
{
    std::string command;
    std::string bugId;   //!< record
    std::string inPath;  //!< dump / stats
    std::string outPath; //!< record / dump --json
    std::string tool = "auto";
    std::uint32_t profiles = 10;
    std::uint64_t fleet = 0;
    std::size_t capacity = 0; //!< 0 = recorder default
    std::size_t limit = 0;    //!< dump: max events printed (0 = all)
    unsigned jobs = 0;
    bool json = false;
};

void
usage()
{
    std::cout
        << "usage: stm_trace record <bug-id> [options] --out FILE\n"
        << "       stm_trace dump FILE [--json] [--limit N] "
           "[--out FILE]\n"
        << "       stm_trace stats FILE\n\n"
        << "record options:\n"
        << "  --tool lbra|lcra|auto  diagnosis pipeline "
           "(default: auto)\n"
        << "  --profiles N      failure/success profiles "
           "(default 10)\n"
        << "  --fleet N         route collection through an "
           "N-machine fleet\n"
        << "  --capacity N      per-thread trace ring capacity "
           "(events)\n"
        << "  --jobs N          worker threads, 1.." << kMaxJobs
        << " (default: hardware\n"
           "                    concurrency)\n"
        << "  --out FILE        dump destination; .json selects the\n"
        << "                    Chrome trace_event format, anything\n"
        << "                    else the binary STMT format\n";
}

bool
parse(int argc, char **argv, CliOptions *out)
{
    if (argc < 2)
        return false;
    out->command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Reads the next argument into *slot; a value outside
        // [min, max] or the slot's type is a usage error.
        auto numeric = [&](auto *slot, std::uint64_t min = 0,
                           std::uint64_t max = UINT64_MAX) {
            using T = std::remove_pointer_t<decltype(slot)>;
            const char *v = next();
            if (!v)
                return false;
            std::optional<std::uint64_t> n = parseDecimal(
                v, min,
                std::min<std::uint64_t>(max,
                                        std::numeric_limits<T>::max()));
            if (!n) {
                std::cerr << "invalid numeric option value\n";
                return false;
            }
            *slot = static_cast<T>(*n);
            return true;
        };
        if (arg == "--tool") {
            const char *v = next();
            if (!v)
                return false;
            out->tool = v;
        } else if (arg == "--profiles") {
            if (!numeric(&out->profiles))
                return false;
        } else if (arg == "--fleet") {
            if (!numeric(&out->fleet))
                return false;
        } else if (arg == "--capacity") {
            if (!numeric(&out->capacity))
                return false;
        } else if (arg == "--limit") {
            if (!numeric(&out->limit))
                return false;
        } else if (arg == "--jobs") {
            if (!numeric(&out->jobs, 1, kMaxJobs))
                return false;
        } else if (arg == "--out") {
            const char *v = next();
            if (!v)
                return false;
            out->outPath = v;
        } else if (arg == "--json") {
            out->json = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else if (!arg.empty() && arg[0] != '-') {
            if (out->command == "record")
                out->bugId = arg;
            else
                out->inPath = arg;
        } else {
            std::cerr << "unknown option: " << arg << '\n';
            return false;
        }
    }
    if (out->command == "record")
        return !out->bugId.empty() && !out->outPath.empty();
    if (out->command == "dump" || out->command == "stats")
        return !out->inPath.empty();
    return false;
}

bool
wantsJson(const std::string &path)
{
    return path.size() >= 5 &&
           path.compare(path.size() - 5, 5, ".json") == 0;
}

/** Write @p events to @p path in the format the suffix selects. */
int
writeDump(const std::string &path,
          const std::vector<obs::TraceEvent> &events)
{
    if (wantsJson(path)) {
        std::ofstream os(path, std::ios::binary);
        os << obs::chromeTraceJson(events);
        if (!os) {
            std::cerr << "stm_trace: cannot write " << path << '\n';
            return 1;
        }
        std::cout << "trace: " << events.size() << " events -> "
                  << path << " (chrome trace_event JSON)\n";
        return 0;
    }
    FrameStatus st = obs::writeTraceFile(path, events);
    if (st != FrameStatus::Ok) {
        std::cerr << "stm_trace: cannot write " << path << " ("
                  << frameStatusName(st) << ")\n";
        return 1;
    }
    std::cout << "trace: " << events.size() << " events -> " << path
              << " (binary STMT v" << obs::kTraceFrame.version << ")\n";
    return 0;
}

int
cmdRecord(const CliOptions &cli)
{
    BugSpec bug;
    try {
        bug = corpus::bugById(cli.bugId);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n(use stm_diagnose --list)\n";
        return 1;
    }
    std::string tool = cli.tool;
    if (tool == "auto")
        tool = bug.isConcurrent ? "lcra" : "lbra";
    if (tool != "lbra" && tool != "lcra") {
        std::cerr << "unknown tool '" << cli.tool << "'\n";
        return 2;
    }
    if (cli.jobs > 0)
        setDefaultJobs(cli.jobs);
    if (cli.capacity > 0)
        obs::setTraceCapacity(cli.capacity);

    obs::clearTrace();
    obs::setTracingEnabled(true);
    bool diagnosed = false;
    if (cli.fleet > 0) {
        fleet::FleetOptions opts;
        opts.machines = cli.fleet;
        opts.failureProfiles = cli.profiles;
        opts.successProfiles = cli.profiles;
        opts.kind =
            tool == "lbra" ? ProfileKind::Lbr : ProfileKind::Lcr;
        opts.absencePredicates = tool == "lcra";
        diagnosed = fleet::runFleetDiagnosis(bug, opts).diagnosed;
    } else {
        AutoDiagOptions opts;
        opts.failureProfiles = cli.profiles;
        opts.successProfiles = cli.profiles;
        opts.absencePredicates = tool == "lcra";
        AutoDiagResult result =
            tool == "lbra"
                ? runLbra(bug.program, bug.failing, bug.succeeding,
                          opts)
                : runLcra(bug.program, bug.failing, bug.succeeding,
                          opts);
        diagnosed = result.diagnosed;
    }
    obs::setTracingEnabled(false);

    std::vector<obs::TraceEvent> events = obs::collectTrace();
    std::cout << "recorded " << obs::traceEventsRecorded()
              << " events across " << obs::traceThreadCount()
              << " threads (" << events.size() << " retained, "
              << (diagnosed ? "diagnosed" : "not diagnosed") << ")\n";
    return writeDump(cli.outPath, events);
}

int
readDump(const std::string &path, std::vector<obs::TraceEvent> *out)
{
    FrameStatus st = obs::readTraceFile(path, out);
    if (st != FrameStatus::Ok) {
        std::cerr << "stm_trace: " << path << ": "
                  << frameStatusName(st) << '\n';
        return 1;
    }
    return 0;
}

int
cmdDump(const CliOptions &cli)
{
    std::vector<obs::TraceEvent> events;
    if (int rc = readDump(cli.inPath, &events))
        return rc;
    if (!cli.outPath.empty())
        return writeDump(cli.outPath, events);
    if (cli.json) {
        std::cout << obs::chromeTraceJson(events) << '\n';
        return 0;
    }
    const char *phases[] = {"i", "B", "E"};
    std::size_t shown = 0;
    for (const obs::TraceEvent &e : events) {
        if (cli.limit > 0 && shown >= cli.limit) {
            std::cout << "... (" << events.size() - shown
                      << " more)\n";
            break;
        }
        std::cout << e.tsc << " t" << e.tid << ' '
                  << phases[static_cast<int>(e.phase)] << ' '
                  << obs::traceIdName(e.id) << " arg=" << e.arg
                  << '\n';
        ++shown;
    }
    return 0;
}

int
cmdStats(const CliOptions &cli)
{
    std::vector<obs::TraceEvent> events;
    if (int rc = readDump(cli.inPath, &events))
        return rc;
    std::cout << cli.inPath << ": " << events.size() << " events\n"
              << obs::traceStatsTable(events);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli;
    if (!parse(argc, argv, &cli)) {
        usage();
        return 2;
    }
    if (cli.command == "record")
        return cmdRecord(cli);
    if (cli.command == "dump")
        return cmdDump(cli);
    if (cli.command == "stats")
        return cmdStats(cli);
    std::cerr << "unknown command '" << cli.command << "'\n";
    usage();
    return 2;
}
