/**
 * @file
 * stm_trace — inspect and export trace-event dumps.
 *
 *   stm_trace dump FILE [--json] [--limit N] [--out FILE]
 *       decode a binary dump and print the events (or re-export as
 *       Chrome trace_event JSON with --json, or write it to --out in
 *       the format its suffix selects)
 *   stm_trace stats FILE
 *       aggregate a binary dump into the per-seam table: counts,
 *       matched-span wall time, orphaned span ends
 *
 * `stm_diagnose <bug-id> --trace FILE` records a dump (add --fleet N
 * to route the collection through the fleet). The recorder mirrors
 * the paper's hardware rings: each thread keeps only the most recent
 * events, so a dump is the "short-term memory" of the diagnosis run
 * itself. See src/obs/trace.hh.
 */

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "obs/trace_io.hh"
#include "support/flags.hh"
#include "trace_cli.hh"

using namespace stm;

namespace
{

struct CliOptions
{
    std::string inPath;
    std::string outPath; //!< dump: re-export here
    std::size_t limit = 0; //!< dump: max events printed (0 = all)
    bool json = false;
};

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
    if (!cli.outPath.empty()) {
        std::optional<std::string> format =
            tools::writeTraceDump(cli.outPath, events);
        if (!format)
            return 1;
        std::cout << "trace: " << events.size() << " events -> "
                  << cli.outPath << " (" << *format << ")\n";
        return 0;
    }
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
    FlagTable flags(
        {"dump FILE [--json] [--limit N] [--out FILE]", "stats FILE"},
        {switchFlag("--json", &cli.json,
                    "dump: print Chrome trace_event JSON"),
         numberFlag("--limit", &cli.limit,
                    "dump: print at most N events (default all)"),
         textFlag("--out", &cli.outPath, "FILE",
                  "dump: write the events to FILE instead (.json =\n"
                  "Chrome trace_event, else binary STMT)")});
    std::vector<std::string> positional = flags.parseOrExit(argc, argv);
    if (positional.size() != 2 ||
        (positional[0] != "dump" && positional[0] != "stats"))
        flags.usageError("want dump|stats FILE");
    cli.inPath = positional[1];
    return positional[0] == "dump" ? cmdDump(cli) : cmdStats(cli);
}
