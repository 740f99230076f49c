/**
 * @file
 * stm_diagnose — command-line front end to the diagnosis library.
 *
 *   stm_diagnose --list
 *       enumerate the bug corpus (Table 4)
 *   stm_diagnose <bug-id> [--tool lbrlog|lcrlog|lbra|lcra|cbi|auto]
 *                [--no-toggling] [--entries N] [--conf1]
 *                [--profiles N] [--proactive] [--top N] [--fleet N]
 *       run one diagnosis pipeline on one corpus entry and print the
 *       developer-facing report
 *
 * "auto" (the default) picks LBRA for sequential entries and LCRA for
 * concurrency entries — the way the paper's system would be deployed.
 *
 * --fleet N routes the LBRA/LCRA collection through the fleet
 * pipeline (src/fleet): N simulated machines report wire-format
 * profiles to the collector feeding the streaming ranker.
 * The ranking is identical to the in-process path; see stm_collector
 * for the transport-focused front end.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "baseline/cbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"
#include "diag/report.hh"
#include "exec/run_cache.hh"
#include "exec/run_pool.hh"
#include "exec/snapshot_store.hh"
#include "fleet/fleet_sim.hh"
#include "support/logging.hh"
#include "trace_cli.hh"

using namespace stm;

namespace
{

struct CliOptions
{
    std::string bugId;
    std::string tool = "auto";
    bool toggling = true;
    std::size_t entries = 16;
    bool conf1 = false;
    std::uint32_t profiles = 10;
    bool proactive = false;
    std::size_t top = 5;
    bool list = false;
    unsigned jobs = 0; //!< 0 = hardware concurrency
    std::uint64_t fleet = 0; //!< 0 = in-process; N = fleet machines
    std::string tracePath;   //!< dump trace events here when set
    bool runCacheSet = false;       //!< --run-cache given
    RunCacheMode runCache = RunCacheMode::Off;
    std::size_t runCacheBytes = 0;  //!< 0 = the cache's default budget
    DispatchMode dispatch = DispatchMode::Auto;
    bool checkpointSet = false;       //!< --checkpoint-every given
    std::uint64_t checkpointEvery = 0; //!< 0 = √T spacing
    std::size_t checkpointBytes = 0;  //!< 0 = the store's default
};

DispatchMode
parseDispatch(const std::string &text)
{
    if (text == "auto")
        return DispatchMode::Auto;
    if (text == "threaded")
        return DispatchMode::Threaded;
    if (text == "switch")
        return DispatchMode::Switch;
    fatal("unknown dispatch mode '{}' (want auto|threaded|switch)",
          text);
}

void
usage()
{
    std::cout
        << "usage: stm_diagnose --list\n"
        << "       stm_diagnose <bug-id> [options]\n\n"
        << "options:\n"
        << "  --tool lbrlog|lcrlog|lbra|lcra|cbi|auto  pipeline "
           "(default: auto)\n"
        << "  --no-toggling     disable library toggling "
           "(Section 4.3)\n"
        << "  --entries N       LBR/LCR record depth (default 16)\n"
        << "  --conf1           use the space-saving LCR "
           "configuration\n"
        << "  --profiles N      failure/success profiles for "
           "LBRA/LCRA (default 10)\n"
        << "  --proactive       proactive success-site scheme\n"
        << "  --top N           predictors to print (default 5)\n"
        << "  --jobs N          worker threads for run execution,\n"
           "                    1.." << kMaxJobs << " (default: hardware "
           "concurrency;\n"
           "                    results are identical for any N)\n"
        << "  --fleet N         collect LBRA/LCRA profiles from a\n"
           "                    simulated N-machine fleet via the\n"
           "                    wire-format collector (same ranking)\n"
        << "  --trace FILE      record trace events for the run and\n"
           "                    dump them to FILE (.json = Chrome\n"
           "                    trace_event, else binary STMT)\n"
        << "\nrun-execution flags (every mode is result-invariant:\n"
           "the ranking is bit-identical whatever you pick — see\n"
           "README 'Execution knobs'):\n"
        << "  --dispatch MODE   auto|threaded|switch: interpreter\n"
           "                    dispatch loop (default auto =\n"
           "                    threaded where compiled in)\n"
        << "  --run-cache MODE  off|on|verify: memoize identical runs\n"
           "                    (default off; verify re-executes every\n"
           "                    hit and asserts bit-identical results)\n"
        << "  --run-cache-mb N  run-cache byte budget in MiB "
           "(default 256)\n"
        << "  --checkpoint-every N\n"
           "                    record CoW machine checkpoints every\n"
           "                    N steps into the snapshot store so\n"
           "                    replays seek in O(sqrt T) instead of\n"
           "                    re-executing from step 0 (N=0 picks\n"
           "                    sqrt-T spacing; default off)\n"
        << "  --checkpoint-mb N snapshot-store byte budget in MiB "
           "(default 256)\n";
}

bool
parse(int argc, char **argv, CliOptions *out)
try {
    constexpr std::uint64_t kMaxMiB =
        std::numeric_limits<std::size_t>::max() >> 20;
    for (int i = 1; i < argc; ++i) {
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
        if (arg == "--list") {
            out->list = true;
        } else if (arg == "--tool") {
            const char *v = next();
            if (!v)
                return false;
            out->tool = v;
        } else if (arg == "--no-toggling") {
            out->toggling = false;
        } else if (arg == "--entries") {
            if (!numeric(&out->entries))
                return false;
        } else if (arg == "--conf1") {
            out->conf1 = true;
        } else if (arg == "--profiles") {
            if (!numeric(&out->profiles))
                return false;
        } else if (arg == "--proactive") {
            out->proactive = true;
        } else if (arg == "--top") {
            if (!numeric(&out->top))
                return false;
        } else if (arg == "--jobs") {
            if (!numeric(&out->jobs, 1, kMaxJobs))
                return false;
        } else if (arg == "--fleet") {
            if (!numeric(&out->fleet))
                return false;
        } else if (arg == "--trace") {
            const char *v = next();
            if (!v)
                return false;
            out->tracePath = v;
        } else if (arg == "--run-cache") {
            const char *v = next();
            if (!v)
                return false;
            out->runCache = parseRunCacheMode(v);
            out->runCacheSet = true;
        } else if (arg == "--run-cache-mb") {
            if (!numeric(&out->runCacheBytes, 0, kMaxMiB))
                return false;
            out->runCacheBytes <<= 20;
        } else if (arg == "--dispatch") {
            const char *v = next();
            if (!v)
                return false;
            out->dispatch = parseDispatch(v);
        } else if (arg == "--checkpoint-every") {
            if (!numeric(&out->checkpointEvery))
                return false;
            out->checkpointSet = true;
        } else if (arg == "--checkpoint-mb") {
            if (!numeric(&out->checkpointBytes, 0, kMaxMiB))
                return false;
            out->checkpointBytes <<= 20;
            out->checkpointSet = true;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else if (!arg.empty() && arg[0] != '-') {
            out->bugId = arg;
        } else {
            std::cerr << "unknown option: " << arg << '\n';
            return false;
        }
    }
    return out->list || !out->bugId.empty();
} catch (const FatalError &e) {
    // An unknown --run-cache or --dispatch mode.
    std::cerr << e.what() << '\n';
    return false;
}

int
listCorpus()
{
    std::cout << "sequential-bug failures:\n";
    for (const BugSpec &bug : corpus::sequentialBugs()) {
        std::cout << "  " << bug.id << "  (" << bug.app << ' '
                  << bug.version << ", "
                  << bugClassName(bug.bugClass) << " -> "
                  << symptomName(bug.symptom) << ")\n";
    }
    std::cout << "concurrency-bug failures:\n";
    for (const BugSpec &bug : corpus::concurrencyBugs()) {
        std::cout << "  " << bug.id << "  (" << bug.app << ' '
                  << bug.version << ", "
                  << interleavingName(bug.interleaving) << " -> "
                  << symptomName(bug.symptom) << ")\n";
    }
    std::cout << "Table 3 micro-bugs:\n";
    for (const BugSpec &bug : corpus::microBugs())
        std::cout << "  " << bug.id << '\n';
    std::cout << "kernel-mode pack:\n";
    for (const BugSpec &bug : corpus::kernelBugs()) {
        std::cout << "  " << bug.id << "  (" << bug.app << ", "
                  << (bug.isConcurrent
                          ? interleavingName(bug.interleaving)
                          : bugClassName(bug.bugClass))
                  << " -> " << symptomName(bug.symptom) << ")\n";
    }
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
    if (cli.list)
        return listCorpus();
    if (cli.jobs > 0)
        setDefaultJobs(cli.jobs);
    if (cli.runCacheSet)
        configureRunCache(cli.runCache, cli.runCacheBytes);
    if (cli.checkpointSet)
        configureSnapshotStore(true, cli.checkpointEvery,
                               cli.checkpointBytes);

    BugSpec bug;
    try {
        bug = corpus::bugById(cli.bugId);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n(use --list)\n";
        return 1;
    }

    std::string tool = cli.tool;
    if (tool == "auto")
        tool = bug.isConcurrent ? "lcra" : "lbra";

    // Records the whole pipeline below; dumps on every return path.
    tools::TraceCliGuard traceGuard(cli.tracePath);

    LogEnhanceOptions logOpts;
    logOpts.toggling = cli.toggling;
    logOpts.lbrEntries = cli.entries;
    logOpts.lcrEntries = cli.entries;
    logOpts.lcrConfig = cli.conf1 ? lcrConfSpaceSaving()
                                  : lcrConfSpaceConsuming();

    if (tool == "lbrlog") {
        LbrLogReport report =
            runLbrLog(bug.program, bug.failing, logOpts);
        printLbrLogReport(std::cout, *bug.program, report);
        return report.failed ? 0 : 1;
    }
    if (tool == "lcrlog") {
        LcrLogReport report =
            runLcrLog(bug.program, bug.failing, logOpts);
        printLcrLogReport(std::cout, *bug.program, report);
        return report.failed ? 0 : 1;
    }
    if ((tool == "lbra" || tool == "lcra") && cli.fleet > 0) {
        // The fleet path: same profile budget, but every profile is
        // reported over the wire by one of N simulated machines and
        // aggregated by the collector.
        fleet::FleetOptions opts;
        opts.machines = cli.fleet;
        opts.failureProfiles = cli.profiles;
        opts.successProfiles = cli.profiles;
        opts.log = logOpts;
        opts.kind = tool == "lbra" ? ProfileKind::Lbr
                                   : ProfileKind::Lcr;
        opts.absencePredicates = tool == "lcra";
        opts.scheme = cli.proactive
                          ? transform::SuccessSiteScheme::Proactive
                          : transform::SuccessSiteScheme::Reactive;
        fleet::FleetResult result =
            fleet::runFleetDiagnosis(bug, opts);
        std::cout << "fleet: " << cli.fleet << " machines, "
                  << result.framesSent << " frames ("
                  << result.wireBytes << " bytes), "
                  << result.duplicates << " duplicates suppressed, "
                  << result.decodeErrors << " rejected\n";
        if (!result.diagnosed) {
            std::cout << "fleet diagnosis: could not collect enough "
                         "reports\n";
            return 1;
        }
        std::cout << "fleet diagnosis: " << result.failureReports
                  << " failure reports (from "
                  << result.failureAttempts << " attempts), "
                  << result.successReports << " success reports\n";
        for (std::size_t i = 0;
             i < result.ranking.size() && i < cli.top; ++i) {
            const RankedEvent &r = result.ranking[i];
            std::cout << "  #" << i + 1 << ' '
                      << (r.absence ? "[absent] " : "")
                      << r.event.describe(*bug.program)
                      << "  (precision " << r.precision
                      << ", recall " << r.recall << ", score "
                      << r.score << ")\n";
        }
        return 0;
    }
    if (tool == "lbra" || tool == "lcra") {
        AutoDiagOptions opts;
        opts.log = logOpts;
        opts.failureProfiles = cli.profiles;
        opts.successProfiles = cli.profiles;
        opts.absencePredicates = tool == "lcra";
        opts.scheme = cli.proactive
                          ? transform::SuccessSiteScheme::Proactive
                          : transform::SuccessSiteScheme::Reactive;
        opts.dispatch = cli.dispatch;
        AutoDiagResult result =
            tool == "lbra"
                ? runLbra(bug.program, bug.failing, bug.succeeding,
                          opts)
                : runLcra(bug.program, bug.failing, bug.succeeding,
                          opts);
        printRanking(std::cout, *bug.program, result, cli.top);
        return result.diagnosed ? 0 : 1;
    }
    if (tool == "cbi") {
        if (bug.isCpp) {
            std::cerr << "CBI cannot instrument C++ applications "
                         "(Table 6: N/A)\n";
            return 1;
        }
        CbiResult result =
            runCbi(bug.program, bug.failing, bug.succeeding);
        if (!result.completed) {
            std::cout << "CBI: not enough runs completed\n";
            return 1;
        }
        std::cout << "CBI top predictors (" << result.failureRunsUsed
                  << '+' << result.successRunsUsed << " runs):\n";
        for (std::size_t i = 0;
             i < result.ranking.size() && i < cli.top; ++i) {
            const CbiPredicateScore &p = result.ranking[i];
            const SourceBranchInfo &info =
                bug.program->branch(p.branch);
            std::cout << "  #" << i + 1 << " branch '" << info.note
                      << "' = " << (p.outcome ? "true" : "false")
                      << "  (importance " << p.score.importance
                      << ")\n";
        }
        return 0;
    }
    std::cerr << "unknown tool '" << cli.tool << "'\n";
    usage();
    return 2;
}
