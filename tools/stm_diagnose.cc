/**
 * @file
 * stm_diagnose — command-line front end to the diagnosis library.
 *
 *   stm_diagnose --list
 *       enumerate the bug corpus (Table 4)
 *   stm_diagnose <bug-id> [--tool lbrlog|lcrlog|lbra|lcra|cbi|auto]
 *                [--no-toggling] [--entries N] [--conf1]
 *                [--profiles N] [--proactive] [--top N] [--fleet N]
 *                [--jobs N] [--trace FILE]
 *       run one diagnosis pipeline on one corpus entry and print the
 *       developer-facing report (`stm_diagnose --help` lists the
 *       flags)
 *
 * "auto" (the default) picks LBRA for sequential entries and LCRA for
 * concurrency entries — the way the paper's system would be deployed.
 *
 * --fleet N routes the LBRA/LCRA collection through the fleet
 * pipeline (src/fleet): N simulated machines report wire-format
 * profiles to the collector feeding the streaming ranker.
 * The ranking is identical to the in-process path; see stm_collector
 * for the transport-focused front end.
 *
 * --trace FILE records the run's trace events and dumps them to FILE
 * (Chrome JSON for a .json path, else binary STMT for `stm_trace
 * dump|stats`).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/cbi.hh"
#include "corpus/registry.hh"
#include "diag/auto_diag.hh"
#include "diag/log_enhance.hh"
#include "diag/report.hh"
#include "exec/run_pool.hh"
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
    std::string tool = "auto";
    bool noToggling = false;
    std::size_t entries = 16;
    bool conf1 = false;
    std::uint32_t profiles = 10;
    bool proactive = false;
    std::size_t top = 5;
    bool list = false;
    std::uint64_t fleet = 0; //!< 0 = in-process; N = fleet machines
    std::string tracePath;   //!< dump trace events here when set
};

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
    FlagTable flags(
        {"--list", "<bug-id> [options]"},
        {switchFlag("--list", &cli.list, "enumerate the bug corpus"),
         choiceFlag("--tool", &cli.tool,
                    {"lbrlog", "lcrlog", "lbra", "lcra", "cbi", "auto"},
                    "pipeline (default auto)"),
         switchFlag("--no-toggling", &cli.noToggling,
                    "disable library toggling (Section 4.3)"),
         numberFlag("--entries", &cli.entries,
                    "LBR/LCR record depth (default 16)", 1,
                    msr::kMaxRecordEntries),
         switchFlag("--conf1", &cli.conf1,
                    "use the space-saving LCR configuration"),
         numberFlag("--profiles", &cli.profiles,
                    "failure/success profiles for LBRA/LCRA (default 10)",
                    1),
         switchFlag("--proactive", &cli.proactive,
                    "proactive success-site scheme"),
         numberFlag("--top", &cli.top, "predictors to print (default 5)"),
         jobsFlag(),
         numberFlag("--fleet", &cli.fleet,
                    "collect LBRA/LCRA profiles from a simulated\n"
                    "N-machine fleet via the wire-format collector\n"
                    "(same ranking)"),
         textFlag("--trace", &cli.tracePath, "FILE",
                  "record trace events for the run and dump them\n"
                  "to FILE (.json = Chrome trace_event, else\n"
                  "binary STMT)")});
    std::vector<std::string> positional = flags.parseOrExit(argc, argv);
    if (cli.list)
        return listCorpus();
    if (positional.size() != 1)
        flags.usageError("want one <bug-id>");

    BugSpec bug;
    try {
        bug = corpus::bugById(positional.front());
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
    logOpts.toggling = !cli.noToggling;
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
        AutoDiagResult result =
            tool == "lbra"
                ? runLbra(bug.program, bug.failing, bug.succeeding,
                          opts)
                : runLcra(bug.program, bug.failing, bug.succeeding,
                          opts);
        printRanking(std::cout, *bug.program, result, cli.top);
        return result.diagnosed ? 0 : 1;
    }
    // tool == "cbi"
    if (bug.isCpp) {
        std::cerr << "CBI cannot instrument C++ applications "
                     "(Table 6: N/A)\n";
        return 1;
    }
    CbiResult result = runCbi(bug.program, bug.failing, bug.succeeding);
    if (!result.completed) {
        std::cout << "CBI: not enough runs completed\n";
        return 1;
    }
    std::cout << "CBI top predictors (" << result.failureRunsUsed
              << '+' << result.successRunsUsed << " runs):\n";
    for (std::size_t i = 0; i < result.ranking.size() && i < cli.top;
         ++i) {
        const CbiPredicateScore &p = result.ranking[i];
        const SourceBranchInfo &info = bug.program->branch(p.branch);
        std::cout << "  #" << i + 1 << " branch '" << info.note
                  << "' = " << (p.outcome ? "true" : "false")
                  << "  (importance " << p.score.importance
                  << ")\n";
    }
    return 0;
}
