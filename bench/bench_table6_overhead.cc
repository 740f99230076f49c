/**
 * @file
 * Reproduces the overhead half of Table 6: steady-state run-time
 * overhead of LBRLOG (with and without toggling), LBRA (reactive and
 * proactive success-site schemes), and CBI, measured on each bug's
 * non-failing production workload.
 *
 * Overhead is measured in simulated instructions: instrumentation
 * (toggle ioctls, profiling ioctls, CBI countdown checks) executes as
 * accounted work against the uninstrumented baseline, excluding the
 * one-time configure/enable at the entry of main which amortizes over
 * any production-length run. The expected shape: LBRLOG w/o toggling
 * ~0%, LBRLOG w/ toggling a few %, LBRA reactive slightly above,
 * proactive higher, CBI an order of magnitude higher.
 */

#include <iostream>

#include "corpus/registry.hh"
#include "program/cfg.hh"
#include "program/transform.hh"
#include "table_util.hh"
#include "vm/machine.hh"

using namespace stm;
using namespace stm::bench;

namespace
{

/** One production (succeeding) run under @p plan. */
RunStats
productionRun(const BugSpec &bug, const Instrumentation &plan)
{
    Machine machine(bug.program, bug.succeeding.forRun(0),
                    std::make_shared<const Instrumentation>(plan));
    return machine.run().stats;
}

/**
 * Observe the failure site/instr by running the failing workload
 * under @p plan.
 */
bool
observeFailure(const BugSpec &bug, const Instrumentation &plan,
               LogSiteId *site, std::uint32_t *instr)
{
    auto overlay = std::make_shared<const Instrumentation>(plan);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        Machine machine(bug.program, bug.failing.forRun(i), overlay);
        RunResult run = machine.run();
        if (!bug.failing.isFailure(run))
            continue;
        if (run.failure) {
            *site = run.failure->site;
            *instr = run.failure->instrIndex;
        } else if (bug.failing.failureSiteHint) {
            *site = *bug.failing.failureSiteHint;
            *instr = 0;
        } else {
            return false;
        }
        return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseFlags(argc, argv);
    std::cout << "Table 6 (overhead %): steady-state instrumentation "
                 "overhead on production workloads (measured | "
                 "paper)\n\n"
              << cell("App", 11) << cell("LOG w/tog", 15)
              << cell("LOG w/o tog", 15) << cell("LBRA react.", 15)
              << cell("LBRA proact.", 15) << cell("CBI", 15) << '\n';

    double sumTog = 0, sumCbi = 0;
    int nCbi = 0;
    for (const BugSpec &bug : corpus::sequentialBugs()) {
        Cfg cfg(*bug.program);

        // LBRLOG with toggling.
        transform::LbrLogPlan tog;
        tog.lbrSelectMask = msr::kPaperLbrSelect;
        tog.toggling = true;
        Instrumentation logTog;
        transform::applyLbrLog(*bug.program, logTog, tog);
        double ovTog = productionRun(bug, logTog).steadyOverhead();

        // LBRLOG without toggling.
        transform::LbrLogPlan noTog = tog;
        noTog.toggling = false;
        Instrumentation logNoTog;
        transform::applyLbrLog(*bug.program, logNoTog, noTog);
        double ovNoTog = productionRun(bug, logNoTog).steadyOverhead();

        // LBRA reactive: LBRLOG + the observed site's success site.
        LogSiteId site = 0;
        std::uint32_t faultInstr = 0;
        double ovReactive = 0, ovProactive = 0;
        if (observeFailure(bug, logTog, &site, &faultInstr)) {
            Instrumentation reactive = logTog;
            if (site == kSegfaultSite) {
                transform::applySuccessSites(
                    *bug.program, reactive, cfg, true,
                    transform::SuccessSiteScheme::Reactive,
                    kSegfaultSite, faultInstr);
            } else {
                transform::applySuccessSites(
                    *bug.program, reactive, cfg, true,
                    transform::SuccessSiteScheme::Reactive, site);
            }
            ovReactive = productionRun(bug, reactive).steadyOverhead();
        }

        // LBRA proactive: success sites for every failure-logging
        // site, shipped before release.
        Instrumentation proactive = logTog;
        transform::applySuccessSites(
            *bug.program, proactive, cfg, true,
            transform::SuccessSiteScheme::Proactive);
        ovProactive = productionRun(bug, proactive).steadyOverhead();

        // CBI.
        std::string cbiCell = "N/A";
        if (!bug.isCpp) {
            Instrumentation cbi;
            transform::applyCbi(*bug.program, cbi);
            double ovCbi = productionRun(bug, cbi).steadyOverhead();
            cbiCell = percent(ovCbi) + " | " +
                      percent(bug.paper.ovCbi / 100.0);
            sumCbi += ovCbi;
            ++nCbi;
        }

        sumTog += ovTog;
        std::cout << cell(bug.app, 11)
                  << cell(percent(ovTog) + " | " +
                              percent(bug.paper.ovLbrlogTog / 100.0),
                          15)
                  << cell(percent(ovNoTog) + " | " +
                              percent(bug.paper.ovLbrlogNoTog /
                                      100.0),
                          15)
                  << cell(percent(ovReactive) + " | " +
                              percent(bug.paper.ovLbraReactive /
                                      100.0),
                          15)
                  << cell(percent(ovProactive) + " | " +
                              percent(bug.paper.ovLbraProactive /
                                      100.0),
                          15)
                  << cell(cbiCell, 15) << '\n';
    }
    std::cout << "\nmean LBRLOG w/tog overhead: "
              << percent(sumTog / 20.0)
              << "% (paper: ~1.1%, always < 2.28%)\n"
              << "mean CBI overhead: " << percent(sumCbi / nCbi)
              << "% (paper: 15.23% average)\n";
    return 0;
}
